"""Context-aware DD tests (Algorithm 1)."""

import pytest

from repro.circuits import Circuit, gates as g
from repro.compiler.ca_dd import apply_ca_dd, pinned_colors
from repro.device import linear_chain, synthetic_device
from repro.sim.timeline import pair_sign_integral


class TestPinnedColors:
    def test_ecr_pins(self):
        circ = Circuit(3)
        circ.ecr(1, 2)
        pins = pinned_colors(circ.moments[0])
        assert pins == {1: 1, 2: 2}

    def test_canonical_pins_like_ecr(self):
        circ = Circuit(2)
        circ.can(0.1, 0.2, 0.3, 0, 1)
        pins = pinned_colors(circ.moments[0])
        assert pins == {0: 1, 1: 2}

    def test_unknown_2q_gate_pins_zero(self):
        import numpy as np

        circ = Circuit(2)
        circ.append(g.Gate("iswap", 2, matrix=np.eye(4)), [0, 1])
        pins = pinned_colors(circ.moments[0])
        assert pins == {0: 0, 1: 0}

    def test_measured_qubit_pinned_zero(self):
        circ = Circuit(1, num_clbits=1)
        circ.measure(0, 0)
        assert pinned_colors(circ.moments[0]) == {0: 0}


class TestApplyCADD:
    def test_spectator_staggered_against_control(self, chain3):
        """Case II: the control spectator's DD must not align with the echo."""
        circ = Circuit(3)
        circ.append_moment([])
        circ.ecr(1, 2, new_moment=True)
        circ.append_moment([])
        dressed, report = apply_ca_dd(circ, chain3)
        dd = next(i for i in dressed.instructions() if i.gate.name == "dd")
        assert dd.qubits == (0,)
        # Combined with the control's midpoint echo the ZZ must refocus.
        assert pair_sign_integral(dd.gate.dd_fractions, (0.5,)) == pytest.approx(0.0)
        # And the spectator's own Z refocuses too.
        from repro.sim.timeline import sign_integral

        assert sign_integral(dd.gate.dd_fractions) == pytest.approx(0.0)

    def test_target_spectator_preserves_rotary(self, chain3):
        """Case III: spectator DD must not undo the rotary refocusing."""
        circ = Circuit(3)
        circ.append_moment([])
        circ.ecr(2, 1, new_moment=True)  # qubit 1 = target, next to probe 0
        circ.append_moment([])
        dressed, _report = apply_ca_dd(circ, chain3)
        dd = next(i for i in dressed.instructions() if i.gate.name == "dd")
        assert pair_sign_integral(
            dd.gate.dd_fractions, (0.25, 0.75)
        ) == pytest.approx(0.0)

    def test_adjacent_idles_get_orthogonal_sequences(self, chain4):
        circ = Circuit(4)
        circ.append_moment([])
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.append_moment([])
        dressed, _report = apply_ca_dd(circ, chain4)
        fracs = {
            i.qubits[0]: i.gate.dd_fractions
            for i in dressed.instructions()
            if i.gate.name == "dd"
        }
        assert pair_sign_integral(fracs[0], fracs[1]) == pytest.approx(0.0)

    def test_case_iv_conflict_reported(self, chain4):
        """Adjacent ECR controls cannot be separated -> reported conflict."""
        circ = Circuit(4)
        circ.append_moment([])
        circ.ecr(1, 0, new_moment=True)
        circ.ecr(2, 3)
        circ.append_moment([])
        _dressed, report = apply_ca_dd(circ, chain4)
        assert any(
            (a, b) == (1, 2) for _m, a, b in report.conflicts
        )

    def test_nnn_crosstalk_forces_third_color(self):
        """Collision-enhanced NNN edge: three mutually-coupled idle qubits."""
        device = synthetic_device(
            linear_chain(3), seed=2, collision_triples=[(0, 1, 2)]
        )
        circ = Circuit(3)
        circ.append_moment([])
        for q in range(3):
            circ.delay(500.0, q, new_moment=(q == 0))
        circ.append_moment([])
        dressed, report = apply_ca_dd(circ, device)
        colors = report.colorings[1].colors
        assert len({colors[q] for q in range(3)}) == 3

    def test_short_moments_skipped(self, chain2):
        circ = Circuit(2)
        circ.h(0)  # 50 ns moment, qubit 1 idle
        dressed, _report = apply_ca_dd(circ, chain2)
        assert dressed.count_gates(name="dd") == 0

    def test_report_colors_in_moment(self, chain3):
        circ = Circuit(3)
        circ.append_moment([])
        circ.ecr(1, 2, new_moment=True)
        circ.append_moment([])
        _dressed, report = apply_ca_dd(circ, chain3)
        colors = report.colors_in_moment(1)
        assert colors[1] == 1 and colors[2] == 2
        assert 0 in colors
