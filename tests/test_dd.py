"""Baseline DD insertion pass tests."""

import pytest

from repro.circuits import Circuit, schedule
from repro.compiler.dd import (
    _two_coloring,
    apply_aligned_dd,
    apply_dd_by_rule,
    apply_staggered_dd,
    dd_pulse_count,
)
from repro.device import linear_chain, ring, synthetic_device
from repro.sim.timeline import build_timeline


def idle_pair_circuit(depth=2, tau=500.0):
    circ = Circuit(2)
    circ.h(0)
    circ.h(1)
    for _ in range(depth):
        circ.delay(tau, 0, new_moment=True)
        circ.delay(tau, 1)
    circ.h(0, new_moment=True)
    circ.h(1)
    return circ


class TestAlignedDD:
    def test_replaces_delays_with_sequences(self, chain2):
        dressed = apply_aligned_dd(idle_pair_circuit(), chain2)
        assert dressed.count_gates(name="dd") == 4
        assert dressed.count_gates(name="delay") == 0

    def test_preserves_window_duration(self, chain2):
        circ = idle_pair_circuit(depth=1, tau=640.0)
        dressed = apply_aligned_dd(circ, chain2)
        sched = schedule(dressed, chain2.durations)
        delay_moment = next(sm for sm in sched if sm.duration == 640.0)
        assert delay_moment is not None

    def test_skips_short_moments(self, chain2):
        circ = idle_pair_circuit(depth=1, tau=500.0)
        dressed = apply_aligned_dd(circ, chain2)
        # H layers (50 ns) stay undressed.
        for moment in dressed.moments:
            for inst in moment:
                if inst.gate.name == "dd":
                    assert inst.gate.duration_override == 500.0

    def test_all_qubits_same_fractions(self, chain2):
        dressed = apply_aligned_dd(idle_pair_circuit(), chain2)
        fractions = {
            inst.gate.dd_fractions
            for inst in dressed.instructions()
            if inst.gate.name == "dd"
        }
        assert fractions == {(0.25, 0.75)}

    def test_original_untouched(self, chain2):
        circ = idle_pair_circuit()
        apply_aligned_dd(circ, chain2)
        assert circ.count_gates(name="dd") == 0


class TestStaggeredDD:
    def test_neighbors_get_different_fractions(self, chain2):
        dressed = apply_staggered_dd(idle_pair_circuit(), chain2)
        moment = next(
            m
            for m in dressed.moments
            if sum(1 for i in m if i.gate.name == "dd") == 2
        )
        fracs = [i.gate.dd_fractions for i in moment if i.gate.name == "dd"]
        assert fracs[0] != fracs[1]

    def test_two_coloring_respects_chain(self, chain4):
        circ = Circuit(4)
        for q in range(4):
            circ.delay(500.0, q, new_moment=(q == 0))
        dressed = apply_staggered_dd(circ, chain4)
        fracs = {
            inst.qubits[0]: inst.gate.dd_fractions
            for inst in dressed.instructions()
            if inst.gate.name == "dd"
        }
        for a, b in chain4.topology.edges:
            assert fracs[a] != fracs[b]


class TestTwoColoring:
    """Colorings recorded with the former per-connected-component sweep."""

    @pytest.mark.parametrize(
        "topology, expected",
        [
            (linear_chain(6), {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1}),
            (ring(12), {q: q % 2 for q in range(12)}),
            # Odd cycle: the greedy sweep leaves the (0, 4) pair conflicting.
            (ring(5), {0: 0, 1: 1, 2: 0, 3: 1, 4: 1}),
        ],
        ids=["chain6", "ring12", "ring5"],
    )
    def test_matches_recorded(self, topology, expected):
        assert _two_coloring(synthetic_device(topology, seed=1)) == expected


class TestRulePass:
    def test_rule_none_skips(self, chain2):
        dressed = apply_dd_by_rule(
            idle_pair_circuit(), chain2, lambda _m, _q: None
        )
        assert dressed.count_gates(name="dd") == 0

    def test_rule_receives_idle_qubits_only(self, chain3):
        seen = []

        def rule(_moment, qubit):
            seen.append(qubit)
            return None

        circ = Circuit(3)
        circ.ecr(0, 1, new_moment=True)
        apply_dd_by_rule(circ, chain3, rule)
        assert seen == [2]

    def test_occupied_qubit_raises_via_insert(self, chain2):
        from repro.compiler.dd import _insert_dd

        circ = Circuit(2)
        circ.h(0)
        with pytest.raises(ValueError):
            _insert_dd(circ.moments[0], 0, (0.25, 0.75))


class TestPulseCount:
    def test_counts_physical_pulses(self, chain2):
        dressed = apply_aligned_dd(idle_pair_circuit(depth=3), chain2)
        assert dd_pulse_count(dressed) == 3 * 2 * 2  # depth x qubits x pulses

    def test_timeline_sees_dd_flips(self, chain2):
        dressed = apply_aligned_dd(idle_pair_circuit(depth=1), chain2)
        moment = next(
            m for m in dressed.moments if any(i.gate.name == "dd" for i in m)
        )
        tl = build_timeline(moment, 2, 500.0)
        assert tl.flips[0] == (0.25, 0.75)
