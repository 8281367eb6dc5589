"""Gate-orientation (context-avoidance) pass tests."""

import pytest

from repro.circuits import Circuit, gates as g
from repro.compiler import apply_ca_dd, apply_orientation, choose_orientations
from repro.compiler.orientation import compose_1q
from repro.device import Topology, linear_chain, synthetic_device
from repro.utils.linalg import allclose_up_to_global_phase


@pytest.fixture
def device():
    return synthetic_device(linear_chain(6), seed=91)


def _conflicting_circuit(gate="ecr"):
    """Two gates whose controls (1, 2) are adjacent — the case-IV layout."""
    circ = Circuit(4)
    circ.append_moment([])
    getattr(circ, gate)(1, 0, new_moment=True)
    getattr(circ, gate)(2, 3)
    circ.append_moment([])
    return circ


class TestReversalIdentity:
    @pytest.mark.parametrize("gate", ["ecr", "cx"])
    def test_flip_preserves_unitary(self, gate):
        device = synthetic_device(linear_chain(4), seed=91)
        circ = _conflicting_circuit(gate)
        out, _report = apply_orientation(circ, device)
        assert allclose_up_to_global_phase(
            out.unitary(), circ.unitary(), atol=1e-7
        )

    def test_flip_swaps_physical_roles(self):
        device = synthetic_device(linear_chain(4), seed=91)
        circ = _conflicting_circuit()
        out, report = apply_orientation(circ, device)
        assert report.flipped == 1
        controls = sorted(
            i.qubits[0] for i in out.instructions() if i.gate.name == "ecr"
        )
        assert controls != [1, 2]  # no longer both on the adjacent pair


class TestConflictReduction:
    def test_resolves_control_control(self, device):
        circ = _conflicting_circuit()
        _out, report = apply_orientation(
            circ, synthetic_device(linear_chain(4), seed=91)
        )
        assert report.conflicts_before == 1
        assert report.conflicts_after == 0

    def test_orientation_removes_case_iv_for_ca_dd(self):
        """After orienting, CA-DD's coloring reports no conflicts."""
        device = synthetic_device(linear_chain(4), seed=91)
        circ = _conflicting_circuit()
        oriented, _rep = apply_orientation(circ, device)
        _dressed, report = apply_ca_dd(oriented, device)
        assert report.conflicts == []
        _dressed_bad, report_bad = apply_ca_dd(circ, device)
        assert report_bad.conflicts != []

    def test_no_flip_when_already_clean(self, device):
        circ = Circuit(6)
        circ.append_moment([])
        circ.ecr(1, 0, new_moment=True)
        circ.ecr(4, 5)  # far apart: no conflict
        circ.append_moment([])
        _out, report = apply_orientation(circ, device)
        assert report.flipped == 0
        assert report.conflicts_before == 0

    def test_chain_of_three_gates(self):
        """Three ECRs head-to-head on a 6-chain: orientation removes all
        same-role adjacencies."""
        device = synthetic_device(linear_chain(6), seed=92)
        circ = Circuit(6)
        circ.append_moment([])
        circ.ecr(1, 0, new_moment=True)
        circ.ecr(2, 3)
        circ.ecr(4, 5)  # target 3 adjacent to control 4? roles: t3-c4 fine
        circ.append_moment([])
        out, report = apply_orientation(circ, device)
        assert report.conflicts_after <= report.conflicts_before
        assert allclose_up_to_global_phase(
            out.unitary(), circ.unitary(), atol=1e-7
        )


class TestChooseOrientations:
    def _graph(self, edges, n):
        return Topology(n, edges)

    def test_empty(self):
        assert choose_orientations([], self._graph([], 0)) == []

    def test_single_gate_unflipped(self):
        flips = choose_orientations([(0, 1)], self._graph([(0, 1)], 2))
        assert flips == [False]

    def test_flip_breaks_target_target(self):
        # gates (0,1) and (3,2): targets 1, 2 adjacent.
        flips = choose_orientations(
            [(0, 1), (3, 2)], self._graph([(0, 1), (1, 2), (2, 3)], 4)
        )
        from repro.compiler.orientation import _role_conflicts

        graph = self._graph([(0, 1), (1, 2), (2, 3)], 4)
        assert _role_conflicts([(0, 1), (3, 2)], graph, flips) == 0


class TestCompose1Q:
    def test_into_empty_layer(self):
        circ = Circuit(2)
        circ.append_moment([])
        compose_1q(circ, 0, 0, g.H_MAT, position="pre")
        inst = circ.moments[0].instruction_on(0)
        assert inst is not None and inst.tag == "orientation"

    def test_fuse_order_pre_vs_post(self):

        for position, expected in (
            ("pre", g.H_MAT @ g.S_MAT),
            ("post", g.S_MAT @ g.H_MAT),
        ):
            circ = Circuit(1)
            circ.s(0)
            compose_1q(circ, 0, 0, g.H_MAT, position=position)
            fused = circ.moments[0].instruction_on(0).gate.matrix
            assert allclose_up_to_global_phase(fused, expected, atol=1e-8)

    def test_rejects_non_1q_layer(self):
        circ = Circuit(2)
        circ.ecr(0, 1)
        with pytest.raises(ValueError):
            compose_1q(circ, 0, 0, g.H_MAT, position="pre")

    def test_rejects_missing_layer(self):
        circ = Circuit(1)
        circ.h(0)
        with pytest.raises(ValueError):
            compose_1q(circ, 5, 0, g.H_MAT, position="pre")
