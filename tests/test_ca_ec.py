"""Context-aware error compensation tests (Algorithm 2)."""


import pytest

from repro.circuits import Circuit
from repro.compiler.ca_ec import apply_ca_ec
from repro.device import linear_chain, synthetic_device
from repro.pauli import apply_twirl
from repro.runtime import Task, run
from repro.sim import SimOptions


@pytest.fixture
def coh():
    return SimOptions(
        shots=1, stochastic=False, dephasing=False,
        amplitude_damping=False, gate_errors=False, seed=0,
    )


@pytest.fixture
def ideal():
    return SimOptions(
        shots=1, coherent=False, stochastic=False, dephasing=False,
        amplitude_damping=False, gate_errors=False, seed=0,
    )


def assert_restores_ideal(circ, device, observables, coh, ideal, atol=1e-7):
    compensated, report = apply_ca_ec(circ, device)
    want = run(Task(circ, observables=observables), device.ideal(), options=ideal)[0]
    got = run(Task(compensated, observables=observables), device, options=coh)[0]
    for key in observables:
        assert got[key] == pytest.approx(want[key], abs=atol), key
    return report


class TestExactCancellation:
    def test_idle_pair(self, chain2, coh, ideal):
        circ = Circuit(2)
        circ.h(0)
        circ.h(1)
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.h(0, new_moment=True)
        circ.h(1)
        report = assert_restores_ideal(
            circ, chain2, {"z0": "IZ", "z1": "ZI"}, coh, ideal
        )
        assert report.z_compensations > 0
        assert report.zz_explicit + report.zz_absorbed > 0

    def test_absorption_into_canonical(self, chain4, coh, ideal):
        circ = Circuit(4)
        for q in range(4):
            circ.h(q, new_moment=(q == 0))
        circ.can(0.3, 0.2, 0.4, 0, 1, new_moment=True)
        circ.append_moment([])
        circ.can(0.1, 0.5, 0.2, 2, 3, new_moment=True)
        circ.append_moment([])
        report = assert_restores_ideal(
            circ, chain4, {"x2": "IXII", "x0": "IIIX"}, coh, ideal
        )
        assert report.zz_absorbed >= 2

    def test_absorption_into_rzz(self, chain2, coh, ideal):
        circ = Circuit(2)
        circ.h(0)
        circ.h(1)
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.append_moment([])
        circ.rzz(0.7, 0, 1, new_moment=True)
        circ.append_moment([])
        compensated, report = apply_ca_ec(circ, chain2)
        assert report.zz_absorbed >= 1
        want = run(Task(circ, observables={"x": "IX"}), chain2.ideal(), options=ideal)[0]
        got = run(Task(compensated, observables={"x": "IX"}), chain2, options=coh)[0]
        assert got["x"] == pytest.approx(want["x"], abs=1e-7)

    def test_spectator_z_compensated(self, chain3, coh, ideal):
        circ = Circuit(3)
        circ.h(0)
        for _ in range(3):
            circ.ecr(1, 2, new_moment=True)
            circ.append_moment([])
        circ.h(0, new_moment=True)
        assert_restores_ideal(circ, chain3, {"z": "IIZ"}, coh, ideal)


class TestTwirlCrossing:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_through_twirl(self, chain4, coh, ideal, seed):
        circ = Circuit(4)
        for q in range(4):
            circ.h(q, new_moment=(q == 0))
        circ.can(0.3, 0.2, 0.4, 0, 1, new_moment=True)
        circ.append_moment([])
        circ.can(0.1, 0.5, 0.2, 2, 3, new_moment=True)
        circ.append_moment([])
        twirled, _record = apply_twirl(circ, seed=seed)
        compensated, _report = apply_ca_ec(twirled, chain4)
        want = run(Task(circ, observables={"x2": "IXII"}), chain4.ideal(), options=ideal)[0]
        got = run(Task(compensated, observables={"x2": "IXII"}), chain4, options=coh)[0]
        assert got["x2"] == pytest.approx(want["x2"], abs=1e-7)

    def test_sign_flip_through_anticommuting_pauli(self, chain2, coh, ideal):
        """An X between the error and the absorber flips the correction."""
        circ = Circuit(2)
        circ.h(0)
        circ.h(1)
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.x(0, new_moment=True)  # anticommutes with ZZ on (0,1)
        circ.x(1)
        circ.rzz(0.7, 0, 1, new_moment=True)
        circ.append_moment([])
        compensated, report = apply_ca_ec(circ, chain2)
        # Both the delay window's ZZ and the X layer's own small ZZ absorb
        # into the rzz, each crossing the anticommuting X pair.
        assert report.zz_absorbed == 2
        want = run(Task(circ, observables={"x": "IX"}), chain2.ideal(), options=ideal)[0]
        got = run(Task(compensated, observables={"x": "IX"}), chain2, options=coh)[0]
        assert got["x"] == pytest.approx(want["x"], abs=1e-7)


class TestBlockedPaths:
    def test_generic_1q_gate_blocks_absorption(self, chain2):
        circ = Circuit(2)
        circ.append_moment([])
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.h(0, new_moment=True)  # generic gate: ZZ cannot cross
        circ.rzz(0.5, 0, 1, new_moment=True)
        circ.append_moment([])
        _compensated, report = apply_ca_ec(circ, chain2)
        # Forward is blocked; backward finds nothing -> explicit insertion.
        assert report.zz_explicit >= 1

    def test_measurement_blocks_crossing(self, chain2):
        circ = Circuit(2, num_clbits=1)
        circ.append_moment([])
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.measure(0, 0, new_moment=True)
        _compensated, report = apply_ca_ec(circ, chain2)
        assert report.zz_explicit >= 1

    def test_nnn_edge_blocked_without_coupling(self):
        device = synthetic_device(
            linear_chain(3), seed=3, collision_triples=[(0, 1, 2)]
        )
        circ = Circuit(3)
        circ.append_moment([])
        for q in range(3):
            circ.delay(500.0, q, new_moment=(q == 0))
        circ.append_moment([])
        _compensated, report = apply_ca_ec(circ, device)
        blocked_edges = {edge for _i, edge, _t, _r in report.blocked}
        assert (0, 2) in blocked_edges

    def test_allow_explicit_false_blocks(self, chain2):
        circ = Circuit(2)
        circ.append_moment([])
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.append_moment([])
        _compensated, report = apply_ca_ec(circ, chain2, allow_explicit=False)
        assert len(report.blocked) >= 1


class TestInsertions:
    def test_z_compensations_are_virtual(self, chain2):
        circ = Circuit(2)
        circ.append_moment([])
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.append_moment([])
        compensated, _report = apply_ca_ec(circ, chain2)
        comp_rz = [
            i
            for i in compensated.instructions()
            if i.tag == "compensation" and i.gate.name == "rz"
        ]
        assert comp_rz
        from repro.circuits import schedule

        before = schedule(circ, chain2.durations).total_duration
        after = schedule(compensated, chain2.durations).total_duration
        assert after == pytest.approx(before)  # zero wall-clock cost

    def test_explicit_rzz_tagged_and_scaled(self, chain2):
        circ = Circuit(2)
        circ.append_moment([])
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.append_moment([])
        compensated, report = apply_ca_ec(circ, chain2)
        assert report.zz_explicit == 1
        rzz = next(
            i
            for i in compensated.instructions()
            if i.tag == "compensation" and i.gate.name == "rzz"
        )
        assert 0.0 < rzz.gate.error_scale < 1.0

    def test_min_angle_skips_tiny_errors(self, chain2):
        circ = Circuit(2)
        circ.append_moment([])
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.append_moment([])
        _compensated, report = apply_ca_ec(circ, chain2, min_angle=100.0)
        assert report.z_compensations == 0
        assert report.zz_total == 0

    def test_overlapping_rzz_packed_into_moments(self, chain4, coh, ideal):
        """Two idle pairs sharing no qubit share one compensation moment."""
        circ = Circuit(4)
        circ.append_moment([])
        for q in range(4):
            circ.delay(500.0, q, new_moment=(q == 0))
        circ.append_moment([])
        compensated, report = apply_ca_ec(circ, chain4)
        # Chain 0-1-2-3 idle: edges (0,1),(1,2),(2,3) all accumulate; they
        # overlap pairwise except (0,1) with (2,3).
        assert report.zz_explicit == 3
        rzz_moments = [
            m
            for m in compensated.moments
            if any(i.gate.name == "rzz" for i in m)
        ]
        assert len(rzz_moments) == 2  # (0,1)+(2,3) packed, (1,2) alone


class TestPlannerDurations:
    def test_wrong_timing_belief_miscompensates(self, chain2, coh, ideal):
        from dataclasses import replace

        circ = Circuit(2, num_clbits=1)
        circ.h(1)
        circ.measure(0, 0, new_moment=True)
        circ.h(1, new_moment=True)
        right, _ = apply_ca_ec(circ, chain2)
        wrong_durations = replace(chain2.durations, measure=1000.0)
        wrong, _ = apply_ca_ec(circ, chain2, durations=wrong_durations)
        want = run(Task(circ, observables={"z": "ZI"}), chain2.ideal(), options=ideal)[0]
        got_right = run(Task(right, observables={"z": "ZI"}), chain2, options=coh)[0]
        got_wrong = run(Task(wrong, observables={"z": "ZI"}), chain2, options=coh)[0]
        assert got_right["z"] == pytest.approx(want["z"], abs=1e-7)
        assert abs(got_wrong["z"] - want["z"]) > 0.01
