"""Context-aware error compensation tests (Algorithm 2)."""


import pytest

from conftest import keep_only
from repro.circuits import Circuit
from repro.compiler.ca_ec import apply_ca_ec
from repro.device import linear_chain, synthetic_device
from repro.pauli import apply_twirl
from repro.runtime import Task, run
from repro.sim import SimOptions


ONE_SHOT = SimOptions(shots=1, seed=0)


def coherent_run(circ, device, observables):
    """One exact shot of ``circ`` under ``device``'s static coherent errors alone."""
    device = keep_only(device, "coherent")
    return run(Task(circ, observables=observables), device, options=ONE_SHOT)[0]


def ideal_run(circ, device, observables):
    """One exact shot of ``circ`` on the noise-free copy of ``device``."""
    return run(Task(circ, observables=observables), device.ideal(), options=ONE_SHOT)[0]


def assert_restores_ideal(circ, device, observables, atol=1e-7):
    compensated, report = apply_ca_ec(circ, device)
    want = ideal_run(circ, device, observables)
    got = coherent_run(compensated, device, observables)
    for key in observables:
        assert got[key] == pytest.approx(want[key], abs=atol), key
    return report


class TestExactCancellation:
    def test_idle_pair(self, chain2):
        circ = Circuit(2)
        circ.h(0)
        circ.h(1)
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.h(0, new_moment=True)
        circ.h(1)
        report = assert_restores_ideal(circ, chain2, {"z0": "IZ", "z1": "ZI"})
        assert report.z_compensations > 0
        assert report.zz_explicit + report.zz_absorbed > 0

    def test_absorption_into_canonical(self, chain4):
        circ = Circuit(4)
        for q in range(4):
            circ.h(q, new_moment=(q == 0))
        circ.can(0.3, 0.2, 0.4, 0, 1, new_moment=True)
        circ.append_moment([])
        circ.can(0.1, 0.5, 0.2, 2, 3, new_moment=True)
        circ.append_moment([])
        report = assert_restores_ideal(circ, chain4, {"x2": "IXII", "x0": "IIIX"})
        assert report.zz_absorbed >= 2

    def test_absorption_into_rzz(self, chain2):
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
        want = ideal_run(circ, chain2, {"x": "IX"})
        got = coherent_run(compensated, chain2, {"x": "IX"})
        assert got["x"] == pytest.approx(want["x"], abs=1e-7)

    def test_spectator_z_compensated(self, chain3):
        circ = Circuit(3)
        circ.h(0)
        for _ in range(3):
            circ.ecr(1, 2, new_moment=True)
            circ.append_moment([])
        circ.h(0, new_moment=True)
        assert_restores_ideal(circ, chain3, {"z": "IIZ"})


class TestTwirlCrossing:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_through_twirl(self, chain4, seed):
        circ = Circuit(4)
        for q in range(4):
            circ.h(q, new_moment=(q == 0))
        circ.can(0.3, 0.2, 0.4, 0, 1, new_moment=True)
        circ.append_moment([])
        circ.can(0.1, 0.5, 0.2, 2, 3, new_moment=True)
        circ.append_moment([])
        twirled, _record = apply_twirl(circ, seed=seed)
        compensated, _report = apply_ca_ec(twirled, chain4)
        want = ideal_run(circ, chain4, {"x2": "IXII"})
        got = coherent_run(compensated, chain4, {"x2": "IXII"})
        assert got["x2"] == pytest.approx(want["x2"], abs=1e-7)

    def test_sign_flip_through_anticommuting_pauli(self, chain2):
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
        want = ideal_run(circ, chain2, {"x": "IX"})
        got = coherent_run(compensated, chain2, {"x": "IX"})
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

    def test_min_angle_skips_tiny_errors(self, chain2, monkeypatch):
        monkeypatch.setattr("repro.compiler.ca_ec.DEFAULT_MIN_ANGLE", 100.0)
        circ = Circuit(2)
        circ.append_moment([])
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.append_moment([])
        _compensated, report = apply_ca_ec(circ, chain2)
        assert report.z_compensations == 0
        assert report.zz_total == 0

    def test_overlapping_rzz_packed_into_moments(self, chain4):
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
    def test_wrong_timing_belief_miscompensates(self, chain2):
        from dataclasses import replace

        circ = Circuit(2, num_clbits=1)
        circ.h(1)
        circ.measure(0, 0, new_moment=True)
        circ.h(1, new_moment=True)
        right, _ = apply_ca_ec(circ, chain2)
        wrong_durations = replace(chain2.durations, measure=1000.0)
        wrong, _ = apply_ca_ec(circ, chain2, durations=wrong_durations)
        want = ideal_run(circ, chain2, {"z": "ZI"})
        got_right = coherent_run(right, chain2, {"z": "ZI"})
        got_wrong = coherent_run(wrong, chain2, {"z": "ZI"})
        assert got_right["z"] == pytest.approx(want["z"], abs=1e-7)
        assert abs(got_wrong["z"] - want["z"]) > 0.01
