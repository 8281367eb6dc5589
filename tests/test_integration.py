"""End-to-end physics assertions tying the whole stack together.

These encode the paper's central claims as testable orderings:

* aligned DD cancels Z but not idle-pair ZZ; staggered DD cancels both;
* gate echoes protect spectators for free (cases II/III);
* adjacent-control ZZ (case IV) is immune to DD but fixed by CA-EC;
* CA-EC is exact on the known static error, and cannot touch slow noise;
* the combined strategy beats its constituents on a mixed workload.
"""

import numpy as np
import pytest

from repro.benchmarking import CASE_I, CASE_IV, ramsey_fidelity
from repro.circuits import Circuit
from repro.device import linear_chain, synthetic_device
from repro.runtime import Task, pipeline_for, run
from repro.sim import SimOptions


@pytest.fixture
def coherent_only():
    return SimOptions(
        shots=1, stochastic=False, dephasing=False, amplitude_damping=False,
        gate_errors=False, seed=0,
    )


class TestCaseOrderings:
    def test_aligned_dd_fails_on_idle_pair(self, chain2, coherent_only):
        """Fig. 3c: at a depth where the ZZ phase is large, aligned DD is no
        better than nothing while staggered DD and CA-EC stay near 1."""
        depth = 12
        f = {
            name: ramsey_fidelity(
                CASE_I, chain2, depth, name, options=coherent_only
            )
            for name in ("none", "dd", "staggered_dd", "ca_ec")
        }
        assert f["staggered_dd"] > 0.98
        assert f["ca_ec"] > 0.98
        assert f["dd"] < 0.9  # ZZ survives aligned pulses

    def test_ec_plus_aligned_dd_equals_staggered(self, chain2):
        """Fig. 3c: EC + simple aligned DD matches the fancy staggered DD."""
        opts = SimOptions(shots=128, seed=9)
        depth = 16
        combo = ramsey_fidelity(
            CASE_I, chain2, depth, "ec+aligned_dd", options=opts
        )
        staggered = ramsey_fidelity(
            CASE_I, chain2, depth, "staggered_dd", options=opts
        )
        assert combo == pytest.approx(staggered, abs=0.06)

    def test_case4_only_ec_helps(self, coherent_only):
        device = synthetic_device(linear_chain(4), seed=55)
        depth = 10
        bare = ramsey_fidelity(
            CASE_IV, device, depth, "none", twirl=True, realizations=8,
            options=SimOptions(
                shots=4, stochastic=False, dephasing=False,
                amplitude_damping=False, gate_errors=False,
            ), seed=3,
        )
        ec = ramsey_fidelity(
            CASE_IV, device, depth, "ca_ec", twirl=True, realizations=8,
            options=SimOptions(
                shots=4, stochastic=False, dephasing=False,
                amplitude_damping=False, gate_errors=False,
            ), seed=3,
        )
        assert ec > bare + 0.02

    def test_gate_echo_protects_spectator_zz_for_free(self, chain3, coherent_only):
        """Cases II/III: without any suppression, the spectator's ZZ with the
        gated neighbor refocuses; the residual is a pure Z drift."""
        circ = Circuit(3)
        circ.h(0)
        for _ in range(6):
            circ.ecr(1, 2, new_moment=True)
            circ.append_moment([])
        circ.append_moment([])
        # A pure Z rotation moves <X> into <Y>; entangling ZZ would shrink
        # the Bloch vector instead. Check the equatorial polarization is
        # preserved (up to the tiny ZZ of the short 1q prep layer).
        task = Task(circ, observables={"y0": "IIY", "x0": "IIX"})
        res = run(task, chain3, options=coherent_only)[0]
        length = np.hypot(res["y0"], res["x0"])
        assert length == pytest.approx(1.0, abs=1e-3)
        assert abs(res["y0"]) > 0.05  # the Z drift itself is visible


class TestStrategyHierarchy:
    def test_mixed_workload_ordering(self, coherent_only):
        """On a circuit with can gates and idle pairs, the suppression
        hierarchy none < ca_dd <= ca_ec holds for static coherent noise."""
        device = synthetic_device(linear_chain(4), seed=5)
        circ = Circuit(4)
        for q in range(4):
            circ.h(q, new_moment=(q == 0))
        for _ in range(2):
            circ.can(0.3, 0.2, 0.4, 0, 1, new_moment=True)
            circ.append_moment([])
            circ.can(0.1, 0.5, 0.2, 2, 3, new_moment=True)
            circ.append_moment([])
        obs = {"x2": "IXII", "x3": "XIII"}
        ideal = run(
            Task(circ, observables=obs),
            device.ideal(),
            options=SimOptions(
                shots=1, coherent=False, stochastic=False, dephasing=False,
                amplitude_damping=False, gate_errors=False, seed=0,
            ),
        )[0]

        def err(strategy):
            task = Task(circ, observables=obs, pipeline=strategy, realizations=24, seed=11)
            res = run(task, device, options=coherent_only)[0]
            return sum(abs(res[k] - ideal[k]) for k in obs)

        e_none = err("none")
        e_cadd = err("ca_dd")
        e_caec = err("ca_ec")
        assert e_cadd < e_none
        assert e_caec < e_none
        assert e_caec < e_cadd + 0.05

    def test_ca_ec_cannot_fix_slow_noise_dd_can(self):
        """Table I row 5 as an ordering on the same circuit."""
        from dataclasses import replace

        from repro.utils.units import KHZ

        device = synthetic_device(linear_chain(2), seed=6)
        qubits = [
            replace(
                q, quasistatic_sigma=20.0 * KHZ, parity_delta=0.0,
                t1=float("inf"), t2=float("inf"), p1=0.0,
            )
            for q in device.qubits
        ]
        device = replace(device, qubits=qubits)
        opts = SimOptions(
            shots=200, dephasing=False, amplitude_damping=False,
            gate_errors=False, seed=12,
        )
        depth = 10
        ec = ramsey_fidelity(CASE_I, device, depth, "ca_ec", options=opts)
        dd = ramsey_fidelity(CASE_I, device, depth, "staggered_dd", options=opts)
        assert dd > ec + 0.05


class TestCompilerCost:
    def test_ca_dd_uses_fewer_pulses_than_max_walsh(self, chain6):
        """Greedy low-color preference keeps pulse counts near minimal."""
        from repro.compiler import apply_ca_dd, dd_pulse_count

        circ = Circuit(6)
        circ.append_moment([])
        for q in range(6):
            circ.delay(500.0, q, new_moment=(q == 0))
        circ.append_moment([])
        dressed, report = apply_ca_dd(circ, chain6)
        # Chain is bipartite: 2 colors suffice -> 2 pulses per qubit.
        assert dd_pulse_count(dressed) == 12

    def test_ec_zero_walltime_overhead(self, chain4):
        from repro.circuits import schedule

        circ = Circuit(4)
        for q in range(4):
            circ.h(q, new_moment=(q == 0))
        circ.can(0.3, 0.2, 0.4, 0, 1, new_moment=True)
        circ.append_moment([])
        # Compare against the twirl-only pipeline with the same seed: EC must
        # add zero wall-clock on top of it (virtual Rz + stretched pulses).
        baseline = pipeline_for("none").compile(circ, chain4, seed=0)
        compiled = pipeline_for("ca_ec").compile(circ, chain4, seed=0)
        before = schedule(baseline, chain4.durations).total_duration
        after = schedule(compiled, chain4.durations).total_duration
        assert after == pytest.approx(before)
