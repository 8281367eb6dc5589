"""Executor tests: trajectory noise channels, expectations, dynamics."""

import math

import pytest

from repro.circuits import Circuit, gates as g
from repro.device import linear_chain, synthetic_device
from repro.runtime import Pass, Pipeline, Task, run
from repro.sim import SimOptions


class TestIdealExecution:
    def test_bell_state(self, chain2, ideal_options):
        circ = Circuit(2)
        circ.h(0)
        circ.cx(0, 1)
        task = Task(circ, observables={"xx": "XX", "zz": "ZZ"})
        res = run(task, chain2, options=ideal_options)[0]
        assert res["xx"] == pytest.approx(1.0)
        assert res["zz"] == pytest.approx(1.0)

    def test_qubit_count_mismatch_raises(self, chain3, ideal_options):
        circ = Circuit(2)
        with pytest.raises(ValueError):
            run(Task(circ, observables={"z": "IZ"}), chain3, options=ideal_options)

    def test_conditional_feedforward(self, chain2, ideal_options):
        """X conditioned on a measured |1> flips the target; on |0> doesn't."""
        for prep, expected in ((False, 1.0), (True, -1.0)):
            circ = Circuit(2, num_clbits=1)
            if prep:
                circ.x(0)
            circ.measure(0, 0)
            circ.x(1, condition=(0, 1))
            res = run(Task(circ, observables={"z1": "ZI"}), chain2, options=ideal_options)[0]
            assert res["z1"] == pytest.approx(expected)

    def test_mid_circuit_collapse(self, chain2, ideal_options):
        circ = Circuit(2, num_clbits=1)
        circ.h(0)
        circ.cx(0, 1)
        circ.measure(0, 0)
        # After measuring one Bell qubit, ZZ stays 1 but XX collapses.
        opts = SimOptions(
            shots=64, seed=3, coherent=False, stochastic=False,
            dephasing=False, amplitude_damping=False, gate_errors=False,
        )
        res = run(Task(circ, observables={"zz": "ZZ", "xx": "XX"}), chain2, options=opts)[0]
        assert res["zz"] == pytest.approx(1.0)
        assert abs(res["xx"]) < 0.35


class TestStochasticChannels:
    def test_dephasing_damps_x(self):
        dev = synthetic_device(linear_chain(1), seed=5)
        from dataclasses import replace

        qubit = replace(dev.qubits[0], t2=2000.0, t1=float("inf"))
        dev = replace(dev, qubits=[qubit])
        circ = Circuit(1)
        circ.h(0)
        circ.delay(2000.0, 0, new_moment=True)
        opts = SimOptions(
            shots=400, seed=11, coherent=False, stochastic=False,
            amplitude_damping=False, gate_errors=False,
        )
        res = run(Task(circ, observables={"x": "X"}), dev, options=opts)[0]
        # One T2 of pure dephasing: <X> ~ exp(-1) ~ 0.37.
        assert 0.2 < res["x"] < 0.55

    def test_amplitude_damping_decays_one(self):
        dev = synthetic_device(linear_chain(1), seed=5)
        from dataclasses import replace

        qubit = replace(dev.qubits[0], t1=1000.0, t2=float("inf"))
        dev = replace(dev, qubits=[qubit])
        circ = Circuit(1)
        circ.x(0)
        circ.delay(1000.0, 0, new_moment=True)
        opts = SimOptions(
            shots=400, seed=12, coherent=False, stochastic=False,
            dephasing=False, gate_errors=False,
        )
        res = run(Task(circ, observables={"z": "Z"}), dev, options=opts)[0]
        # <Z> = P0 - P1 = 1 - 2 exp(-t/T1) ~ +0.26 at t = T1.
        assert 0.05 < res["z"] < 0.5

    def test_gate_errors_damp_repeated_gates(self, chain2):
        circ = Circuit(2)
        circ.h(0)
        for _ in range(30):
            circ.ecr(0, 1, new_moment=True)
        opts = SimOptions(
            shots=200, seed=13, coherent=False, stochastic=False,
            dephasing=False, amplitude_damping=False,
        )
        res = run(Task(circ, observables={"x": "IX"}), chain2, options=opts)[0]
        assert abs(res["x"]) < 0.9  # 30 ECRs at ~1% error visibly damp

    def test_quasistatic_detuning_dephases_only_with_stochastic(self, chain2):
        circ = Circuit(2)
        circ.h(0)
        circ.delay(20000.0, 0, new_moment=True)
        base = dict(
            dephasing=False, amplitude_damping=False, gate_errors=False,
        )
        task = Task(circ, observables={"x": "IX"})
        coherent_only = run(
            task, chain2, options=SimOptions(shots=1, stochastic=False, seed=1, **base)
        )[0]
        with_noise = run(
            task, chain2, options=SimOptions(shots=300, stochastic=True, seed=1, **base)
        )[0]
        assert abs(with_noise["x"]) < abs(coherent_only["x"]) + 0.05


class TestAggregation:
    def test_errors_reported(self, chain2, noisy_options):
        circ = Circuit(2)
        circ.h(0)
        circ.delay(5000.0, 0, new_moment=True)
        res = run(Task(circ, observables={"x": "IX"}), chain2, options=noisy_options)[0]
        assert res.errors["x"] >= 0.0
        assert res.shots == noisy_options.shots

    def test_average_over_realizations(self, chain2, coherent_options):
        circ = Circuit(2)
        circ.h(0)

        class FramePair(Pass):
            """Trivially randomized realization: a virtual frame pair."""

            name = "frame_pair"
            stochastic = True

            def run(self, circuit, device, rng):
                out = circuit.copy()
                angle = float(rng.uniform(0, 2 * math.pi))
                out.rz(angle, 1, new_moment=True)
                out.rz(-angle, 1)
                return out

        task = Task(
            circ,
            observables={"x": "IX"},
            pipeline=Pipeline([FramePair()]),
            realizations=5,
            seed=4,
        )
        res = run(task, chain2, options=coherent_options)[0]
        assert res["x"] == pytest.approx(1.0, abs=1e-9)

    def test_seed_reproducibility(self, chain2):
        circ = Circuit(2)
        circ.h(0)
        circ.delay(3000.0, 0, new_moment=True)
        opts = SimOptions(shots=50, seed=99)
        task = Task(circ, observables={"x": "IX"})
        a = run(task, chain2, options=opts)[0]
        b = run(task, chain2, options=opts)[0]
        assert a["x"] == b["x"]


class TestErrorScale:
    def test_stretched_rzz_cheaper_than_full(self, chain2):
        def polarization(gate):
            circ = Circuit(2)
            circ.h(0)
            for _ in range(60):
                circ.append(gate, [0, 1], new_moment=True)
            opts = SimOptions(
                shots=300, seed=21, coherent=False, stochastic=False,
                dephasing=False, amplitude_damping=False,
            )
            return run(Task(circ, observables={"x": "IX"}), chain2, options=opts)[0]["x"]

        small = polarization(g.stretched_rzz(0.05))
        full = polarization(g.rzz(0.05))  # plain gate: full 2q error
        # Identical logical rotation; the stretched pulse loses far less
        # polarization to depolarizing noise.
        assert abs(small) > abs(full) + 0.1
