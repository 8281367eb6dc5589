"""Executor tests: trajectory noise channels, expectations, dynamics."""

import math
from dataclasses import replace

import pytest

from conftest import keep_only
from repro.circuits import Circuit, gates as g
from repro.device import linear_chain, synthetic_device
from repro.runtime import Pass, Pipeline, Task, run
from repro.sim import SimOptions


class TestIdealExecution:
    def test_bell_state(self, ideal2, one_shot):
        circ = Circuit(2)
        circ.h(0)
        circ.cx(0, 1)
        task = Task(circ, observables={"xx": "XX", "zz": "ZZ"})
        res = run(task, ideal2, options=one_shot)[0]
        assert res["xx"] == pytest.approx(1.0)
        assert res["zz"] == pytest.approx(1.0)

    def test_qubit_count_mismatch_raises(self, chain3, one_shot):
        circ = Circuit(2)
        with pytest.raises(ValueError):
            run(Task(circ, observables={"z": "IZ"}), chain3.ideal(), options=one_shot)

    def test_conditional_feedforward(self, ideal2, one_shot):
        """X conditioned on a measured |1> flips the target; on |0> doesn't."""
        for prep, expected in ((False, 1.0), (True, -1.0)):
            circ = Circuit(2, num_clbits=1)
            if prep:
                circ.x(0)
            circ.measure(0, 0)
            circ.x(1, condition=(0, 1))
            res = run(Task(circ, observables={"z1": "ZI"}), ideal2, options=one_shot)[0]
            assert res["z1"] == pytest.approx(expected)

    def test_mid_circuit_collapse(self, ideal2):
        circ = Circuit(2, num_clbits=1)
        circ.h(0)
        circ.cx(0, 1)
        circ.measure(0, 0)
        # After measuring one Bell qubit, ZZ stays 1 but XX collapses.
        opts = SimOptions(shots=64, seed=3)
        res = run(Task(circ, observables={"zz": "ZZ", "xx": "XX"}), ideal2, options=opts)[0]
        assert res["zz"] == pytest.approx(1.0)
        assert abs(res["xx"]) < 0.35


class TestStochasticChannels:
    def test_dephasing_damps_x(self):
        dev = synthetic_device(linear_chain(1), seed=5).ideal().with_params(t2=2000.0)
        circ = Circuit(1)
        circ.h(0)
        circ.delay(2000.0, 0, new_moment=True)
        opts = SimOptions(shots=400, seed=11)
        res = run(Task(circ, observables={"x": "X"}), dev, options=opts)[0]
        # One T2 of pure dephasing: <X> ~ exp(-1) ~ 0.37.
        assert 0.2 < res["x"] < 0.55

    def test_amplitude_damping_decays_one(self):
        dev = synthetic_device(linear_chain(1), seed=5).ideal().with_params(t1=1000.0)
        circ = Circuit(1)
        circ.x(0)
        circ.delay(1000.0, 0, new_moment=True)
        opts = SimOptions(shots=400, seed=12)
        res = run(Task(circ, observables={"z": "Z"}), dev, options=opts)[0]
        # <Z> = P0 - P1 = 1 - 2 exp(-t/T1) ~ +0.26 at t = T1.
        assert 0.05 < res["z"] < 0.5

    def test_gate_errors_damp_repeated_gates(self, chain2):
        circ = Circuit(2)
        circ.h(0)
        for _ in range(30):
            circ.ecr(0, 1, new_moment=True)
        opts = SimOptions(shots=200, seed=13)
        device = keep_only(chain2, "gate_errors")
        res = run(Task(circ, observables={"x": "IX"}), device, options=opts)[0]
        assert abs(res["x"]) < 0.9  # 30 ECRs at ~1% error visibly damp

    def test_quasistatic_detuning_dephases_only_with_stochastic(self, chain2):
        circ = Circuit(2)
        circ.h(0)
        circ.delay(20000.0, 0, new_moment=True)
        task = Task(circ, observables={"x": "IX"})
        coherent_only = run(
            task, keep_only(chain2, "coherent"), options=SimOptions(shots=1, seed=1)
        )[0]
        with_noise = run(
            task,
            keep_only(chain2, "coherent", "stochastic"),
            options=SimOptions(shots=300, seed=1),
        )[0]
        assert abs(with_noise["x"]) < abs(coherent_only["x"]) + 0.05


class TestDetunings:
    """A sampled detuning adds ``2 pi * rate * T * sign_integral`` of Z phase
    in the engines' coherent step, and DD refocuses it. A parity-only device
    gives every shot a rate of ``+-delta``, so each shot's ``<X>`` is exactly
    ``cos(2 pi delta T)``; single-qubit layers take no time, so the window is
    the only timed moment."""

    DELTA = 1e-4  # GHz
    WINDOW = 500.0  # ns

    def _device(self):
        device = keep_only(synthetic_device(linear_chain(2), seed=77), "stochastic")
        device = device.with_params(quasistatic_sigma=0.0, parity_delta=self.DELTA)
        return replace(device, durations=replace(device.durations, oneq=0.0))

    def _run(self, window_gate):
        circ = Circuit(2)
        circ.h(0)
        circ.append(window_gate, [0], new_moment=True)
        task = Task(circ, observables={"x": "IX", "y": "IY"})
        return run(task, self._device(), options=SimOptions(shots=16, seed=3))[0]

    def test_detuning_adds_z(self):
        res = self._run(g.delay(self.WINDOW))
        assert res["x"] == pytest.approx(math.cos(2 * math.pi * self.DELTA * self.WINDOW))
        assert res.errors["x"] < 1e-12
        assert res.errors["y"] > 0.01  # the sign of the phase varies by shot

    def test_dd_refocuses_detuning(self):
        res = self._run(g.dd_sequence((0.25, 0.75), duration=self.WINDOW))
        assert res["x"] == pytest.approx(1.0, abs=1e-12)
        assert res.errors["y"] < 1e-12


class TestAggregation:
    def test_errors_reported(self, chain2, noisy_options):
        circ = Circuit(2)
        circ.h(0)
        circ.delay(5000.0, 0, new_moment=True)
        res = run(Task(circ, observables={"x": "IX"}), chain2, options=noisy_options)[0]
        assert res.errors["x"] >= 0.0
        assert res.shots == noisy_options.shots

    def test_average_over_realizations(self, coherent2, one_shot):
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
        res = run(task, coherent2, options=one_shot)[0]
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
            opts = SimOptions(shots=300, seed=21)
            device = keep_only(chain2, "gate_errors")
            return run(Task(circ, observables={"x": "IX"}), device, options=opts)[0]["x"]

        small = polarization(g.stretched_rzz(0.05))
        full = polarization(g.rzz(0.05))  # plain gate: full 2q error
        # Identical logical rotation; the stretched pulse loses far less
        # polarization to depolarizing noise.
        assert abs(small) > abs(full) + 0.1
