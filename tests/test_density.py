"""Density-matrix simulator tests, including cross-validation against the
trajectory executor."""


import numpy as np
import pytest

from repro.circuits import Circuit, gates as g
from repro.device import linear_chain, synthetic_device
from repro.pauli import Pauli
from repro.runtime import Task, run
from repro.sim import DensityMatrix, SimOptions
from repro.sim.coherent import CoherentAccumulation


class TestDensityMatrix:
    def test_initial_state(self):
        rho = DensityMatrix(2)
        assert rho.matrix[0, 0] == 1.0
        assert rho.trace == pytest.approx(1.0)
        assert rho.purity == pytest.approx(1.0)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            DensityMatrix(11)

    def test_unitary_preserves_purity(self):
        rho = DensityMatrix(2)
        rho.apply_unitary(g.H_MAT, [0])
        rho.apply_unitary(g.CX_MAT, [0, 1])
        assert rho.purity == pytest.approx(1.0)
        assert rho.expectation_pauli(Pauli.from_label("XX")) == pytest.approx(1.0)

    def test_phases_match_unitary(self):
        theta = 0.8
        a = DensityMatrix(2)
        a.apply_unitary(g.H_MAT, [0])
        b = a.copy()
        a.apply_phases(CoherentAccumulation(z={0: theta}))
        b.apply_unitary(g.rz_matrix(theta), [0])
        assert np.allclose(a.matrix, b.matrix)

    def test_dephasing_kills_coherence(self):
        rho = DensityMatrix(1)
        rho.apply_unitary(g.H_MAT, [0])
        rho.apply_dephasing(0, 0.5)  # fully dephasing at p = 1/2
        assert rho.expectation_pauli(Pauli.from_label("X")) == pytest.approx(0.0)
        assert rho.trace == pytest.approx(1.0)

    def test_amplitude_damping_exact(self):
        rho = DensityMatrix(1)
        rho.apply_unitary(g.X_MAT, [0])
        gamma = 0.4
        rho.apply_amplitude_damping(0, gamma)
        # <Z> = 1 - 2(1 - gamma).
        assert rho.expectation_pauli(Pauli.from_label("Z")) == pytest.approx(
            1 - 2 * (1 - gamma)
        )

    def test_depolarizing_shrinks_polarization(self):
        rho = DensityMatrix(1)
        rho.apply_unitary(g.H_MAT, [0])
        rho.apply_depolarizing([0], 0.3)
        # with prob p, uniform X/Y/Z: <X> -> (1-p) + p*(1-2*2/3)... compute:
        # X keeps +1, Y and Z flip sign: (1-p) + p(1 - 2*2/3) = 1 - 4p/3.
        assert rho.expectation_pauli(Pauli.from_label("X")) == pytest.approx(
            1 - 4 * 0.3 / 3
        )

    def test_coherence_factor(self):
        rho = DensityMatrix(1)
        rho.apply_unitary(g.H_MAT, [0])
        rho.apply_coherence_factor(0, 0.5)
        assert rho.expectation_pauli(Pauli.from_label("X")) == pytest.approx(0.5)

    def test_measure_branches(self):
        rho = DensityMatrix(2)
        rho.apply_unitary(g.H_MAT, [0])
        rho.apply_unitary(g.CX_MAT, [0, 1])
        branches = rho.measure_branches(0)
        assert len(branches) == 2
        for prob, state, outcome in branches:
            assert prob == pytest.approx(0.5)
            # Bell state: collapse is perfectly correlated.
            assert state.probability_of_bitstring({1: outcome}) == pytest.approx(1.0)


class TestCrossValidation:
    """The trajectory executor must converge to the exact density result."""

    @pytest.fixture
    def device(self):
        return synthetic_device(linear_chain(3), seed=88)

    def test_coherent_only_exact_agreement(self, device):
        circ = Circuit(3)
        circ.h(0)
        circ.h(1)
        circ.delay(800.0, 0, new_moment=True)
        circ.delay(800.0, 1)
        circ.h(0, new_moment=True)
        opts = SimOptions(
            shots=1, stochastic=False, dephasing=False,
            amplitude_damping=False, gate_errors=False, seed=0,
        )
        obs = {"z0": "IIZ", "x1": "IXI"}
        task = Task(circ, observables=obs)
        traj = run(task, device, options=opts)[0]
        dens = run(task, device, backend="density", options=opts)[0]
        for key in obs:
            assert dens[key] == pytest.approx(traj[key], abs=1e-10)

    def test_dephasing_channel_agreement(self, device):
        from dataclasses import replace

        qubits = [replace(q, t2=3000.0, t1=float("inf")) for q in device.qubits]
        device = replace(device, qubits=qubits)
        circ = Circuit(3)
        circ.h(0)
        circ.delay(3000.0, 0, new_moment=True)
        base = dict(
            stochastic=False, amplitude_damping=False, gate_errors=False,
        )
        task = Task(circ, observables={"x": "IIX"})
        dens = run(task, device, backend="density", options=SimOptions(shots=1, **base))[0]
        traj = run(task, device, options=SimOptions(shots=3000, seed=5, **base))[0]
        assert traj["x"] == pytest.approx(dens["x"], abs=0.05)

    def test_gate_error_channel_agreement(self, device):
        circ = Circuit(3)
        circ.h(0)
        for _ in range(10):
            circ.ecr(0, 1, new_moment=True)
        base = dict(
            coherent=False, stochastic=False, dephasing=False,
            amplitude_damping=False,
        )
        task = Task(circ, observables={"x": "IIX"})
        dens = run(task, device, backend="density", options=SimOptions(shots=1, **base))[0]
        traj = run(task, device, options=SimOptions(shots=4000, seed=6, **base))[0]
        assert traj["x"] == pytest.approx(dens["x"], abs=0.05)

    def test_quasistatic_single_window_agreement(self, device):
        """One idle window: the Gaussian average is exact for both."""
        from dataclasses import replace

        qubits = [
            replace(
                q, quasistatic_sigma=2e-5, parity_delta=0.0,
                t1=float("inf"), t2=float("inf"),
            )
            for q in device.qubits
        ]
        device = replace(device, qubits=qubits)
        circ = Circuit(3)
        circ.h(0)
        circ.delay(5000.0, 0, new_moment=True)
        base = dict(dephasing=False, amplitude_damping=False, gate_errors=False)
        task = Task(circ, observables={"x": "IIX"})
        dens = run(task, device, backend="density", options=SimOptions(shots=1, **base))[0]
        traj = run(task, device, options=SimOptions(shots=4000, seed=7, **base))[0]
        assert traj["x"] == pytest.approx(dens["x"], abs=0.05)

    def test_dynamic_circuit_branching(self, device):
        """Feedforward probabilities agree between branch-exact and sampled."""
        circ = Circuit(3, num_clbits=1)
        circ.h(0)
        circ.cx(0, 1, new_moment=True)
        circ.measure(1, 0, new_moment=True)
        circ.x(2, condition=(0, 1), new_moment=True)
        base = dict(
            coherent=False, stochastic=False, dephasing=False,
            amplitude_damping=False, gate_errors=False,
        )
        task = Task(circ, bit_targets={"p": {0: 1, 2: 1}})
        dens = run(task, device, backend="density", options=SimOptions(shots=1, **base))[0]
        traj = run(task, device, options=SimOptions(shots=600, seed=8, **base))[0]
        assert dens["p"] == pytest.approx(0.5)
        assert traj["p"] == pytest.approx(0.5, abs=0.06)

    def test_ca_ec_exactness_in_density_picture(self, device):
        """CA-EC restores the ideal expectation exactly, channel-level."""
        from repro.compiler import apply_ca_ec

        circ = Circuit(3)
        circ.h(0)
        circ.h(1)
        circ.delay(600.0, 0, new_moment=True)
        circ.delay(600.0, 1)
        circ.append_moment([])
        compensated, _report = apply_ca_ec(circ, device)
        opts = SimOptions(
            shots=1, stochastic=False, dephasing=False,
            amplitude_damping=False, gate_errors=False, seed=0,
        )
        obs = {"x0": "IIX", "x1": "IXI"}
        ideal, fixed = run(
            [
                Task(circ, observables=obs, device=device.ideal()),
                Task(compensated, observables=obs),
            ],
            device,
            backend="density",
            options=opts,
        )
        for key in obs:
            assert fixed[key] == pytest.approx(ideal[key], abs=1e-9)
