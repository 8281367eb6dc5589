"""Density-matrix simulator tests, including cross-validation against the
trajectory executor."""

import itertools
import math

import numpy as np
import pytest

from conftest import SOURCES, keep_only
from repro.circuits import Circuit, gates as g
from repro.circuits.circuit import _embed
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


def _random_state(seed, n=3):
    """A random full-rank mixed state on ``n`` qubits."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = DensityMatrix(n)
    rho.matrix = a @ a.conj().T / np.trace(a @ a.conj().T)
    return rho


def _random_unitary(seed, k):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / abs(np.diag(r)))


def _pauli_on(n, qubits, labels):
    chars = ["I"] * n
    for q, ch in zip(qubits, labels):
        chars[n - 1 - q] = ch
    return Pauli.from_label("".join(chars)).matrix()


def _kraus(rho, operators, qubits):
    """Textbook ``sum_k E_k rho E_k^dagger`` with dense embedded operators."""
    full = [_embed(np.asarray(k, dtype=complex), tuple(qubits), 3) for k in operators]
    return sum(e @ rho @ e.conj().T for e in full)


def _close(got, want):
    assert np.max(np.abs(got - want)) < 1e-13


class TestClosedFormsMatchDenseOracles:
    """Each block kernel against its dense textbook form on random mixed
    3-qubit states, on every qubit position and in both qubit orders."""

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_dephasing(self, qubit):
        rho = _random_state(1)
        p = 0.3
        want = _kraus(
            rho.matrix,
            [math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * g.PAULI_MATRICES["Z"]],
            [qubit],
        )
        rho.apply_dephasing(qubit, p)
        _close(rho.matrix, want)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    @pytest.mark.parametrize("gamma", [0.35, 1.0])
    def test_amplitude_damping(self, qubit, gamma):
        rho = _random_state(2)
        k0 = [[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]]
        k1 = [[0.0, math.sqrt(gamma)], [0.0, 0.0]]
        want = _kraus(rho.matrix, [k0, k1], [qubit])
        rho.apply_amplitude_damping(qubit, gamma)
        _close(rho.matrix, want)

    @pytest.mark.parametrize(
        "qubits", [(0,), (1,), (2,), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    )
    def test_depolarizing(self, qubits):
        """The 3- or 15-term Pauli sum, each Pauli from ``Pauli.matrix()``."""
        rho = _random_state(3)
        p = 0.2
        errors = [
            _pauli_on(3, qubits, labels)
            for labels in itertools.product("IXYZ", repeat=len(qubits))
            if set(labels) != {"I"}
        ]
        mixed = sum(e @ rho.matrix @ e.conj().T for e in errors)
        want = (1 - p) * rho.matrix + (p / len(errors)) * mixed
        rho.apply_depolarizing(list(qubits), p)
        _close(rho.matrix, want)

    @pytest.mark.parametrize(
        "qubits", [(0,), (1,), (2,), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    )
    def test_unitary(self, qubits):
        rho = _random_state(4)
        u = _random_unitary(5, len(qubits))
        want = _kraus(rho.matrix, [u], qubits)
        rho.apply_unitary(u, list(qubits))
        _close(rho.matrix, want)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_coherence_factor(self, qubit):
        rho = _random_state(6)
        f = -0.4
        z = _embed(g.PAULI_MATRICES["Z"], (qubit,), 3)
        want = (1 + f) / 2 * rho.matrix + (1 - f) / 2 * (z @ rho.matrix @ z)
        rho.apply_coherence_factor(qubit, f)
        _close(rho.matrix, want)

    @pytest.mark.parametrize("label", ["ZII", "IXI", "IIY", "XYZ", "YZX", "III"])
    @pytest.mark.parametrize("phase", [0, 1, 2])
    def test_expectation_pauli(self, label, phase):
        rho = _random_state(7)
        pauli = Pauli.from_label(label, phase)
        want = np.trace(pauli.matrix() @ rho.matrix).real
        assert abs(rho.expectation_pauli(pauli) - want) < 1e-13

    def test_purity(self):
        rho = _random_state(8)
        want = np.trace(rho.matrix @ rho.matrix).real
        assert abs(rho.purity - want) < 1e-13
        assert rho.purity < 1.0

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_blocks_write_into_any_layout(self, layout):
        """``_blocks`` is a view even of a non-contiguous ``matrix``, so a
        channel written through it lands in ``matrix`` and not in a copy."""
        contiguous = _random_state(9)
        rho = contiguous.copy()
        if layout == "fortran":
            rho.matrix = np.asfortranarray(rho.matrix)
        else:
            padded = np.zeros((16, 16), dtype=complex)
            padded[::2, ::2] = rho.matrix
            rho.matrix = padded[::2, ::2]
        assert not rho.matrix.flags.c_contiguous
        for qubit in range(3):
            assert np.shares_memory(rho._blocks(qubit), rho.matrix)
            rho.apply_amplitude_damping(qubit, 0.3)
            contiguous.apply_amplitude_damping(qubit, 0.3)
        _close(rho.matrix, contiguous.matrix)


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
        device = keep_only(device, "coherent")
        opts = SimOptions(shots=1, seed=0)
        obs = {"z0": "IIZ", "x1": "IXI"}
        task = Task(circ, observables=obs)
        traj = run(task, device, options=opts)[0]
        dens = run(task, device, backend="density", options=opts)[0]
        for key in obs:
            assert dens[key] == pytest.approx(traj[key], abs=1e-10)

    def test_dephasing_channel_agreement(self, device):
        device = keep_only(device, "coherent", "dephasing").with_params(t2=3000.0)
        circ = Circuit(3)
        circ.h(0)
        circ.delay(3000.0, 0, new_moment=True)
        task = Task(circ, observables={"x": "IIX"})
        dens = run(task, device, backend="density", options=SimOptions(shots=1))[0]
        traj = run(task, device, options=SimOptions(shots=3000, seed=5))[0]
        assert traj["x"] == pytest.approx(dens["x"], abs=0.05)

    def test_gate_error_channel_agreement(self, device):
        circ = Circuit(3)
        circ.h(0)
        for _ in range(10):
            circ.ecr(0, 1, new_moment=True)
        device = keep_only(device, "gate_errors")
        task = Task(circ, observables={"x": "IIX"})
        dens = run(task, device, backend="density", options=SimOptions(shots=1))[0]
        traj = run(task, device, options=SimOptions(shots=4000, seed=6))[0]
        assert traj["x"] == pytest.approx(dens["x"], abs=0.05)

    def test_quasistatic_single_window_agreement(self, device):
        """One idle window: the Gaussian average is exact for both."""
        device = keep_only(device, "coherent", "stochastic").with_params(
            quasistatic_sigma=2e-5, parity_delta=0.0
        )
        circ = Circuit(3)
        circ.h(0)
        circ.delay(5000.0, 0, new_moment=True)
        task = Task(circ, observables={"x": "IIX"})
        dens = run(task, device, backend="density", options=SimOptions(shots=1))[0]
        traj = run(task, device, options=SimOptions(shots=4000, seed=7))[0]
        assert traj["x"] == pytest.approx(dens["x"], abs=0.05)

    def test_dynamic_circuit_branching(self, device):
        """Feedforward probabilities agree between branch-exact and sampled."""
        circ = Circuit(3, num_clbits=1)
        circ.h(0)
        circ.cx(0, 1, new_moment=True)
        circ.measure(1, 0, new_moment=True)
        circ.x(2, condition=(0, 1), new_moment=True)
        device = device.ideal()
        task = Task(circ, bit_targets={"p": {0: 1, 2: 1}})
        dens = run(task, device, backend="density", options=SimOptions(shots=1))[0]
        traj = run(task, device, options=SimOptions(shots=600, seed=8))[0]
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
        obs = {"x0": "IIX", "x1": "IXI"}
        ideal, fixed = run(
            [
                Task(circ, observables=obs, device=device.ideal()),
                Task(compensated, observables=obs),
            ],
            keep_only(device, "coherent"),
            backend="density",
            options=SimOptions(shots=1, seed=0),
        )
        for key in obs:
            assert fixed[key] == pytest.approx(ideal[key], abs=1e-9)


def _per_moment_run(eng):
    """The density engine's noise loop as it was before it read the shared
    noise plan: each idle's ``p_z``/``gamma``, each qubit's slow-noise
    scales and each gate's depolarizing error re-derived from the device,
    and the static coherent phases
    re-accumulated per branch and moment. Kept as the reference the plan-
    driven loop must match bit for bit."""
    from repro.sim.coherent import accumulate_coherent
    from repro.sim.density import _Branch
    from repro.sim.sampling import _dephasing_prob

    device, n = eng.device, eng.scheduled.num_qubits
    branches = [
        _Branch(1.0, DensityMatrix(n), (0,) * eng.scheduled.circuit.num_clbits)
    ]
    for sm, timeline in zip(eng.scheduled, eng._timelines):
        moment = sm.moment
        for inst in moment:
            if not inst.gate.is_measurement:
                continue
            new_branches = []
            for branch in branches:
                for prob, state, outcome in branch.state.measure_branches(
                    inst.qubits[0]
                ):
                    clbits = list(branch.clbits)
                    clbits[inst.clbits[0]] = outcome
                    new_branches.append(
                        _Branch(branch.weight * prob, state, tuple(clbits))
                    )
            branches = new_branches
        for branch in branches:
            state = branch.state
            state.apply_phases(accumulate_coherent(timeline, device))
            if sm.duration > 0.0:
                for q in range(n):
                    f = timeline.sign_integral(q)
                    if f == 0.0:
                        continue
                    params = device.qubit(q)
                    factor = 1.0
                    if params.quasistatic_sigma > 0.0:
                        phase_sigma = (
                            2 * math.pi * params.quasistatic_sigma * sm.duration * abs(f)
                        )
                        factor *= math.exp(-0.5 * phase_sigma**2)
                    if params.parity_delta > 0.0:
                        factor *= math.cos(
                            2 * math.pi * params.parity_delta * sm.duration * f
                        )
                    state.apply_coherence_factor(q, factor)
            if sm.duration > 0.0:
                for q in range(n):
                    params = device.qubit(q)
                    state.apply_dephasing(
                        q, _dephasing_prob(params.t2, params.t1, sm.duration)
                    )
                    if math.isfinite(params.t1):
                        state.apply_amplitude_damping(
                            q, 1.0 - math.exp(-sm.duration / params.t1)
                        )
            for inst in moment:
                gate = inst.gate
                if gate.is_measurement or gate.is_delay:
                    continue
                if inst.condition is not None:
                    clbit, value = inst.condition
                    if branch.clbits[clbit] != value:
                        continue
                if gate.matrix is not None:
                    state.apply_unitary(gate.matrix, inst.qubits)
            for inst in moment:
                gate = inst.gate
                if gate.is_measurement or gate.is_delay:
                    continue
                if gate.num_qubits == 2:
                    p2 = device.pair_error(*inst.qubits) * gate.error_scale
                    state.apply_depolarizing(inst.qubits, p2)
                elif gate.name == "dd":
                    p1 = device.qubit(inst.qubits[0]).p1
                    for _ in gate.dd_fractions:
                        state.apply_depolarizing(inst.qubits, p1)
                elif gate.name not in g.VIRTUAL_GATES:
                    p1 = device.qubit(inst.qubits[0]).p1
                    state.apply_depolarizing(inst.qubits, p1)
    return branches


class TestNoisePlanDriven:
    """The density engine applies the trajectory engines' noise plan."""

    @pytest.fixture
    def device(self):
        return synthetic_device(linear_chain(3), seed=88)

    def _circuit(self):
        circ = Circuit(3, num_clbits=1)
        circ.h(0)
        circ.append(g.SX, [2])
        circ.can(0.3, 0.2, 0.4, 0, 1, new_moment=True)
        circ.append(g.dd_sequence((0.25, 0.75), duration=600.0), [2])
        circ.s(2, new_moment=True)
        circ.rz(0.7, 1)
        circ.measure(1, 0, new_moment=True)
        circ.delay(500.0, 0)
        circ.x(2, condition=(0, 1), new_moment=True)
        circ.ecr(0, 1)
        circ.delay(400.0, 0, new_moment=True)
        circ.delay(400.0, 2)
        return circ

    def test_byte_identical_to_per_moment_derivation(self, device):
        from repro.circuits.schedule import schedule
        from repro.sim import DensityExecutor

        options = SimOptions(shots=1)
        engine = DensityExecutor(
            schedule(self._circuit(), device.durations), device, options
        )
        plan = engine._plan
        assert any(site.repeats == 2 for m in plan.moments for site in m.gate_errors)
        assert any(m.measured for m in plan.moments)
        got = engine.run()
        want = _per_moment_run(engine)
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert a.weight == b.weight
            assert a.clbits == b.clbits
            assert a.state.matrix.tobytes() == b.state.matrix.tobytes()


class TestReadsEveryOption:
    """Every noise source of the device reaches the density engine: switching
    one off on the device (its ``SOURCES`` values) changes the value."""

    @staticmethod
    def _p00(device):
        circ = Circuit(2)
        circ.h(0)
        circ.h(1)
        circ.delay(3000.0, 0, new_moment=True)
        circ.delay(3000.0, 1)
        circ.ecr(0, 1, new_moment=True)
        circ.h(0, new_moment=True)
        circ.h(1)
        task = Task(circ, bit_targets={"p00": {0: 0, 1: 0}})
        return run(task, device, backend="density", options=SimOptions(shots=1))[0]["p00"]

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_flipping_a_toggle_changes_the_value(self, name):
        device = synthetic_device(linear_chain(2), seed=88)
        if name == "amplitude_damping":
            # T1 also sets the dephasing rate; without T2 it sets only damping.
            device = device.with_params(t2=math.inf)
        assert self._p00(device.with_params(**SOURCES[name])) != self._p00(device)
