"""Vectorized-backend tests: bit-for-bit parity and sharding invariance.

The load-bearing guarantees:

* ``backend="vectorized"`` reproduces ``backend="trajectory"`` **bit for
  bit** — same seeds, same draws, same floats — for every named strategy,
  for orientation pipelines, for dynamic (measure + conditioned) circuits,
  and for every noise-toggle combination;
* sharding is invisible: any ``workers`` count and chunk size produces
  identical values (the property the scale-out story rests on); chunk
  sizes are forced by shrinking the module's ``_CHUNK_AMPLITUDES`` budget;
* the engine is selected by name through ``run()``/``configure()`` like
  any other backend;
* its two shortcuts, support-reduced phases and the per-moment gate-layout
  chain, give the bits of the full-dimension, one-gate-at-a-time path, and
  the ``np.matmul`` property the chain rests on is pinned directly.

Every equality below is exact ``==`` on floats, deliberately: the batched
engine is designed to reproduce the scalar bits, and any drift is a bug.
"""

import math

import numpy as np
import pytest

from repro import Circuit, SimOptions, Task, VectorizedBackend, run, schedule
from repro.circuits import gates as g
from repro.circuits.gates import Gate
from repro.device import NoiseProfile, linear_chain, synthetic_device
from repro.pauli import Pauli
from repro.runtime import BACKENDS, STRATEGIES, Orient, Pipeline, Twirl, get_backend
from repro.runtime.run import configure, default_backend
from repro.sim import Executor, NoiseBatch, StateVector, VectorizedExecutor
from repro.sim import vectorized as vectorized_module
from repro.sim.coherent import CoherentAccumulation
from repro.sim.executor import _apply_no_jump
from repro.sim.sampling import sample_shot
from repro.sim.vectorized import _support
from repro.utils.rng import as_generator
from repro.utils.units import US

OBS = {"x1": "IIXI", "z3": "ZIII", "zz": "IIZZ"}


def layered_circuit(num_qubits: int = 4, layers: int = 2) -> Circuit:
    circ = Circuit(num_qubits)
    for q in range(num_qubits):
        circ.h(q, new_moment=(q == 0))
    for _ in range(layers):
        circ.cx(0, 1, new_moment=True)
        circ.append_moment([])
        circ.cx(2, 3, new_moment=True)
        circ.append_moment([])
    return circ


def dynamic_circuit() -> Circuit:
    """Measurement mid-circuit plus a conditioned gate (fig9-style)."""
    circ = Circuit(2, num_clbits=1)
    circ.h(0)
    circ.measure(0, 0, new_moment=True)
    circ.x(1, condition=(0, 1), new_moment=True)
    circ.h(1, new_moment=True)
    return circ


def both(task, device, options, workers=None):
    a = run(task, device, options=options, backend="trajectory")[0]
    b = run(task, device, options=options, backend="vectorized", workers=workers)[0]
    return a, b


def chunk_rows(monkeypatch, rows, num_qubits=4):
    """Size every vectorized chunk of a ``num_qubits`` engine to ``rows`` shots."""
    monkeypatch.setattr(vectorized_module, "_CHUNK_AMPLITUDES", rows << num_qubits)


def assert_identical(a, b):
    assert a.values == b.values
    assert a.errors == b.errors
    assert a.shots == b.shots


class TestBitForBitParity:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_every_named_strategy(self, chain4, strategy):
        task = Task(
            layered_circuit(), observables=OBS, pipeline=strategy,
            realizations=2, seed=11,
        )
        assert_identical(*both(task, chain4, SimOptions(shots=8)))

    def test_orient_pipeline(self, chain4):
        pipeline = Pipeline([Orient(), Twirl()])
        task = Task(
            layered_circuit(), observables=OBS, pipeline=pipeline,
            realizations=2, seed=3,
        )
        assert_identical(*both(task, chain4, SimOptions(shots=8)))

    def test_direct_task(self, chain4):
        task = Task(layered_circuit(), observables=OBS, seed=5)
        assert_identical(*both(task, chain4, SimOptions(shots=16)))

    def test_bit_targets(self, chain4):
        task = Task(
            layered_circuit(), bit_targets={"f": {0: 0, 1: 0}, "g": {2: 1}},
            seed=5,
        )
        assert_identical(*both(task, chain4, SimOptions(shots=16)))

    def test_dynamic_circuit(self, chain2):
        task = Task(dynamic_circuit(), bit_targets={"p1": {1: 1}}, seed=8)
        assert_identical(*both(task, chain2, SimOptions(shots=32)))

    @pytest.mark.parametrize(
        "off",
        ["coherent", "stochastic", "dephasing", "amplitude_damping", "gate_errors"],
    )
    def test_noise_toggle_combinations(self, chain4, off):
        options = SimOptions(shots=8, **{off: False})
        task = Task(layered_circuit(), observables=OBS, seed=4)
        assert_identical(*both(task, chain4, options))

    def test_nine_qubit_register_with_damping(self):
        """Damping and gates on every qubit up to ``q = n - 1``, where the
        in-place |1> view has a single high block."""
        n = 9
        device = synthetic_device(linear_chain(n), name="chain9", seed=109)
        circ = Circuit(n)
        for q in range(n):
            circ.h(q, new_moment=(q == 0))
        for start in (0, 1, 0):
            circ.append_moment([])
            for a in range(start, n - 1, 2):
                circ.cx(a, a + 1, new_moment=(a == start))
        circ.append_moment([])
        observables = {
            "z_last": "Z" + "I" * (n - 1),
            "x_first": "I" * (n - 1) + "X",
            "zz": "ZZ" + "I" * (n - 2),
        }
        options = SimOptions(shots=12)
        assert options.amplitude_damping
        for pipeline in (None, "ca_ec+dd"):
            task = Task(circ, observables=observables, pipeline=pipeline, seed=13)
            assert_identical(*both(task, device, options))

    def test_multi_task_batch_with_workers(self, chain4):
        tasks = [
            Task(
                layered_circuit(layers=k % 2 + 1), observables=OBS,
                pipeline="ca_ec+dd", realizations=2, seed=20 + k,
            )
            for k in range(4)
        ]
        serial = run(tasks, chain4, options=SimOptions(shots=6), backend="trajectory")
        batched = run(
            tasks, chain4, options=SimOptions(shots=6),
            backend="vectorized", workers=3,
        )
        for a, b in zip(serial, batched):
            assert_identical(a, b)


class TestHeavyTriggering:
    """Parity with gate errors near 0.3, where most shots trigger at least
    one gate error and the sampler rewinds its generator on nearly every
    shot (realistic error rates trigger on a few percent of shots)."""

    @pytest.fixture
    def noisy4(self):
        profile = NoiseProfile(p1_range=(0.25, 0.35), p2_range=(0.25, 0.35))
        return synthetic_device(linear_chain(4), name="noisy4", seed=104, profile=profile)

    def test_most_shots_trigger(self, noisy4):
        engine = Executor(schedule(layered_circuit(), noisy4.durations), noisy4)
        batch = NoiseBatch.empty(engine._plan, 64)
        rng = as_generator(0)
        for row in range(batch.size):
            sample_shot(engine._plan, rng, batch, row)
        assert (batch.paulis >= 0).any(axis=1).mean() > 0.9

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, None])
    def test_parity(self, noisy4, monkeypatch, chunk, workers):
        options = SimOptions(shots=12)
        if chunk is not None:
            chunk_rows(monkeypatch, chunk)
        tasks = [
            Task(
                layered_circuit(), observables=OBS, pipeline="ca_ec+dd",
                realizations=2, seed=21,
            ),
            Task(
                layered_circuit(), bit_targets={"f": {0: 0, 1: 0}, "g": {2: 1}},
                seed=22,
            ),
        ]
        for task in tasks:
            assert_identical(*both(task, noisy4, options, workers=workers))


class TestInPlaceNoJump:
    """Row-wise twin of ``test_runtime.TestNormGuards``: the in-place
    no-jump step must reproduce the scalar ``_apply_no_jump`` bit for bit,
    including ``gamma = 1`` on a row whose whole weight is in |1>."""

    def _rows(self, qubit, n=4):
        rng = np.random.default_rng(qubit)
        ordinary = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        excited = np.where((np.arange(1 << n) >> qubit) & 1, ordinary, 0.0)
        rows = np.array([ordinary, excited, ordinary[::-1]])
        return rows / np.linalg.norm(rows, axis=1)[:, None]

    @pytest.mark.parametrize("gamma", [1.0, 0.37])
    def test_matches_scalar_bit_for_bit(self, chain4, gamma):
        engine = VectorizedExecutor(schedule(layered_circuit(), chain4.durations), chain4)
        for qubit in range(4):
            rows = self._rows(qubit)
            expected = []
            for row in rows:
                state = StateVector(4)
                state.vector = row.copy()
                _apply_no_jump(state, qubit, gamma)
                expected.append(state.vector)
            psi = rows.copy()
            out = engine._no_jump_rows(psi, qubit, gamma)
            assert np.shares_memory(out, psi)
            np.testing.assert_array_equal(out.view(np.uint64), np.array(expected).view(np.uint64))
            # gamma = 1 decays the excited row to |0> on this qubit.
            if gamma == 1.0:
                assert engine._prob_one_rows(out, qubit)[1] == 0.0

    def test_prob_one_matches_scalar(self, chain4):
        engine = VectorizedExecutor(schedule(layered_circuit(), chain4.durations), chain4)
        for qubit in range(4):
            rows = self._rows(qubit)
            probs = engine._prob_one_rows(rows, qubit)
            for row, p in zip(rows, probs):
                state = StateVector(4)
                state.vector = row.copy()
                assert state.probability_one(qubit) == p


class TestJumpDecision:
    """Draws first: ``_evolve_chunk`` computes P(q=1) only for the rows whose
    damping draw is below ``2 * gamma`` (no other row can jump), and must
    still make every jump decision of the scalar engine, bit for bit."""

    @staticmethod
    def _device(t1):
        profile = NoiseProfile(t1_range=(t1, t1))
        return synthetic_device(linear_chain(4), name="decaying4", seed=41, profile=profile)

    @staticmethod
    def _gammas(engine):
        return [idle[2] for plan in engine._plan.moments for idle in plan.idles if idle[2] > 0.0]

    @staticmethod
    def _spy(monkeypatch):
        """Record the row count of every ``_prob_one_rows`` call."""
        sizes = []
        original = VectorizedExecutor._prob_one_rows

        def spy(self, psi, qubit, work=None):
            sizes.append(psi.shape[0])
            return original(self, psi, qubit, work)

        monkeypatch.setattr(VectorizedExecutor, "_prob_one_rows", spy)
        return sizes

    def test_every_case_matches_scalar(self, monkeypatch):
        """T1 = 1 us gives idle gammas of about 0.05 and 0.33, so the 4-row
        chunks of one run meet damping steps with no row, some rows and
        every row below ``2 * gamma``."""
        device = self._device(1.0 * US)
        scheduled = schedule(layered_circuit(), device.durations)
        options = SimOptions(shots=64, seed=17)
        observables = {key: Pauli.from_label(label) for key, label in OBS.items()}
        chunk_rows(monkeypatch, 4)
        sizes = self._spy(monkeypatch)
        engine = VectorizedExecutor(scheduled, device, options)
        batched = engine.expectations(observables)
        scalar = Executor(scheduled, device, options).expectations(observables)
        for key in observables:
            ours = [batched.values[key], batched.errors[key]]
            reference = [scalar.values[key], scalar.errors[key]]
            assert _bits(ours).tolist() == _bits(reference).tolist()
        gammas = self._gammas(engine)
        assert gammas and max(gammas) < 0.5
        assert 4 in sizes  # every row of a chunk below 2 * gamma
        assert any(0 < size < 4 for size in sizes)  # some rows
        assert len(sizes) < len(gammas) * 64 // 4  # no row: no P(q=1) pass

    @pytest.mark.parametrize("t1", [1.0 * US, 1.0])
    def test_chosen_draws(self, monkeypatch, t1):
        """Every qubit is rotated to P(q=1) = 0.8, then idles. Row 0 draws
        ``u = 2 * gamma`` (skipped), row 1 ``gamma * P <= u < 2 * gamma``
        (P computed, no jump), rows 2 and 3 ``u < gamma * P`` (jump), row 2
        above ``gamma / 2``. T1 = 1 ns makes every ``gamma == 1``, where
        ``2 * gamma > u`` and every row computes P."""
        device = self._device(t1)
        circuit = Circuit(4)
        theta = 2.0 * math.asin(math.sqrt(0.8))
        for q in range(4):
            circuit.append(g.u(theta, 0.0, 0.0), [q], new_moment=(q == 0))
        for q in range(4):
            circuit.delay(400.0, q, new_moment=(q == 0))
        scheduled = schedule(circuit, device.durations)
        options = SimOptions(coherent=False, dephasing=False, gate_errors=False)
        engine = VectorizedExecutor(scheduled, device, options)
        batch = NoiseBatch.empty(engine._plan, 4)
        rng = as_generator(3)
        for row in range(4):
            sample_shot(engine._plan, rng, batch, row)
        for plan in engine._plan.moments:
            for _q, _p_z, gamma, _flip_col, damp_col in plan.idles:
                draws = [2.0 * gamma, 1.2 * gamma, 0.6 * gamma, 0.2 * gamma]
                batch.uniforms[:, damp_col] = np.minimum(draws, 0.999)
        gammas = self._gammas(engine)
        assert len(gammas) == 8
        assert set(gammas) == {1.0} if t1 == 1.0 else max(gammas) < 0.5

        sizes = self._spy(monkeypatch)
        psi, _clbits = engine._evolve_chunk(batch)
        scalar = Executor(scheduled, device, options)
        for row in range(4):
            one = NoiseBatch(None, batch.uniforms[row : row + 1], batch.paulis[row : row + 1])
            state, _ = scalar._evolve(one)
            assert _bits(psi[row]).tolist() == _bits(state.vector).tolist()
        assert sizes == [4 if t1 == 1.0 else 3] * 8
        # A jump leaves no weight in |1>; so does no-jump at gamma == 1.
        decayed = [True] * 4 if t1 == 1.0 else [False, False, True, True]
        for q in range(4):
            assert (engine._prob_one_rows(psi, q) == 0.0).tolist() == decayed


class TestShardingInvariance:
    def test_sharding_never_changes_values(self, chain4, monkeypatch):
        """Property: for any (workers, chunk size) the values are the same
        bits — sharding only repartitions independent rows."""
        task = Task(layered_circuit(), observables=OBS, seed=2)
        options = SimOptions(shots=30)
        reference = run(task, chain4, options=options, backend="vectorized")[0]
        rng = np.random.default_rng(12345)
        for _ in range(12):
            workers = int(rng.integers(1, 5))
            chunk = int(rng.integers(1, 40))
            chunk_rows(monkeypatch, chunk)
            result = run(
                task, chain4, options=options, backend="vectorized", workers=workers
            )[0]
            assert result.values == reference.values, (workers, chunk)
            assert result.errors == reference.errors, (workers, chunk)

    def test_chunk_of_one_shot(self, chain4, monkeypatch):
        task = Task(layered_circuit(), observables=OBS, seed=2)
        options = SimOptions(shots=5)
        reference = run(task, chain4, options=options, backend="vectorized")[0]
        chunk_rows(monkeypatch, 1)
        single = run(task, chain4, options=options, backend="vectorized")[0]
        assert_identical(reference, single)

    def test_invalid_chunk_rejected(self, chain4):
        # The chunk size is not a setting: no constructor takes one, and
        # configure() accepts only the pinned ``None``.
        with pytest.raises(TypeError):
            VectorizedBackend(chunk_shots=0)
        with pytest.raises(TypeError):
            VectorizedExecutor(
                schedule(layered_circuit(), chain4.durations), chain4, chunk_shots=0
            )
        with pytest.raises(ValueError, match="chunk_shots"):
            configure(chunk_shots=0)


class TestRegistryAndPlumbing:
    def test_vectorized_registered(self):
        assert "vectorized" in BACKENDS
        assert get_backend("vectorized").name == "vectorized"

    def test_run_reports_backend(self, chain4):
        batch = run(
            Task(layered_circuit(), observables=OBS, seed=0),
            chain4,
            options=SimOptions(shots=2),
            backend="vectorized",
        )
        assert batch.backend == "vectorized"

    def test_configure_default_backend(self, chain4):
        previous = default_backend()
        try:
            configure(backend="trajectory")
            batch = run(
                Task(layered_circuit(), observables=OBS, seed=0),
                chain4,
                options=SimOptions(shots=2),
            )
            assert batch.backend == "trajectory"
        finally:
            configure(backend=previous)

    def test_configure_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            configure(backend="warp-drive")

    def test_configure_failure_leaves_defaults_untouched(self):
        from repro.runtime.run import default_workers

        previous = default_workers()
        with pytest.raises(ValueError):
            configure(workers=previous + 3, backend="warp-drive")
        assert default_workers() == previous


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def _engine(num_qubits, circuit=None):
    device = synthetic_device(linear_chain(num_qubits), seed=7)
    if circuit is None:
        circuit = Circuit(num_qubits)
        for q in range(num_qubits):
            circuit.delay(400.0, q)
    return VectorizedExecutor(schedule(circuit, device.durations), device)


def _random_rows(rows, num_qubits, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    return rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))


def _random_unitary(k, rng):
    size = 1 << k
    q, r = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _per_gate_rows(sub, matrix, qubits, num_qubits):
    """One gate at a time, back in canonical order after each (the layout
    the gate chain skips): moveaxis the gate's axes to the front, matmul,
    move them back."""
    rows = sub.shape[0]
    axes = [1 + (num_qubits - 1 - q) for q in qubits]
    psi = np.moveaxis(sub.reshape((rows,) + (2,) * num_qubits), axes, range(1, len(qubits) + 1))
    tail = psi.shape[len(qubits) + 1 :]
    psi = np.matmul(matrix, psi.reshape(rows, 1 << len(qubits), -1))
    psi = psi.reshape((rows,) + (2,) * len(qubits) + tail)
    psi = np.moveaxis(psi, range(1, len(qubits) + 1), axes)
    return np.ascontiguousarray(psi).reshape(rows, -1)


class TestSupportReducedPhases:
    """Phase programs evaluate ``exp`` over the 2**m bit patterns of the
    qubits they touch; every amplitude must still get the bits the scalar
    engine's full-dimension ``StateVector.apply_phases`` gives it."""

    N = 5

    def _program(self, engine, z, zz, detuned):
        engine._static_acc[0] = CoherentAccumulation(dict(z), dict(zz))
        plan = engine._plan
        sigmas = None
        if detuned:
            sigmas = tuple(
                (1e-3, 0.0) if q in detuned else (0.0, 0.0) for q in range(self.N)
            )
        engine._plan = type(plan)(
            plan.num_qubits, sigmas, plan.moments, plan.uniforms,
            plan.gate_cols, plan.gate_probs, plan.gate_highs,
        )
        return engine._build_phase_program(0)

    def _reference(self, engine, rows, detunings):
        """The scalar engine's step 2, row by row."""
        static = engine._static_acc[0]
        sm, timeline = engine.scheduled[0], engine._timelines[0]
        out = []
        for b, row in enumerate(rows):
            acc = CoherentAccumulation(dict(static.z), dict(static.zz))
            if detunings is not None:
                for q in range(self.N):
                    rate = detunings[b, q]
                    if rate != 0.0:
                        acc.add_z(
                            q,
                            2.0 * math.pi * rate * sm.duration * timeline.sign_integral(q),
                        )
            state = StateVector(self.N)
            state.vector = row.copy()
            state.apply_phases(acc)
            out.append(state.vector)
        return np.array(out)

    CASES = {
        "one-qubit": ({2: 0.3}, {}, ()),
        "partial-zz": ({1: 0.2, 3: -0.4}, {(1, 3): 0.1}, ()),
        "every-qubit": ({q: 0.1 * (q + 1) for q in range(N)}, {(0, 4): -0.7}, ()),
        "dyn-one-qubit": ({}, {}, (2,)),
        "dyn-partial": ({3: 0.1, 1: 0.2}, {}, (0, 3)),
        "dyn-partial-zz": ({3: 0.1, 1: 0.2}, {(1, 4): 0.3}, (0, 3)),
        "dyn-every-qubit": ({0: 0.5}, {}, tuple(range(N))),
        "dyn-every-qubit-zz": ({0: 0.5}, {(2, 3): -0.2}, tuple(range(N))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_dimension(self, case):
        z, zz, detuned = self.CASES[case]
        support = set(z) | set(detuned) | {q for pair in zz for q in pair}
        engine = _engine(self.N)
        program = self._program(engine, z, zz, detuned)
        rows = 6
        psi = _random_rows(rows, self.N, seed=len(case))
        batch = NoiseBatch.empty(engine._plan, rows)
        if detuned:
            assert program[0] == "dynamic"
            assert program[2] == 1 << len(support)
            rng = np.random.default_rng(3)
            for q in detuned:
                batch.detunings[:, q] = rng.normal(scale=1e-3, size=rows)
        else:
            assert program[0] == "static"
        expected = self._reference(engine, psi, batch.detunings)
        engine._apply_phases(psi, program, batch, engine._workspace(None, rows))
        np.testing.assert_array_equal(_bits(psi), _bits(expected))

    def test_support_is_cached(self):
        sz, index = _support(6, (1, 4))
        assert _support(6, (1, 4))[1] is index
        assert not index.flags.writeable
        basis = np.arange(64)
        np.testing.assert_array_equal(index, ((basis >> 1) & 1) | (((basis >> 4) & 1) << 1))
        np.testing.assert_array_equal(sz[4], [1.0, 1.0, -1.0, -1.0])
        assert _support(3, (0, 1, 2))[1] is None


class TestGateChain:
    """A moment's unconditioned gates run as one layout chain; it must give
    the bits of applying one gate at a time in canonical order."""

    def _moment(self, num_qubits, rng):
        """Random gates covering every qubit; 2q pairs often reversed."""
        qubits = [int(q) for q in rng.permutation(num_qubits)]
        gates = []
        while qubits:
            if len(qubits) >= 2 and rng.random() < 0.6:
                gates.append((_random_unitary(2, rng), (qubits.pop(), qubits.pop())))
            else:
                gates.append((_random_unitary(1, rng), (qubits.pop(),)))
        return gates

    @pytest.mark.parametrize("num_qubits", [2, 3, 5, 8])
    @pytest.mark.parametrize("rows", [1, 4, 7])
    def test_matches_per_gate_application(self, num_qubits, rows):
        rng = np.random.default_rng(100 * num_qubits + rows)
        for trial in range(4):
            gates = self._moment(num_qubits, rng)
            assert {q for _m, qs in gates for q in qs} == set(range(num_qubits))
            circ = Circuit(num_qubits)
            for matrix, qubits in gates:
                circ.append(Gate("u", len(qubits), matrix=matrix), list(qubits))
            engine = _engine(num_qubits, circ)
            ((condition, matrices, chain),) = engine._unitaries[0]
            assert condition is None and len(matrices) == len(gates)
            psi = _random_rows(rows, num_qubits, seed=trial)
            expected = psi.copy()
            for matrix, qubits in gates:
                expected = _per_gate_rows(expected, matrix, qubits, num_qubits)
            scalar = []
            for row in psi:
                state = StateVector(num_qubits)
                state.vector = row.copy()
                for matrix, qubits in gates:
                    state.apply_gate(matrix, qubits)
                scalar.append(state.vector)
            engine._apply_gate_chain(psi, matrices, chain)
            np.testing.assert_array_equal(_bits(psi), _bits(expected))
            np.testing.assert_array_equal(_bits(psi), _bits(np.array(scalar)))

    def test_conditioned_gate_splits_the_chain(self, chain4):
        circ = Circuit(4, num_clbits=1)
        for q in range(4):
            circ.h(q, new_moment=(q == 0))
        circ.measure(0, 0, new_moment=True)
        circ.cx(3, 2, new_moment=True)
        circ.x(0, condition=(0, 1))
        circ.append(g.u(0.3, -math.pi / 2, math.pi / 2), [1])  # Rx(0.3)
        circ.h(3, new_moment=True)
        engine = VectorizedExecutor(schedule(circ, chain4.durations), chain4)
        runs = [
            [(cond, [width for _t, width in chain[0]]) for cond, _m, chain in moment]
            for moment in engine._unitaries
        ]
        assert [(None, [4]), ((0, 1), [2]), (None, [2])] in runs
        task = Task(circ, observables={"z": "ZZZZ", "x": "IXII"}, seed=4)
        assert_identical(*both(task, chain4, SimOptions(shots=64)))


class TestMatmulLayoutPin:
    """The gate chain's premise: ``np.matmul`` gives each output column the
    same bits wherever the column sits in a contiguous operand. A BLAS that
    breaks this fails here rather than silently changing values."""

    @pytest.mark.parametrize("num_qubits", range(2, 13))
    def test_permuted_columns_same_bits(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        for k in (1, 2):
            if k > num_qubits:
                continue
            matrix = _random_unitary(k, rng)
            width = 1 << (num_qubits - k)
            perm = rng.permutation(width)
            for rows in (1, 4, 32):
                batch = _random_rows(rows, num_qubits, seed=rows).reshape(rows, 1 << k, width)
                canonical = np.matmul(matrix, batch)
                permuted = np.ascontiguousarray(batch[:, :, perm])
                out = np.empty_like(permuted)
                np.matmul(matrix, permuted, out=out)
                np.testing.assert_array_equal(_bits(out), _bits(canonical[:, :, perm]))
