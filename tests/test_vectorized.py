"""Vectorized-backend tests: bit-for-bit parity and sharding invariance.

The load-bearing guarantees:

* ``backend="vectorized"`` reproduces ``backend="trajectory"`` **bit for
  bit** — same seeds, same draws, same floats — for every named strategy,
  for orientation pipelines, for dynamic (measure + conditioned) circuits,
  for readout-error models, and for every noise-toggle combination;
* sharding is invisible: any ``workers`` / ``chunk_shots`` configuration
  produces identical values (the property the scale-out story rests on);
* the engine plugs into the registry/CLI plumbing like any other backend.

Every equality below is exact ``==`` on floats, deliberately: the batched
engine is designed to reproduce the scalar bits, and any drift is a bug.
"""

import numpy as np
import pytest

from repro import Circuit, SimOptions, Task, VectorizedBackend, run
from repro.compiler.strategies import STRATEGIES
from repro.runtime import BACKENDS, Orient, Pipeline, Twirl, get_backend
from repro.runtime.run import configure, default_backend
from repro.sim import Executor, VectorizedExecutor
from repro.sim.sampling import build_noise_plan, sample_shot
from repro.utils.rng import as_generator

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


def both(task, device, options, vectorized=None, workers=None):
    a = run(task, device, options=options, backend="trajectory")[0]
    b = run(
        task,
        device,
        options=options,
        backend=vectorized or "vectorized",
        workers=workers,
    )[0]
    return a, b


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

    def test_readout_error_expectations(self, chain4):
        task = Task(layered_circuit(), observables=OBS, seed=9)
        options = SimOptions(shots=16, readout_errors=True)
        assert_identical(*both(task, chain4, options))

    def test_readout_error_probabilities(self, chain2):
        task = Task(dynamic_circuit(), bit_targets={"p1": {1: 1}}, seed=8)
        options = SimOptions(shots=32, readout_errors=True)
        assert_identical(*both(task, chain2, options))

    @pytest.mark.parametrize(
        "off",
        ["coherent", "stochastic", "dephasing", "amplitude_damping", "gate_errors"],
    )
    def test_noise_toggle_combinations(self, chain4, off):
        options = SimOptions(shots=8, **{off: False})
        task = Task(layered_circuit(), observables=OBS, seed=4)
        assert_identical(*both(task, chain4, options))

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


class TestShardingInvariance:
    def test_sharding_never_changes_values(self, chain4):
        """Property: for any (workers, chunk_shots) the values are the same
        bits — sharding only repartitions independent rows."""
        task = Task(layered_circuit(), observables=OBS, seed=2)
        options = SimOptions(shots=30)
        reference = run(task, chain4, options=options, backend="vectorized")[0]
        rng = np.random.default_rng(12345)
        for _ in range(12):
            workers = int(rng.integers(1, 5))
            chunk = int(rng.integers(1, 40))
            result = run(
                task, chain4, options=options,
                backend=VectorizedBackend(chunk_shots=chunk), workers=workers,
            )[0]
            assert result.values == reference.values, (workers, chunk)
            assert result.errors == reference.errors, (workers, chunk)

    def test_chunk_of_one_shot(self, chain4):
        task = Task(layered_circuit(), observables=OBS, seed=2)
        options = SimOptions(shots=5)
        reference = run(task, chain4, options=options, backend="vectorized")[0]
        single = run(
            task, chain4, options=options,
            backend=VectorizedBackend(chunk_shots=1),
        )[0]
        assert_identical(reference, single)

    def test_invalid_chunk_rejected(self, chain4):
        with pytest.raises(ValueError, match="chunk_shots"):
            run(
                Task(layered_circuit(), observables=OBS, seed=0),
                chain4,
                options=SimOptions(shots=2),
                backend=VectorizedBackend(chunk_shots=0),
            )


class TestSamplingHelpers:
    def test_plan_is_state_free_and_reusable(self, chain4):
        """Two generators with the same seed draw identical records."""
        from repro.circuits import schedule

        scheduled = schedule(layered_circuit(), chain4.durations)
        plan = build_noise_plan(scheduled, chain4, SimOptions(shots=1))
        a = sample_shot(plan, as_generator(7))
        b = sample_shot(plan, as_generator(7))
        assert np.array_equal(a.detunings, b.detunings)
        assert a.measure_u == b.measure_u
        assert a.idle_flips == b.idle_flips
        assert a.idle_u == b.idle_u
        assert a.gate_paulis == b.gate_paulis

    def test_executor_engines_share_stream(self, chain4):
        """The scalar and batched engines consume one seed identically."""
        from repro.circuits import schedule

        scheduled = schedule(layered_circuit(), chain4.durations)
        options = SimOptions(shots=12)
        scalar = Executor(scheduled, chain4, options)
        batched = VectorizedExecutor(scheduled, chain4, options)
        paulis = {"x1": "IIXI"}
        from repro.pauli import Pauli

        obs = {k: Pauli.from_label(v) for k, v in paulis.items()}
        assert scalar.expectations(obs, seed=33).values == \
            batched.expectations(obs, seed=33).values


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
            configure(backend="vectorized")
            batch = run(
                Task(layered_circuit(), observables=OBS, seed=0),
                chain4,
                options=SimOptions(shots=2),
            )
            assert batch.backend == "vectorized"
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

    def test_execute_always_receives_workers(self, chain4):
        """Backend.execute_plans passes ``workers=`` to every ``_execute``
        call: the whole budget for a single job, 1 per job otherwise."""
        from repro.runtime import TrajectoryBackend

        seen = []

        class RecordingBackend(TrajectoryBackend):
            name = "recording"

            def _execute(self, engine, kind, payload, shots, seed, workers=1):
                seen.append(workers)
                return super()._execute(engine, kind, payload, shots, seed, workers)

        options = SimOptions(shots=4)
        one = Task(layered_circuit(), observables=OBS, seed=1)
        run(one, chain4, options=options, backend=RecordingBackend(), workers=3)
        assert seen == [3]
        seen.clear()
        many = [Task(layered_circuit(), observables=OBS, seed=s) for s in (1, 2)]
        run(many, chain4, options=options, backend=RecordingBackend(), workers=3)
        assert seen == [1, 1]
