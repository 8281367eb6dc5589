"""Runtime tests: pipelines, backends, and the batched ``run()``.

The load-bearing guarantees:

* every named strategy's pipeline compiles seed-for-seed identically to
  the pre-runtime pass chain (inlined below as ``legacy_compile``);
* ``run()`` results are invariant under the worker count;
* a batched multi-worker run reproduces the sequential pre-runtime loop
  exactly (compile, seed, simulate, pool — same draws, same floats).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    BACKENDS,
    Circuit,
    Pipeline,
    SimOptions,
    Task,
    TaskResult,
    draw,
    run,
    schedule,
)
from repro.compiler.ca_dd import apply_ca_dd
from repro.compiler.ca_ec import apply_ca_ec
from repro.compiler.dd import apply_aligned_dd, apply_staggered_dd
from repro.pauli import Pauli
from repro.pauli.twirling import apply_twirl
from repro.runtime import (
    CADD,
    CAEC,
    STRATEGIES,
    Orient,
    Twirl,
    get_backend,
    pipeline_for,
)
from repro.sim import DensityExecutor, Executor, SimResult, VectorizedExecutor
from repro.utils.rng import as_generator


def layered_circuit(num_qubits: int = 4, layers: int = 2) -> Circuit:
    circ = Circuit(num_qubits)
    for q in range(num_qubits):
        circ.h(q, new_moment=(q == 0))
    for _ in range(layers):
        circ.can(0.3, 0.2, 0.4, 0, 1, new_moment=True)
        circ.append_moment([])
        circ.can(0.1, 0.5, 0.2, 2, 3, new_moment=True)
        circ.append_moment([])
    return circ


#: The pre-runtime strategy flags: name -> (twirl, dd flavor, ec).
LEGACY_STRATEGIES = {
    "none": (True, "none", False),
    "dd": (True, "aligned", False),
    "staggered_dd": (True, "staggered", False),
    "ca_dd": (True, "ca", False),
    "ca_ec": (True, "none", True),
    "ca_ec+dd": (True, "ca", True),
    "ec+aligned_dd": (True, "aligned", True),
}


def legacy_compile(circuit, device, strategy, rng):
    """The pre-runtime pass chain (twirl, DD, EC), inlined verbatim."""
    twirl, dd, ec = LEGACY_STRATEGIES[strategy]
    out = circuit
    if twirl:
        out, _ = apply_twirl(out, rng)
    if dd == "aligned":
        out = apply_aligned_dd(out, device)
    elif dd == "staggered":
        out = apply_staggered_dd(out, device)
    elif dd == "ca":
        out, _ = apply_ca_dd(out, device)
    if ec:
        out, _ = apply_ca_ec(out, device, durations=None)
    return out


OBS = {"x2": "IXII", "x3": "XIII"}


class TestPipelineEquivalence:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_named_pipeline_matches_legacy_chain(self, chain4, strategy):
        """pipeline_for(name) reproduces the pre-runtime chain exactly."""
        circ = layered_circuit()
        via_pipeline = pipeline_for(strategy).compile(circ, chain4, seed=13)
        via_legacy = legacy_compile(circ, chain4, strategy, as_generator(13))
        assert draw(via_pipeline) == draw(via_legacy)

    def test_custom_pipeline_composes(self, chain4):
        circ = layered_circuit()
        pipeline = Pipeline([Orient(), Twirl(), CADD(), CAEC()])
        assert pipeline.name == "orient+twirl+ca_dd+ca_ec"
        assert not pipeline.is_deterministic
        compiled = pipeline.compile(circ, chain4, seed=0)
        assert compiled.num_qubits == 4
        # seed-for-seed reproducible
        again = pipeline.compile(circ, chain4, seed=0)
        assert draw(compiled) == draw(again)

    def test_pipeline_then_and_determinism(self):
        assert Pipeline([CADD()]).is_deterministic
        assert not Pipeline([CADD(), Twirl()]).is_deterministic

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            pipeline_for("nope")


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        assert {"trajectory", "density"} <= set(BACKENDS)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("vectorized-gpu")
        # Backends are chosen by name only: an instance is not a name.
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend(get_backend("density"))


class TestTaskValidation:
    def test_requires_one_measurement_kind(self):
        circ = Circuit(1)
        with pytest.raises(ValueError, match="observables or bit_targets"):
            Task(circ)
        with pytest.raises(ValueError, match="observables or bit_targets"):
            Task(circ, observables={"z": "Z"}, bit_targets={"f": {0: 0}})

    def test_rejects_nonpositive_realizations(self):
        circ = Circuit(1)
        with pytest.raises(ValueError, match="realizations"):
            Task(circ, observables={"z": "Z"}, realizations=0)

    @pytest.mark.parametrize("backend", ["trajectory", "vectorized"])
    def test_engine_shot_counts(self, chain4, backend):
        """An engine samples ``options.shots``; 0 or less is an error when
        the engine is built, never a silent fallback to the default count."""
        engine_cls = get_backend(backend).engine
        scheduled = schedule(layered_circuit(), chain4.durations)
        engine = engine_cls(scheduled, chain4, SimOptions(shots=5, seed=1))
        assert engine.expectations({"z": Pauli.from_label("IIIZ")}).shots == 5
        assert engine.probabilities({"f": {0: 0}}).shots == 5
        for shots in (0, -3):
            with pytest.raises(ValueError, match="shots"):
                engine_cls(scheduled, chain4, SimOptions(shots=shots))

    @pytest.mark.parametrize("backend", ["trajectory", "vectorized", "density"])
    @pytest.mark.parametrize(
        "measure, match",
        [
            ({"observables": {"o": "Z"}}, "acts on 1 qubits"),
            ({"observables": {"o": "ZZZ"}}, "acts on 3 qubits"),
            ({"bit_targets": {"p": {-1: 0}}}, "outside"),
            ({"bit_targets": {"p": {5: 1}}}, "outside"),
            ({"bit_targets": {"p": {0: 2}}}, "not 0 or 1"),
        ],
        ids=["narrow-pauli", "wide-pauli", "negative-qubit", "qubit-past-end", "bit-2"],
    )
    def test_mis_sized_payload_rejected(self, chain2, backend, measure, match):
        """Every backend fails the same way on a payload that does not fit
        the circuit, instead of each engine reading it differently."""
        circ = Circuit(2)
        circ.h(0)
        with pytest.raises(ValueError, match=match):
            run(Task(circ, **measure), chain2, backend=backend)

    def test_device_required_somewhere(self, chain4):
        task = Task(layered_circuit(), observables=OBS)
        with pytest.raises(ValueError, match="no device"):
            run(task)
        assert run(task, chain4, options=SimOptions(shots=2, seed=0)).results


class TestBatchedRun:
    def test_workers_do_not_change_values(self, chain4):
        """The headline determinism guarantee: workers only change speed."""
        circ = layered_circuit()
        opts = SimOptions(shots=8)
        tasks = [
            Task(circ, observables=OBS, pipeline="ca_ec+dd",
                 realizations=3, seed=s)
            for s in range(4)
        ]
        serial = run(tasks, chain4, options=opts, workers=1)
        threaded = run(tasks, chain4, options=opts, workers=2)
        assert serial.backend == threaded.backend == "vectorized"
        for a, b in zip(serial, threaded):
            assert a.values == b.values
            assert a.errors == b.errors
            assert a.shots == b.shots

    def test_batched_run_matches_sequential_legacy_path(self, chain4):
        """Acceptance: >=4 tasks, workers>1, ca_ec+dd — seed-for-seed equal
        to the pre-runtime sequential loop (compile, draw sub-seed,
        simulate, pool realization means)."""
        opts = SimOptions(shots=6)
        paulis = {k: Pauli.from_label(v) for k, v in OBS.items()}
        circuits = [layered_circuit(layers=k % 2 + 1) for k in range(5)]
        tasks = [
            Task(circ, observables=OBS, pipeline="ca_ec+dd",
                 realizations=3, seed=40 + k)
            for k, circ in enumerate(circuits)
        ]
        batch = run(tasks, chain4, options=opts, workers=3)

        for task, circ, result in zip(tasks, circuits, batch):
            rng = as_generator(task.seed)
            means = {k: [] for k in OBS}
            for _ in range(task.realizations):
                compiled = legacy_compile(circ, chain4, "ca_ec+dd", rng)
                sub_seed = int(rng.integers(0, 2**63 - 1))
                scheduled = schedule(compiled, chain4.durations)
                res = Executor(
                    scheduled, chain4, replace(opts, seed=sub_seed)
                ).expectations(paulis)
                for key in OBS:
                    means[key].append(res.values[key])
            for key in OBS:
                assert result.values[key] == float(np.mean(means[key]))
                assert result.errors[key] == float(
                    np.std(means[key], ddof=1) / math.sqrt(len(means[key]))
                )

    def test_bit_target_tasks_and_name_lookup(self, chain4):
        circ = Circuit(4)
        circ.h(0)
        batch = run(
            [
                Task(circ, bit_targets={"f": {0: 0}}, seed=3, name="plus"),
                Task(Circuit(4), bit_targets={"f": {0: 0}}, seed=3, name="idle"),
            ],
            chain4,
            options=SimOptions(shots=16),
        )
        assert batch["idle"].values["f"] == pytest.approx(1.0, abs=0.1)
        assert batch["plus"].values["f"] == pytest.approx(0.5, abs=0.3)
        with pytest.raises(KeyError):
            batch["missing"]

    def test_density_backend_matches_density_expectations(self, chain2):
        circ = Circuit(2)
        circ.h(0)
        circ.cx(0, 1, new_moment=True)
        result = run(
            Task(circ, observables={"zz": "ZZ"}), chain2, backend="density"
        )[0]
        scheduled = schedule(circ, chain2.durations)
        ref = DensityExecutor(scheduled, chain2).expectations({"zz": Pauli.from_label("ZZ")})
        assert result.values["zz"] == pytest.approx(ref["zz"], abs=1e-12)
        assert result.errors["zz"] == 0.0
        assert result.shots == 0

    def test_density_collapses_deterministic_realizations(self, chain2):
        """An exact backend ignores seeds, so repeating a deterministic
        pipeline's realizations is pure waste — the batcher collapses them."""
        circ = Circuit(2)
        circ.h(0)
        circ.cx(0, 1, new_moment=True)
        pipeline = Pipeline([CAEC()])
        many = run(
            Task(circ, observables={"zz": "ZZ"}, pipeline=pipeline,
                 realizations=8, seed=0),
            chain2,
            backend="density",
        )[0]
        once = run(
            Task(circ, observables={"zz": "ZZ"}, pipeline=pipeline, seed=0),
            chain2,
            backend="density",
        )[0]
        assert many.values == once.values
        assert many.realizations == 1

    def test_batch_metadata(self, chain4):
        batch = run(
            [Task(layered_circuit(), observables=OBS, seed=k) for k in range(2)],
            chain4,
            options=SimOptions(shots=2),
            workers=2,
        )
        assert len(batch) == 2
        assert batch.workers == 2
        assert batch.wall_time > 0.0
        assert batch.shots == 4
        assert all(isinstance(r, TaskResult) for r in batch)
        assert "BatchResult" in repr(batch)
        assert "TaskResult" in repr(batch[0])


class TestOneWayToRunAUnit:
    """Every engine is built from ``(scheduled, device, options)`` and called
    with the payload alone; every backend builds one engine per unit."""

    ENGINES = {
        "trajectory": Executor,
        "vectorized": VectorizedExecutor,
        "density": DensityExecutor,
    }

    def test_engines_take_the_payload_alone(self, chain4):
        scheduled = schedule(layered_circuit(), chain4.durations)
        options = SimOptions(shots=5, seed=3)
        obs = {k: Pauli.from_label(v) for k, v in OBS.items()}
        targets = {"f": {0: 0}, "g": {1: 1, 2: 0}}
        out = {}
        for name, engine_cls in self.ENGINES.items():
            engine = engine_cls(scheduled, chain4, options)
            out[name] = (engine.expectations(obs), engine.probabilities(targets))
            for result in out[name]:
                assert isinstance(result, SimResult)
        for a, b in zip(out["trajectory"], out["vectorized"]):
            assert a.values == b.values
            assert a.errors == b.errors
            assert a.shots == b.shots == 5
        for result in out["density"]:
            assert set(result.errors.values()) == {0.0}
            assert result.shots == 0

    @pytest.mark.parametrize("backend, built", [
        ("trajectory", 3), ("vectorized", 3), ("density", 1),
    ])
    def test_one_engine_per_unit(self, chain4, monkeypatch, backend, built):
        """A deterministic pipeline's realizations share one scheduled
        circuit but each build their own engine; ``density`` collapses
        them into one exact evolution."""
        backend_cls = type(get_backend(backend))
        builds = []

        class Spy(backend_cls.engine):
            def __init__(self, *args, **kwargs):
                builds.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(backend_cls, "engine", Spy)
        task = Task(
            layered_circuit(), observables=OBS, pipeline=Pipeline([CADD(), CAEC()]),
            realizations=3, seed=0,
        )
        result = run(task, chain4, options=SimOptions(shots=2), backend=backend)[0]
        assert len(builds) == built
        assert result.realizations == built


class TestResultErgonomics:
    def test_simresult_mapping_protocol(self, chain4):
        task = Task(layered_circuit(), observables=OBS)
        result = run(task, chain4, options=SimOptions(shots=4, seed=2))[0]
        assert len(result) == 2
        assert set(result) == set(OBS)
        assert "x2" in result
        assert dict(result.items()) == result.values
        assert result.error("x2") == result.errors["x2"]
        assert "±" in repr(result)


class TestNormGuards:
    def test_no_jump_with_full_excitation_decays(self):
        """gamma = 1 on |1>: the no-jump branch has zero weight; the guard
        must route to the decay jump instead of dividing by zero."""
        from repro.sim import StateVector
        from repro.sim.executor import _apply_no_jump

        state = StateVector(1)
        state.apply_pauli("X", 0)  # |1>
        _apply_no_jump(state, 0, 1.0)
        assert np.all(np.isfinite(state.vector))
        assert state.probability_one(0) == pytest.approx(0.0)

    def test_decay_jump_without_excitation_is_safe(self):
        from repro.sim import StateVector
        from repro.sim.executor import _apply_decay_jump

        state = StateVector(1)  # |0>: no |1> amplitude to project
        _apply_decay_jump(state, 0)
        assert np.all(np.isfinite(state.vector))
        assert np.linalg.norm(state.vector) == pytest.approx(1.0)
