"""Plan/execute split tests: compile_tasks, ExecutionPlan, and the cache.

The load-bearing guarantees:

* results are bit-identical for every (workers x backend) combination —
  parallelism only changes wall time;
* a warm plan cache changes nothing but wall time;
* the cache is content-addressed: only deterministic pipelines participate,
  and any change to circuit, recipe parameters, or device changes the key.
"""

import pickle

import pytest

from conftest import OBS, batch_signature, det_pipeline, layered_circuit, mixed_tasks
from repro import (
    ExecutionPlan,
    Pipeline,
    SimOptions,
    Task,
    compile_tasks,
    run,
)
from repro import runtime
from repro.runtime import (
    CADD,
    CAEC,
    PLAN_CACHE,
    AlignedDD,
    Pass,
    PlanCache,
    StaggeredDD,
    Twirl,
    circuit_fingerprint,
    configure,
    device_fingerprint,
    get_backend,
    pipeline_for,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts (and leaves) the process-wide cache empty."""
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


class TestCompileTasks:
    def test_plans_execute_identically_to_run(self, chain4):
        opts = SimOptions(shots=4)
        via_tasks = run(mixed_tasks(), chain4, options=opts)
        plans = compile_tasks(mixed_tasks(), chain4, options=opts)
        assert all(isinstance(p, ExecutionPlan) for p in plans)
        via_plans = run(plans, options=opts)
        assert batch_signature(via_tasks) == batch_signature(via_plans)

    def test_one_plan_runs_on_every_backend(self, chain4):
        """The same pre-built plans feed all three engines."""
        opts = SimOptions(shots=4)
        plans = compile_tasks(
            [Task(layered_circuit(), observables=OBS, pipeline=det_pipeline(),
                  seed=3)],
            chain4,
            options=opts,
        )
        for backend in ("trajectory", "vectorized", "density"):
            direct = run(
                Task(layered_circuit(), observables=OBS,
                     pipeline=det_pipeline(), seed=3),
                chain4, options=opts, backend=backend,
            )
            via_plans = run(plans, options=opts, backend=backend)
            assert batch_signature(direct) == batch_signature(via_plans)

    def test_plans_remember_compile_options(self, chain4):
        """run(plans) without options reuses the compile-time options, so
        the two-stage path reproduces run(tasks, options=...) exactly even
        for seedless tasks whose sub-seeds were baked at compile time."""
        opts = SimOptions(shots=9, seed=21)
        tasks = [
            Task(layered_circuit(), observables=OBS, pipeline=det_pipeline(),
                 realizations=2)  # no task seed: stream comes from options
        ]
        one_stage = run(tasks, chain4, options=opts)
        plans = compile_tasks(tasks, chain4, options=opts)
        assert plans[0].options is opts
        two_stage = run(plans)  # no options: plans' compile options apply
        assert batch_signature(one_stage) == batch_signature(two_stage)
        assert two_stage[0].shots == 18  # 2 realizations x 9 shots

    def test_mixed_tasks_and_plans_rejected(self, chain4):
        plans = compile_tasks(
            [Task(layered_circuit(), observables=OBS, seed=1)], chain4
        )
        with pytest.raises(TypeError, match="cannot mix"):
            run([Task(layered_circuit(), observables=OBS, seed=2), plans[0]],
                chain4)

    def test_plans_with_conflicting_options_rejected(self, chain4):
        """Executing plans compiled under different options would silently
        run one's shots and seed for the other's circuits — refuse instead."""
        a = compile_tasks(
            [Task(layered_circuit(), observables=OBS, seed=1)], chain4,
            options=SimOptions(shots=4),
        )
        b = compile_tasks(
            [Task(layered_circuit(), observables=OBS, seed=1)], chain4,
            options=SimOptions(shots=8),
        )
        with pytest.raises(ValueError, match="different options"):
            run(a + b)
        # ... unless the caller states which options to use.
        batch = run(a + b, options=SimOptions(shots=4))
        assert len(batch) == 2

    def test_direct_tasks_stay_out_of_the_cache(self, chain4):
        """Raw circuits are never content-repeated; hashing them would only
        pollute the LRU (layer-fidelity pushes 100s of unique circuits)."""
        compile_tasks(
            [Task(layered_circuit(), observables=OBS, seed=1)], chain4
        )
        assert len(PLAN_CACHE) == 0
        assert PLAN_CACHE.stats == {"hits": 0, "misses": 0, "entries": 0}

    def test_execute_plans_backend_api(self, chain4):
        opts = SimOptions(shots=4)
        plans = compile_tasks(mixed_tasks(), chain4, options=opts)
        results = get_backend("trajectory").execute_plans(plans, options=opts)
        reference = run(mixed_tasks(), chain4, options=opts)
        assert batch_signature(results) == batch_signature(reference)

    def test_plan_metadata(self, chain4):
        plans = compile_tasks(mixed_tasks(), chain4)
        assert len(plans[0].units) == 3 and not plans[0].collapsible  # twirled
        assert len(plans[1].units) == 2 and plans[1].collapsible  # deterministic
        assert plans[2].direct and len(plans[2].units) == 1
        assert plans[0].kind == "expectations"
        assert plans[3].kind == "probabilities"
        assert all(p.compile_seconds >= 0.0 for p in plans)

    def test_deterministic_realizations_share_scheduled(self, chain4):
        plan = compile_tasks(
            [Task(layered_circuit(), observables=OBS, pipeline=det_pipeline(),
                  realizations=4, seed=0)],
            chain4,
        )[0]
        assert len({id(u.scheduled) for u in plan.units}) == 1

    def test_missing_device_raises(self):
        with pytest.raises(ValueError, match="no device"):
            compile_tasks([Task(layered_circuit(), observables=OBS)])

    def test_plan_pickle_roundtrip_executes_identically(self, chain4):
        """Plans are picklable by design — the property the distributed
        backend's shards rest on."""
        opts = SimOptions(shots=4)
        plans = compile_tasks(mixed_tasks(), chain4, options=opts)
        clone = pickle.loads(pickle.dumps(plans))
        assert batch_signature(run(plans)) == batch_signature(run(clone))


class TestWorkerInvariance:
    """Property: any (workers x backend) combination is bit-identical — the
    acceptance guarantee of the plan/execute split."""

    @pytest.mark.parametrize("backend", ["trajectory", "vectorized", "density"])
    def test_grid_bit_identical(self, chain4, backend):
        opts = SimOptions(shots=4)
        reference = run(mixed_tasks(), chain4, options=opts, backend=backend, workers=1)
        for workers in (2, 3):
            PLAN_CACHE.clear()
            batch = run(
                mixed_tasks(), chain4, options=opts, backend=backend, workers=workers
            )
            assert batch_signature(batch) == batch_signature(reference), (
                f"workers={workers}"
            )

    def test_backend_run_entry_point_invariant(self, chain4):
        """Backend.execute_plans (bypassing run()) honors the same guarantee."""
        opts = SimOptions(shots=4)
        engine = get_backend("trajectory")
        serial = engine.execute_plans(
            compile_tasks(mixed_tasks(), chain4, options=opts), options=opts
        )
        threaded = engine.execute_plans(
            compile_tasks(mixed_tasks(), chain4, options=opts),
            options=opts,
            workers=3,
        )
        assert batch_signature(serial) == batch_signature(threaded)


class TestPlanCache:
    def test_warm_cache_changes_nothing_but_wall_time(self, chain4):
        """Property: re-running any task list against a warm cache yields
        bit-identical results, for any worker combination."""
        opts = SimOptions(shots=4)
        cold = run(mixed_tasks(), chain4, options=opts)
        assert PLAN_CACHE.misses > 0
        for workers in (1, 3):
            warm = run(mixed_tasks(), chain4, options=opts, workers=workers)
            assert batch_signature(warm) == batch_signature(cold)
        assert PLAN_CACHE.hits > 0

    def test_cache_shares_plans_across_tasks_in_one_batch(self, chain4):
        """Two tasks with the same (circuit, recipe, device) content hit the
        same cache entry and share one scheduled artifact."""
        tasks = [
            Task(layered_circuit(), observables=OBS, pipeline=det_pipeline(),
                 realizations=2, seed=s)
            for s in (1, 2)
        ]
        plans = compile_tasks(tasks, chain4)
        assert PLAN_CACHE.misses == 1
        assert PLAN_CACHE.hits == 1
        assert id(plans[0].units[0].scheduled) == id(plans[1].units[0].scheduled)
        # ... while the derived seeds still follow each task's own stream.
        assert plans[0].units[0].seed != plans[1].units[0].seed

    def test_stochastic_pipelines_bypass_the_cache(self, chain4):
        tasks = [
            Task(layered_circuit(), observables=OBS, pipeline="ca_ec+dd",
                 realizations=2, seed=s)
            for s in (1, 2)
        ]
        compile_tasks(tasks, chain4)
        assert PLAN_CACHE.hits == 0
        assert PLAN_CACHE.misses == 0

    def test_unfingerprintable_pass_bypasses_the_cache(self, chain4):
        class Opaque(Pass):
            name = "opaque"

            def run(self, circuit, device, rng):
                return circuit

        pipeline = Pipeline([Opaque()])
        assert pipeline.is_deterministic
        assert pipeline.fingerprint is None
        compile_tasks(
            [Task(layered_circuit(), observables=OBS, pipeline=pipeline, seed=0,
                  realizations=2)],
            chain4,
        )
        assert len(PLAN_CACHE) == 0

    def test_cache_disabled_with_none(self, chain4):
        compile_tasks(
            [Task(layered_circuit(), observables=OBS, pipeline=det_pipeline(),
                  seed=0)],
            chain4,
            cache=None,
        )
        assert len(PLAN_CACHE) == 0

    def test_explicit_cache_argument_still_wins(self, chain4):
        cache = PlanCache()
        compile_tasks(
            [Task(layered_circuit(), observables=OBS, pipeline=det_pipeline(),
                  seed=1)],
            chain4,
            cache=cache,
        )
        assert len(cache) > 0
        assert len(PLAN_CACHE) == 0

    def test_lru_eviction(self, chain4):
        cache = PlanCache(maxsize=2)
        for layers in (1, 2, 3):
            compile_tasks(
                [Task(layered_circuit(layers=layers), observables=OBS,
                      pipeline=det_pipeline(), seed=0)],
                chain4,
                cache=cache,
            )
        assert len(cache) == 2
        assert cache.stats == {"hits": 0, "misses": 3, "entries": 2}

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError, match="maxsize"):
            PlanCache(maxsize=0)


class TestFixedCompileSettings:
    """The removed compile/cache, socket-transport, chunk and shard knobs keep
    one accepted value each, so a ``configure()`` snapshot of every getter
    restores cleanly."""

    def snapshot(self):
        state = {
            name[len("default_"):]: getattr(runtime, name)()
            for name in runtime.__all__
            if name.startswith("default_")
        }
        state["plan_cache"] = runtime.plan_cache_mode()
        return state

    def test_snapshot_restores_unchanged(self):
        before = self.snapshot()
        assert before["compile_mode"] == "thread"
        assert before["compile_workers"] is None
        assert before["plan_cache"] == "memory"
        assert before["dist_serve"] is None
        assert before["dist_connect"] == ()
        assert before["chunk_shots"] is None
        assert before["dist_shard_size"] is None
        assert before["dist_inner"] == "vectorized"
        configure(**before)
        assert self.snapshot() == before

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"compile_mode": "process"},
            {"compile_workers": 2},
            {"plan_cache": "disk"},
            {"plan_cache": "off"},
            {"dist_serve": "127.0.0.1:7777"},
            {"dist_connect": "host:7778"},
            {"chunk_shots": 8},
            {"dist_shard_size": 2},
            {"dist_inner": "trajectory"},
        ],
    )
    def test_removed_values_rejected(self, kwargs):
        before = self.snapshot()
        with pytest.raises(ValueError, match="was removed"):
            configure(workers=before["workers"] + 1, **kwargs)
        assert self.snapshot() == before


class TestFingerprints:
    def test_circuit_fingerprint_is_content_addressed(self):
        a, b = layered_circuit(), layered_circuit()
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        b.h(0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_circuit_fingerprint_sees_params_and_tags(self):
        base = layered_circuit()
        rotated = layered_circuit()
        rotated.rz(0.1, 0)
        other_angle = layered_circuit()
        other_angle.rz(0.2, 0)
        assert circuit_fingerprint(rotated) != circuit_fingerprint(other_angle)
        tagged = layered_circuit()
        tagged.moments[0] = type(tagged.moments[0])(
            [inst.with_tag("dd") for inst in tagged.moments[0]]
        )
        assert circuit_fingerprint(base) != circuit_fingerprint(tagged)

    def test_device_fingerprint_sees_calibration(self, chain4, chain2):
        assert device_fingerprint(chain4) == device_fingerprint(chain4)
        assert device_fingerprint(chain4) != device_fingerprint(chain2)

    def test_pipeline_fingerprint_sees_pass_parameters(self):
        assert (
            Pipeline([AlignedDD()]).fingerprint
            != Pipeline([StaggeredDD()]).fingerprint
        )
        assert Pipeline([CADD(), CAEC()]).fingerprint == Pipeline(
            [CADD(), CAEC()]
        ).fingerprint
        assert Pipeline(()).fingerprint == "identity"

    def test_named_recipes_have_fingerprints(self):
        for name in ("none", "dd", "staggered_dd", "ca_dd", "ca_ec", "ca_ec+dd"):
            assert pipeline_for(name).fingerprint is not None

    def test_twirl_makes_pipeline_uncacheable_but_fingerprintable(self):
        pipeline = Pipeline([Twirl(), CADD()])
        assert pipeline.fingerprint is not None
        assert not pipeline.is_deterministic


class TestBatchTiming:
    def test_compile_exec_split_reported(self, chain4):
        batch = run(mixed_tasks(), chain4, options=SimOptions(shots=2))
        assert batch.compile_time > 0.0
        assert batch.exec_time > 0.0
        assert batch.wall_time >= max(batch.compile_time, batch.exec_time)
