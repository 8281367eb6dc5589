"""Plan/execute split tests: compile_tasks and ExecutionPlan.

The load-bearing guarantees:

* results are bit-identical for every (workers x backend) combination —
  parallelism only changes wall time;
* a deterministic pipeline compiles a task once for all its realizations,
  and every compile_tasks call compiles afresh, so no run carries state
  into the next.
"""

import pickle

import pytest

from conftest import OBS, batch_signature, det_pipeline, layered_circuit, mixed_tasks
from repro import (
    ExecutionPlan,
    SimOptions,
    Task,
    compile_tasks,
    run,
)
from repro import runtime
from repro.runtime import configure, get_backend


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

    def test_each_call_compiles_afresh(self, chain4):
        """Compiling one deterministic task list twice gives equal plans
        that share no scheduled circuit, so no run carries state into the
        next."""
        tasks = [
            Task(layered_circuit(), observables=OBS, pipeline=det_pipeline(),
                 realizations=2, seed=s)
            for s in (1, 2)
        ]
        opts = SimOptions(shots=4)
        first = compile_tasks(tasks, chain4, options=opts)
        second = compile_tasks(tasks, chain4, options=opts)
        for a, b in zip(first, second):
            assert a.units[0].scheduled is not b.units[0].scheduled
            assert [(m.start, m.duration) for m in a.units[0].scheduled] == [
                (m.start, m.duration) for m in b.units[0].scheduled
            ]
            assert [u.seed for u in a.units] == [u.seed for u in b.units]
        assert batch_signature(run(first)) == batch_signature(run(second))

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
        pooled = engine.execute_plans(
            compile_tasks(mixed_tasks(), chain4, options=opts),
            options=opts,
            workers=3,
        )
        assert batch_signature(serial) == batch_signature(pooled)


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


class TestBatchTiming:
    def test_compile_exec_split_reported(self, chain4):
        batch = run(mixed_tasks(), chain4, options=SimOptions(shots=2))
        assert batch.compile_time > 0.0
        assert batch.exec_time > 0.0
        assert batch.wall_time >= max(batch.compile_time, batch.exec_time)
