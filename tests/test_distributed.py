"""Distributed backend: sharding, the process pool, failure recovery, parity.

The contract under test: ``run(tasks, device, backend="distributed")`` is
bit-for-bit identical to ``backend="trajectory"`` for every (shard size ×
worker count) combination — including after a simulated worker crash — because
per-realization seeds are derived from the plan, never from the worker.
"""

import pickle

import pytest

from repro import Pass, Pipeline, SimOptions, Task, compile_tasks, run
from repro.runtime import (
    BACKENDS,
    DistributedBackend,
    LocalShardExecutor,
    configure,
    default_backend,
    default_dist_inner,
    default_dist_shard_size,
    default_dist_workers,
    get_backend,
    shard_plans,
)
from repro.runtime.distributed import WorkUnit, execute_work_unit

from conftest import OBS, batch_signature, det_pipeline, layered_circuit, mixed_tasks

OPTIONS = SimOptions(shots=8, seed=5)


@pytest.fixture(autouse=True)
def _reset_dist_defaults():
    """Every test starts (and leaves) the process-wide dist knobs pristine."""
    backend, inner = default_backend(), default_dist_inner()
    yield
    configure(
        backend=backend,
        dist_workers=None,
        dist_shard_size=None,
        dist_inner=inner,
    )


def reference(device, backend="trajectory"):
    return batch_signature(run(mixed_tasks(), device, options=OPTIONS, backend=backend))


def distributed(device, **kwargs):
    crash_token = kwargs.pop("crash_token", None)
    backend = DistributedBackend(**kwargs)
    if crash_token is not None:
        backend._crash_token = str(crash_token)
    return batch_signature(run(mixed_tasks(), device, options=OPTIONS, backend=backend))


# ---------------------------------------------------------------------------
# Shard construction
# ---------------------------------------------------------------------------


class TestShardPlans:
    def plans(self, device):
        return compile_tasks(mixed_tasks(), device=device, options=OPTIONS)

    def test_covers_every_unit_in_order(self, chain4):
        plans = self.plans(chain4)
        shards = shard_plans(plans, shard_size=2)
        for index, plan in enumerate(plans):
            mine = [s for s in shards if s.plan_index == index]
            assert [s.shard_index for s in mine] == list(range(len(mine)))
            reassembled = [u for s in mine for u in s.units]
            assert reassembled == list(plan.units)
            assert all(len(s.units) <= 2 for s in mine)
            assert [s.start for s in mine] == [2 * k for k in range(len(mine))]

    def test_shard_size_one_isolates_units(self, chain4):
        plans = self.plans(chain4)
        shards = shard_plans(plans, shard_size=1)
        assert all(len(s.units) == 1 for s in shards)
        assert len(shards) == sum(len(p.units) for p in plans)

    def test_direct_plan_metadata(self, chain4):
        plans = self.plans(chain4)
        direct = [s for s in shards_of(plans, 4) if s.direct]
        assert len(direct) == 1  # mixed_tasks has one raw task
        assert direct[0].kind == "expectations"

    def test_collapse_for_exact_backends(self, chain4):
        plans = self.plans(chain4)
        collapsed = shard_plans(plans, shard_size=8, seed_sensitive=False)
        for plan, count in zip(
            plans, [len(s.units) for s in collapsed if s.shard_index == 0]
        ):
            if plan.collapsible:
                assert count == 1

    def test_rejects_bad_shard_size(self, chain4):
        with pytest.raises(ValueError, match="shard_size"):
            shard_plans(self.plans(chain4), shard_size=0)

    def test_shards_pickle_without_the_task(self, chain4):
        # A task whose pipeline holds a locally defined pass can't be
        # unpickled by a worker; shards must travel anyway because they
        # carry no Task at all.
        class LocalTwirl(Pass):
            name = "local_twirl"
            stochastic = True

            def run(self, circuit, device, ctx):
                ctx.rng.random()
                return circuit

        task = Task(
            layered_circuit(),
            observables=OBS,
            pipeline=Pipeline([LocalTwirl()]),
            realizations=2,
            seed=3,
        )
        plans = compile_tasks([task], device=chain4, options=OPTIONS)
        with pytest.raises(Exception):
            pickle.dumps(plans[0])  # the plan itself embeds the local class
        shards = shard_plans(plans, shard_size=1)
        restored = pickle.loads(pickle.dumps(shards))
        assert [s.units[0].seed for s in restored] == [
            s.units[0].seed for s in shards
        ]


def shards_of(plans, size):
    return shard_plans(plans, shard_size=size)


# ---------------------------------------------------------------------------
# Work units
# ---------------------------------------------------------------------------


class TestWorkUnit:
    def test_execute_matches_backend_hooks(self, chain4):
        plans = compile_tasks(mixed_tasks(), device=chain4, options=OPTIONS)
        shard = shard_plans(plans, shard_size=3)[0]
        unit = WorkUnit(shard=shard, inner="trajectory", options=OPTIONS)
        outcomes = execute_work_unit(pickle.loads(pickle.dumps(unit)))
        assert len(outcomes) == len(shard.units)
        backend = get_backend("trajectory")
        for plan_unit, (result, seconds) in zip(shard.units, outcomes):
            engine = backend._make_engine(plan_unit.scheduled, plan_unit.device, OPTIONS)
            expected = backend._execute(
                engine, shard.kind, shard.payload, shard.shots, plan_unit.seed
            )
            assert result.values == expected.values
            assert seconds >= 0.0

    def test_inline_execution_ignores_crash_token(self, chain4, tmp_path):
        plans = compile_tasks(mixed_tasks(), device=chain4, options=OPTIONS)
        shard = shard_plans(plans, shard_size=2)[0]
        token = tmp_path / "crash"
        unit = WorkUnit(
            shard=shard, inner="trajectory", options=OPTIONS, crash_token=str(token)
        )
        # in_worker=False is the coordinator's inline drain: it must never
        # trip the injected crash (os._exit would kill the test process).
        outcomes = execute_work_unit(unit, in_worker=False)
        assert len(outcomes) == len(shard.units)
        assert not token.exists()


# ---------------------------------------------------------------------------
# Bit-for-bit parity across the (shard size x workers) grid
# ---------------------------------------------------------------------------


class TestLocalParity:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shard_size", [1, 2, None])
    def test_matches_trajectory(self, chain4, workers, shard_size):
        assert distributed(
            chain4, dist_workers=workers, shard_size=shard_size
        ) == reference(chain4)

    def test_matches_vectorized_inner(self, chain4):
        assert distributed(chain4, inner="vectorized", dist_workers=2) == reference(
            chain4, backend="vectorized"
        )

    def test_matches_density_inner(self, chain4):
        assert distributed(
            chain4, inner="density", dist_workers=2, shard_size=1
        ) == reference(chain4, backend="density")

    def test_registered_backend_name(self, chain4):
        got = run(mixed_tasks(), chain4, options=OPTIONS, backend="distributed")
        assert "distributed" in BACKENDS
        assert all(r.backend == "distributed" for r in got)
        assert batch_signature(got) == reference(chain4)

    def test_plans_execute_on_any_backend(self, chain4):
        plans = compile_tasks(mixed_tasks(), device=chain4, options=OPTIONS)
        local = get_backend("trajectory").execute_plans(plans, options=OPTIONS)
        dist = DistributedBackend(dist_workers=2).execute_plans(plans, options=OPTIONS)
        assert [(r.values, r.errors, r.shots) for r in dist] == [
            (r.values, r.errors, r.shots) for r in local
        ]


# ---------------------------------------------------------------------------
# Worker-failure paths: crashes re-queue, runs complete, bits don't move
# ---------------------------------------------------------------------------


class TestFailureRecovery:
    def test_local_pool_survives_worker_crash(self, chain4, tmp_path):
        token = tmp_path / "crash-local"
        assert distributed(
            chain4, dist_workers=2, shard_size=1, crash_token=token
        ) == reference(chain4)
        assert token.exists()  # the crash really happened

    def test_local_executor_inline_fallback(self, chain4, tmp_path):
        # max_retries=0: the only pool generation crashes, so the shard
        # must complete via the coordinator's inline fallback.
        plans = compile_tasks(
            [Task(layered_circuit(), observables=OBS, pipeline=det_pipeline(),
                  realizations=1, seed=3)],
            device=chain4,
            options=OPTIONS,
        )
        shard = shard_plans(plans, shard_size=1)[0]
        token = tmp_path / "always"
        unit = WorkUnit(
            shard=shard, inner="trajectory", options=OPTIONS, crash_token=str(token)
        )
        results = LocalShardExecutor(workers=1, max_retries=0).run([unit])
        assert unit.key in results and len(results[unit.key]) == 1


# ---------------------------------------------------------------------------
# Configuration surface: constructor, configure(), CLI
# ---------------------------------------------------------------------------


class TestConfiguration:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="inner"):
            DistributedBackend(inner="distributed")
        with pytest.raises(ValueError, match="dist_workers"):
            DistributedBackend(dist_workers=0)
        with pytest.raises(ValueError, match="shard_size"):
            DistributedBackend(shard_size=0)
        with pytest.raises(ValueError):
            LocalShardExecutor(workers=0)

    def test_configure_roundtrip(self):
        configure(dist_workers=3, dist_shard_size=2)
        assert default_dist_workers() == 3
        assert default_dist_shard_size() == 2
        configure(dist_workers=None, dist_shard_size=None)
        assert default_dist_workers() is None
        assert default_dist_shard_size() is None

    def test_configure_validation(self):
        with pytest.raises(ValueError, match="dist_workers"):
            configure(dist_workers=0)
        with pytest.raises(ValueError, match="dist_shard_size"):
            configure(dist_shard_size=0)
        with pytest.raises(ValueError, match="dist_inner"):
            configure(dist_inner="distributed")
        # failed configure leaves the defaults untouched
        assert default_dist_workers() is None

    def test_configured_defaults_reach_the_backend(self, chain4):
        configure(dist_workers=2, dist_shard_size=1)
        assert batch_signature(
            run(mixed_tasks(), chain4, options=OPTIONS, backend="distributed")
        ) == reference(chain4)

    def test_run_workers_feed_the_fleet_size(self, chain4):
        assert DistributedBackend()._resolve(workers=3) == (3, None)

    def test_cli_flags_configure_the_runtime(self):
        from repro.experiments.__main__ import main

        assert (
            main(
                [
                    "list",
                    "--backend",
                    "distributed",
                    "--dist-workers",
                    "2",
                    "--dist-shard-size",
                    "4",
                ]
            )
            == 0
        )
        assert default_dist_workers() == 2
        assert default_dist_shard_size() == 4
        assert default_backend() == "distributed"

    def test_cli_rejects_bad_counts(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["list", "--dist-workers", "0"])
        with pytest.raises(SystemExit):
            main(["list", "--dist-shard-size", "0"])
