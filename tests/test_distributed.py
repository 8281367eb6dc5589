"""Distributed backend: sharding, the process pool, failure recovery, parity.

The contract under test: ``run(tasks, device, backend="distributed")`` is
bit-for-bit identical to ``backend="trajectory"`` for every (shard size ×
worker count) combination — including after a simulated worker crash — because
per-realization seeds are derived from the plan, never from the worker.
Shard sizes are not a setting, so the parity grid forces them by wrapping
the backend's call to ``shard_plans``.
"""

import pickle
from dataclasses import replace

import pytest

from repro import Pass, Pipeline, SimOptions, Task, compile_tasks, run
from repro.runtime import (
    BACKENDS,
    DistributedBackend,
    LocalShardExecutor,
    configure,
    default_backend,
    default_dist_shard_size,
    default_dist_workers,
    get_backend,
    shard_plans,
)
from repro.runtime import distributed as distributed_module
from repro.runtime.distributed import WorkUnit, execute_work_unit
from repro.sim import VectorizedExecutor

from conftest import OBS, batch_signature, det_pipeline, layered_circuit, mixed_tasks

OPTIONS = SimOptions(shots=8, seed=5)


@pytest.fixture(autouse=True)
def _reset_dist_defaults():
    """Every test starts (and leaves) the process-wide dist knobs pristine."""
    backend = default_backend()
    yield
    configure(backend=backend, dist_workers=None)


def reference(device, backend="trajectory"):
    return batch_signature(run(mixed_tasks(), device, options=OPTIONS, backend=backend))


def distributed(device, dist_workers):
    configure(dist_workers=dist_workers)
    return reference(device, backend="distributed")


def force_shard_size(monkeypatch, size):
    """Make the backend cut every plan into shards of ``size`` units."""
    monkeypatch.setattr(
        distributed_module, "shard_plans", lambda plans, _auto: shard_plans(plans, size)
    )


def record_pool_sizes(monkeypatch):
    """Record the worker count of every process pool the backend starts."""
    sizes = []

    class Recording(LocalShardExecutor):
        def __init__(self, workers):
            sizes.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(distributed_module, "LocalShardExecutor", Recording)
    return sizes


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

    def test_shard_size_one_isolates_units(self, chain4):
        plans = self.plans(chain4)
        shards = shard_plans(plans, shard_size=1)
        assert all(len(s.units) == 1 for s in shards)
        assert len(shards) == sum(len(p.units) for p in plans)

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

            def run(self, circuit, device, rng):
                rng.random()
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


# ---------------------------------------------------------------------------
# Work units
# ---------------------------------------------------------------------------


class TestWorkUnit:
    def test_execute_matches_backend_hooks(self, chain4):
        plans = compile_tasks(mixed_tasks(), device=chain4, options=OPTIONS)
        shard = shard_plans(plans, shard_size=3)[0]
        unit = WorkUnit(shard=shard, options=OPTIONS)
        outcomes = execute_work_unit(pickle.loads(pickle.dumps(unit)))
        assert len(outcomes) == len(shard.units)
        for plan_unit, (result, seconds) in zip(shard.units, outcomes):
            options = replace(OPTIONS, seed=plan_unit.seed)
            engine = VectorizedExecutor(plan_unit.scheduled, plan_unit.device, options)
            expected = getattr(engine, shard.kind)(shard.payload)
            assert result.values == expected.values
            assert seconds >= 0.0

    def test_inline_execution_ignores_crash_token(self, chain4, tmp_path):
        plans = compile_tasks(mixed_tasks(), device=chain4, options=OPTIONS)
        shard = shard_plans(plans, shard_size=2)[0]
        token = tmp_path / "crash"
        unit = WorkUnit(shard=shard, options=OPTIONS, crash_token=str(token))
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
    def test_matches_trajectory(self, chain4, monkeypatch, workers, shard_size):
        if shard_size is not None:
            force_shard_size(monkeypatch, shard_size)
        assert distributed(chain4, dist_workers=workers) == reference(chain4)

    def test_matches_vectorized_inner(self, chain4):
        assert distributed(chain4, dist_workers=2) == reference(
            chain4, backend="vectorized"
        )

    def test_registered_backend_name(self, chain4):
        got = run(mixed_tasks(), chain4, options=OPTIONS, backend="distributed")
        assert "distributed" in BACKENDS
        assert all(r.backend == "distributed" for r in got)
        assert batch_signature(got) == reference(chain4)

    def test_plans_execute_on_any_backend(self, chain4):
        plans = compile_tasks(mixed_tasks(), device=chain4, options=OPTIONS)
        local = get_backend("trajectory").execute_plans(plans, options=OPTIONS)
        configure(dist_workers=2)
        dist = DistributedBackend().execute_plans(plans, options=OPTIONS)
        assert [(r.values, r.errors, r.shots) for r in dist] == [
            (r.values, r.errors, r.shots) for r in local
        ]


# ---------------------------------------------------------------------------
# Worker-failure paths: crashes re-queue, runs complete, bits don't move
# ---------------------------------------------------------------------------


class TestFailureRecovery:
    def test_local_pool_survives_worker_crash(self, chain4, tmp_path, monkeypatch):
        token = tmp_path / "crash-local"
        monkeypatch.setattr(DistributedBackend, "_crash_token", str(token))
        force_shard_size(monkeypatch, 1)
        assert distributed(chain4, dist_workers=2) == reference(chain4)
        assert token.exists()  # the crash really happened

    def test_local_executor_inline_fallback(self, chain4, tmp_path, monkeypatch):
        # MAX_RETRIES=0: the only pool generation crashes, so the shard
        # must complete via the coordinator's inline fallback.
        plans = compile_tasks(
            [Task(layered_circuit(), observables=OBS, pipeline=det_pipeline(),
                  realizations=1, seed=3)],
            device=chain4,
            options=OPTIONS,
        )
        shard = shard_plans(plans, shard_size=1)[0]
        token = tmp_path / "always"
        unit = WorkUnit(shard=shard, options=OPTIONS, crash_token=str(token))
        monkeypatch.setattr(LocalShardExecutor, "MAX_RETRIES", 0)
        results = LocalShardExecutor(workers=1).run([unit])
        assert unit.key in results and len(results[unit.key]) == 1


# ---------------------------------------------------------------------------
# Configuration surface: constructors, configure(), CLI
# ---------------------------------------------------------------------------


class TestConfiguration:
    def test_constructor_validation(self):
        # Settings live in configure(), never on the backend instance.
        with pytest.raises(TypeError):
            DistributedBackend(dist_workers=2)
        with pytest.raises(ValueError):
            LocalShardExecutor(workers=0)

    def test_configure_roundtrip(self):
        configure(dist_workers=3)
        assert default_dist_workers() == 3
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

    def test_configured_defaults_reach_the_backend(self, chain4, monkeypatch):
        sizes = record_pool_sizes(monkeypatch)
        configure(dist_workers=2)
        assert batch_signature(
            run(mixed_tasks(), chain4, options=OPTIONS, backend="distributed", workers=3)
        ) == reference(chain4)
        assert sizes == [2]

    def test_run_workers_feed_the_fleet_size(self, chain4, monkeypatch):
        sizes = record_pool_sizes(monkeypatch)
        run(mixed_tasks(), chain4, options=OPTIONS, backend="distributed", workers=3)
        assert sizes == [3]

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
                ]
            )
            == 0
        )
        assert default_dist_workers() == 2
        assert default_backend() == "distributed"
        # The pinned knobs have no flags: argparse rejects them.
        for flag in ("--chunk-shots", "--dist-shard-size"):
            with pytest.raises(SystemExit) as exc:
                main(["list", flag, "4"])
            assert exc.value.code == 2

    def test_cli_rejects_bad_counts(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["list", "--dist-workers", "0"])
