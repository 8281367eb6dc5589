"""The process fan-out: sharding, the pool, failure recovery, parity.

The contract under test: ``run(tasks, device, workers=n)`` on any backend,
and ``backend="distributed"``, are bit-for-bit identical to serial
execution for every (shard size × worker count) combination — including
after a simulated worker crash — because per-realization seeds are derived
from the plan, never from the worker. Shard sizes are not a setting, so
the parity grid forces them by wrapping the pool's call to ``shard_plans``.
The interpreter keeps one pool across batches; ``conftest.py`` drops it
after every test.
"""

import logging
import os
import pickle
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro import Pass, Pipeline, SimOptions, Task, compile_tasks, run
from repro.runtime import (
    BACKENDS,
    DistributedBackend,
    LocalShardExecutor,
    VectorizedBackend,
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


def record_pools(monkeypatch):
    """Record every OS process pool the runtime starts, and count its futures."""
    pools = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.size = max_workers
            self.futures = 0
            pools.append(self)

        def submit(self, fn, *args, **kwargs):
            self.futures += 1
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(distributed_module, "ProcessPoolExecutor", Recording)
    return pools


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
        unit = WorkUnit(shard=shard, options=OPTIONS, backend=VectorizedBackend)
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
        unit = WorkUnit(
            shard=shard, options=OPTIONS, backend=VectorizedBackend, crash_token=str(token)
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


class TestFanOut:
    """``workers > 1`` sends every backend's units through the one pool."""

    @pytest.mark.parametrize("backend", ["trajectory", "vectorized", "density"])
    def test_workers_start_one_pool(self, chain4, monkeypatch, caplog, backend):
        pools = record_pools(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            serial = run(mixed_tasks(), chain4, options=OPTIONS, backend=backend, workers=1)
            assert pools == []
            pooled = run(mixed_tasks(), chain4, options=OPTIONS, backend=backend, workers=2)
        assert [pool.size for pool in pools] == [2]
        assert batch_signature(pooled) == batch_signature(serial)
        assert "units serially in process" in caplog.text
        assert "on a pool of 2 worker processes" in caplog.text

    def test_collapsible_density_plan_ships_one_unit(self, chain4, monkeypatch):
        shipped = []

        def recording(plans, size):
            shards = shard_plans(plans, size)
            shipped.extend(shards)
            return shards

        monkeypatch.setattr(distributed_module, "shard_plans", recording)
        tasks = [
            Task(layered_circuit(), observables=OBS, pipeline=det_pipeline(),
                 realizations=3, seed=seed)
            for seed in (1, 2)
        ]
        batch = run(tasks, chain4, options=OPTIONS, backend="density", workers=2)
        assert [len(shard.units) for shard in shipped] == [1, 1]
        assert [result.realizations for result in batch] == [1, 1]


# ---------------------------------------------------------------------------
# The pool's lifetime: one per interpreter, a few futures per worker
# ---------------------------------------------------------------------------

#: Runs a pooled batch, forks a child that runs one on a pool of its own,
#: runs a second batch on the first pool, and prints its live workers' pids.
_EXIT_SCRIPT = """
import multiprocessing, os, signal
from repro import SimOptions, run
from repro.device import linear_chain, synthetic_device
from repro.runtime import distributed
from conftest import batch_signature, mixed_tasks

device = synthetic_device(linear_chain(4), name="chain4", seed=103)
def batch():
    return batch_signature(run(mixed_tasks(), device, options=SimOptions(shots=8, seed=5), workers=2))
first = batch()
pool = distributed._pool
child = os.fork()
if child == 0:
    signal.alarm(60)  # a child that reused its parent's pool would hang
    same = batch() == first and distributed._pool is not pool
    distributed.drop_pool()
    os._exit(0 if same else 1)
assert os.waitpid(child, 0)[1] == 0, "the forked child's batch failed"
assert batch() == first and distributed._pool is pool
print(*[worker.pid for worker in multiprocessing.active_children()])
"""


def _alive(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


class TestPoolLifetime:
    """One OS pool per interpreter: reused, replaced on a size change, shut at exit."""

    def test_consecutive_batches_share_one_pool(self, chain4, monkeypatch, caplog):
        pools = record_pools(monkeypatch)
        serial = batch_signature(run(mixed_tasks(), chain4, options=OPTIONS, workers=1))
        with caplog.at_level(logging.DEBUG, logger="repro"):
            first = run(mixed_tasks(), chain4, options=OPTIONS, workers=2)
            second = run(mixed_tasks(), chain4, options=OPTIONS, workers=2)
        assert [pool.size for pool in pools] == [2]
        assert batch_signature(first) == batch_signature(second) == serial
        assert "starting a pool of 2 worker processes" in caplog.text
        assert "reusing the pool of 2 worker processes" in caplog.text

    def test_a_size_change_replaces_the_pool(self, chain4, monkeypatch, caplog):
        pools = record_pools(monkeypatch)
        run(mixed_tasks(), chain4, options=OPTIONS, workers=2)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            got = run(mixed_tasks(), chain4, options=OPTIONS, workers=3)
        assert [pool.size for pool in pools] == [2, 3]
        assert "replacing the pool of 2 worker processes with 3" in caplog.text
        with pytest.raises(RuntimeError, match="shutdown"):
            pools[0].submit(int)  # the old pool was shut down
        assert batch_signature(got) == reference(chain4)

    def test_many_one_unit_plans_ship_few_futures(self, chain4, monkeypatch):
        pools = record_pools(monkeypatch)
        tasks = [Task(layered_circuit(), observables=OBS, seed=seed) for seed in range(30)]
        pooled = run(tasks, chain4, options=OPTIONS, workers=2)
        assert 0 < pools[0].futures <= 2 * distributed_module.SHARDS_PER_WORKER
        serial = run(tasks, chain4, options=OPTIONS, workers=1)
        assert batch_signature(pooled) == batch_signature(serial)

    def test_bundles_partition_the_shards_heaviest_first(self, chain4):
        plans = compile_tasks(mixed_tasks(), device=chain4, options=OPTIONS)
        units = [
            WorkUnit(shard, OPTIONS, VectorizedBackend) for shard in shard_plans(plans, 1)
        ]

        def cost(bundle):
            return sum(1 + len(u.scheduled) for unit in bundle for u in unit.shard.units)

        alone = distributed_module._bundles(units, len(units))
        assert sorted(unit.key for [unit] in alone) == sorted(unit.key for unit in units)
        pairs = distributed_module._bundles(units, 3)
        assert len(pairs) == 3
        assert sorted(unit.key for bundle in pairs for unit in bundle) == sorted(
            unit.key for unit in units
        )
        assert [cost(b) for b in pairs] == sorted((cost(b) for b in pairs), reverse=True)

    def test_threads_share_and_replace_the_pool_safely(self, chain4):
        serial = reference(chain4, backend="vectorized")
        got = {}

        def batch(index):
            # Two sizes, so threads also replace the pool under each other.
            workers = 2 + index % 2
            got[index] = batch_signature(
                run(mixed_tasks(), chain4, options=OPTIONS, workers=workers)
            )

        threads = [threading.Thread(target=batch, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {i: serial for i in range(6)}

    def test_reused_workers_follow_the_callers_cpu_affinity(
        self, chain4, tmp_path, monkeypatch
    ):
        if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs CPU affinity and two CPUs")
        seen = tmp_path / "affinity"
        run_unit = VectorizedBackend.run_unit

        def recording(self, *args):
            with open(seen, "a") as out:
                out.write(f"{sorted(os.sched_getaffinity(0))}\n")
            return run_unit(self, *args)

        monkeypatch.setattr(VectorizedBackend, "run_unit", recording)
        cpus = os.sched_getaffinity(0)
        run(mixed_tasks(), chain4, options=OPTIONS, workers=2)  # forks the workers
        seen.unlink()
        one = {min(cpus)}
        os.sched_setaffinity(0, one)
        try:
            run(mixed_tasks(), chain4, options=OPTIONS, workers=2)
        finally:
            os.sched_setaffinity(0, cpus)
        assert set(seen.read_text().splitlines()) == {str(sorted(one))}

    def test_exit_and_fork_leave_no_worker_behind(self):
        tests = Path(__file__).resolve().parent
        env = dict(os.environ)
        path = (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH"))
        env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
        done = subprocess.run(
            [sys.executable, "-c", _EXIT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        workers = [int(pid) for pid in done.stdout.split()]
        assert len(workers) == 2  # the pool outlived its batches
        assert not [pid for pid in workers if _alive(pid)]


# ---------------------------------------------------------------------------
# Worker-failure paths: crashes re-queue, runs complete, bits don't move
# ---------------------------------------------------------------------------


class TestFailureRecovery:
    def test_local_pool_survives_worker_crash(self, chain4, tmp_path, monkeypatch, caplog):
        token = tmp_path / "crash-local"
        monkeypatch.setattr(DistributedBackend, "_crash_token", str(token))
        force_shard_size(monkeypatch, 1)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert distributed(chain4, dist_workers=2) == reference(chain4)
        assert token.exists()  # the crash really happened
        requeues = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert requeues and "re-queueing" in requeues[0] and "retry 1 of 2" in requeues[0]

    def test_crash_requeues_then_the_next_batch_gets_a_fresh_pool(
        self, chain4, tmp_path, monkeypatch, caplog
    ):
        pools = record_pools(monkeypatch)
        token = tmp_path / "crash-reuse"
        monkeypatch.setattr(VectorizedBackend, "_crash_token", str(token))
        serial = reference(chain4, backend="vectorized")
        with caplog.at_level(logging.WARNING, logger="repro"):
            crashed = run(mixed_tasks(), chain4, options=OPTIONS, workers=2)
        assert token.exists()  # the crash really happened
        assert batch_signature(crashed) == serial
        requeues = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert requeues and "re-queueing" in requeues[0]
        assert len(pools) == 2  # the broken pool, then its replacement
        again = run(mixed_tasks(), chain4, options=OPTIONS, workers=2)
        assert batch_signature(again) == serial
        assert len(pools) == 2 and pools[1].futures > 0  # not the broken pool

    def test_local_executor_inline_fallback(self, chain4, tmp_path, monkeypatch, caplog):
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
        unit = WorkUnit(
            shard=shard, options=OPTIONS, backend=VectorizedBackend, crash_token=str(token)
        )
        monkeypatch.setattr(LocalShardExecutor, "MAX_RETRIES", 0)
        with caplog.at_level(logging.WARNING, logger="repro"):
            results = LocalShardExecutor(workers=1).run([unit])
        assert unit.key in results and len(results[unit.key]) == 1
        assert [r.getMessage() for r in caplog.records] == [
            "a worker process died: running 1 lost shard(s) inline after 0 retries"
        ]


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
        pools = record_pools(monkeypatch)
        configure(dist_workers=2)
        assert batch_signature(
            run(mixed_tasks(), chain4, options=OPTIONS, backend="distributed", workers=3)
        ) == reference(chain4)
        assert [pool.size for pool in pools] == [2]

    def test_run_workers_feed_the_fleet_size(self, chain4, monkeypatch):
        pools = record_pools(monkeypatch)
        run(mixed_tasks(), chain4, options=OPTIONS, backend="distributed", workers=3)
        assert [pool.size for pool in pools] == [3]

    def test_cli_flags_configure_the_runtime(self):
        from repro.experiments.__main__ import main

        assert main(["list", "--backend", "distributed"]) == 0
        assert default_backend() == "distributed"
        # The pinned knobs have no flags: argparse rejects them.
        for flag in ("--chunk-shots", "--dist-shard-size"):
            with pytest.raises(SystemExit) as exc:
                main(["list", flag, "4"])
            assert exc.value.code == 2
