"""Distributed plan execution: shard plans across worker processes.

The paper's headline numbers average thousands of independently-seeded
noise realizations per circuit — an embarrassingly parallel workload whose
natural shipping unit already exists: the frozen, picklable
:class:`~repro.runtime.plan.ExecutionPlan`. This module splits compiled
plans into self-contained :class:`~repro.runtime.plan.PlanShard` work
units, executes them on a ``ProcessPoolExecutor``, and merges the partial
results with the runtime's existing associative aggregation::

    batch = run(tasks, device, backend="distributed", workers=4)

Worker-process crashes are recovered by re-queueing the lost shards onto a
fresh pool (and, as a last resort, executing them inline), so a run always
completes.

Results are bit-for-bit identical to ``backend="trajectory"`` (or to
whichever ``inner`` backend executes the shards) for every shard size,
worker count, and failure/recovery history: per-realization seeds are
derived from the plan at compile time — never from the worker — and the
coordinator reassembles shard results in realization order before
aggregating, so scheduling can only ever change wall time.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim.executor import SimOptions, SimResult
from .backends import Backend, get_backend
from .plan import ExecutionPlan, PlanShard, plan_options, shard_plans
from .task import TaskResult

#: ``(plan_index, shard_index)`` — how shard results are keyed and merged.
ShardKey = Tuple[int, int]
#: One executed unit: the simulation result and its wall time.
UnitOutcome = Tuple[SimResult, float]


@dataclass(frozen=True)
class WorkUnit:
    """A shard plus the execution context a worker needs to run it.

    ``options`` overrides the shard's compile-time options for this
    execution (the backend passes the batch-level options here, mirroring
    in-process execution); ``None`` falls back to ``shard.options``.
    ``crash_token`` is a failure-injection hook for the recovery tests: the
    first *worker* that picks the unit up creates the token file and dies
    abruptly (``os._exit``), so the shard exercises the re-queue path
    exactly once and then executes normally. Inline (coordinator-side)
    execution ignores it.
    """

    shard: PlanShard
    inner: str
    options: Optional[SimOptions] = None
    crash_token: Optional[str] = None

    @property
    def key(self) -> ShardKey:
        return (self.shard.plan_index, self.shard.shard_index)


def execute_work_unit(unit: WorkUnit, in_worker: bool = True) -> List[UnitOutcome]:
    """Run every simulation unit of one shard on the inner backend.

    This is the kernel pool workers run (and the coordinator's inline
    drain, with ``in_worker=False`` so the crash hook cannot kill the
    coordinator). Engines are shared between units whose
    scheduled circuits are the same object — pickling preserves that
    sharing within a shard — and results come back in unit order.
    """
    if in_worker and unit.crash_token is not None:
        try:
            fd = os.open(unit.crash_token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass  # already crashed once for this token; execute normally
        else:
            os.close(fd)
            os._exit(17)
    backend = get_backend(unit.inner)
    shard = unit.shard
    options = unit.options if unit.options is not None else shard.options
    options = options or SimOptions()
    engines: Dict[Tuple[int, int], Any] = {}
    outcomes: List[UnitOutcome] = []
    for plan_unit in shard.units:
        key = (id(plan_unit.scheduled), id(plan_unit.device))
        engine = engines.get(key)
        if engine is None:
            engine = backend._make_engine(plan_unit.scheduled, plan_unit.device, options)
            engines[key] = engine
        start = time.perf_counter()
        result = backend._execute(
            engine, shard.kind, shard.payload, shard.shots, plan_unit.seed
        )
        outcomes.append((result, time.perf_counter() - start))
    return outcomes


# ---------------------------------------------------------------------------
# Executor: a process pool with crash recovery
# ---------------------------------------------------------------------------


class LocalShardExecutor:
    """Execute work units on a ``ProcessPoolExecutor``, surviving crashes.

    A worker process that dies mid-shard breaks the whole pool (that is how
    ``concurrent.futures`` reports it), taking every in-flight future with
    it. Recovery is simple because shards are idempotent — seeds come from
    the plan, so re-running one reproduces the same bits: unfinished shards
    are re-submitted to a fresh pool up to ``max_retries`` times, and
    whatever still remains executes inline in the coordinator, where a
    genuine (deterministic) error finally surfaces with a clean traceback.
    """

    def __init__(self, workers: int, max_retries: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.max_retries = max_retries

    def run(self, units: Sequence[WorkUnit]) -> Dict[ShardKey, List[UnitOutcome]]:
        results: Dict[ShardKey, List[UnitOutcome]] = {}
        pending = list(units)
        for _attempt in range(self.max_retries + 1):
            if not pending:
                break
            pending = self._round(pending, results)
        for unit in pending:  # last resort: always completes (or raises)
            results[unit.key] = execute_work_unit(unit, in_worker=False)
        return results

    def _round(
        self,
        units: List[WorkUnit],
        results: Dict[ShardKey, List[UnitOutcome]],
    ) -> List[WorkUnit]:
        """One pool generation; returns the units lost to a crash."""
        crashed: List[WorkUnit] = []
        with ProcessPoolExecutor(max_workers=min(self.workers, len(units))) as pool:
            futures = [(unit, pool.submit(execute_work_unit, unit)) for unit in units]
            for unit, future in futures:
                try:
                    results[unit.key] = future.result()
                except BrokenProcessPool:
                    crashed.append(unit)
        return crashed


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class DistributedBackend(Backend):
    """Shard compiled plans across worker processes and merge results.

    The compile stage is untouched — plans come from the shared
    :func:`~repro.runtime.plan.compile_tasks` path like every other
    backend. Execution splits each plan's units into
    :class:`~repro.runtime.plan.PlanShard` blocks, ships them to a
    :class:`LocalShardExecutor` process pool, and merges the partial
    results with the same associative aggregation the in-process backends
    use — after reordering them into realization order, which is what makes
    the output bit-for-bit identical to the ``inner`` backend run locally,
    for every (shard size × worker count) combination and across worker
    crashes.

    Args:
        inner: backend that executes the shards inside each worker
            (default ``"vectorized"``; ``"trajectory"`` works identically).
        dist_workers: worker processes. ``None`` defers to
            ``configure(dist_workers=...)``, then to the ``workers``
            argument of the run.
        shard_size: realizations per shard. ``None`` auto-sizes to roughly
            :data:`SHARDS_PER_WORKER` shards per worker so re-queues and
            stragglers load-balance.

    Example:
        >>> run(tasks, device, backend="distributed", workers=4)  # doctest: +SKIP
        >>> configure(dist_workers=2, dist_shard_size=4)  # doctest: +SKIP
    """

    name = "distributed"

    #: Auto shard sizing targets this many shards per worker: small enough
    #: to load-balance stragglers and cheap re-queues, large enough that
    #: per-shard pickling overhead stays amortized.
    SHARDS_PER_WORKER = 4

    def __init__(
        self,
        inner: Optional[str] = None,
        dist_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
    ):
        if inner == self.name:
            raise ValueError("distributed cannot be its own inner backend")
        if dist_workers is not None and dist_workers < 1:
            raise ValueError("dist_workers must be >= 1")
        if shard_size is not None and shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.inner = inner
        self.dist_workers = dist_workers
        self.shard_size = shard_size
        #: Failure-injection hook (see :class:`WorkUnit`); tests only.
        self._crash_token: Optional[str] = None

    # The ABC hooks delegate to the inner backend so a DistributedBackend
    # still works anywhere a plain Backend is expected; the real fan-out
    # lives in execute_plans.
    def _make_engine(self, scheduled, device, options):
        return self._inner_backend()._make_engine(scheduled, device, options)

    def _execute(self, engine, kind, payload, shots, seed, workers=1):
        return self._inner_backend()._execute(
            engine, kind, payload, shots, seed, workers=workers
        )

    def _inner_backend(self) -> Backend:
        from .run import default_dist_inner

        return get_backend(self.inner or default_dist_inner())

    def _resolve(self, workers: int):
        """Fold instance args, configured defaults, and run args."""
        from .run import default_dist_shard_size, default_dist_workers

        count = self.dist_workers or default_dist_workers() or max(workers, 1)
        shard_size = self.shard_size or default_dist_shard_size()
        return count, shard_size

    def execute_plans(
        self,
        plans: Sequence[ExecutionPlan],
        options: Optional[SimOptions] = None,
        workers: int = 1,
    ) -> List[TaskResult]:
        """Shard the plans, execute them distributed, merge the results."""
        if options is None:
            options = plan_options(plans)
        options = options or SimOptions()
        inner = self._inner_backend()
        count, shard_size = self._resolve(workers)
        # Size from the units that will actually ship: collapsible plans
        # reduce to one unit for seed-insensitive inner backends.
        total_units = sum(
            1 if plan.collapsible and not inner.seed_sensitive else len(plan.units)
            for plan in plans
        )
        if shard_size is None:
            shard_size = max(
                1, -(-total_units // max(1, count * self.SHARDS_PER_WORKER))
            )
        shards = shard_plans(plans, shard_size, seed_sensitive=inner.seed_sensitive)
        units = [
            WorkUnit(
                shard=shard,
                inner=inner.name,
                options=options,
                crash_token=self._crash_token,
            )
            for shard in shards
        ]
        outcomes = LocalShardExecutor(count).run(units)

        # Reassemble in realization order before aggregating: shards are
        # already sorted by (plan_index, shard_index), so a plain ordered
        # walk reproduces exactly the unit order local execution uses.
        per_plan: List[List[UnitOutcome]] = [[] for _ in plans]
        for shard in shards:
            key = (shard.plan_index, shard.shard_index)
            per_plan[shard.plan_index].extend(outcomes[key])
        return [
            self._aggregate(plan.task, results, plan.direct)
            for plan, results in zip(plans, per_plan)
        ]
