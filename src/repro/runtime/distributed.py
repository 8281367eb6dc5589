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

Workers execute shards on the ``"vectorized"`` engine, and results are
bit-for-bit identical to ``backend="vectorized"`` (and so to
``"trajectory"``) for every worker count and failure/recovery history.
Plans are cut into shards automatically. Per-realization seeds are
derived from the plan at compile time — never from the worker — and the
coordinator reassembles shard results in realization order before
aggregating, so scheduling can only ever change wall time. Each unit's
timing covers its engine build and its simulation, as in-process
execution's does, so ``TaskResult.wall_time`` means the same on every
backend.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.executor import SimOptions
from .backends import UnitOutcome, VectorizedBackend
from .plan import ExecutionPlan, PlanShard, plan_options, shard_plans
from .task import TaskResult

#: ``(plan_index, shard_index)`` — how shard results are keyed and merged.
ShardKey = Tuple[int, int]


@dataclass(frozen=True)
class WorkUnit:
    """A shard plus the simulation options a worker runs it under.

    ``options`` are the batch-level options, exactly as in-process
    execution uses them. ``crash_token`` is a failure-injection hook for
    the recovery tests: the first *worker* that picks the unit up creates
    the token file and dies abruptly (``os._exit``), so the shard exercises
    the re-queue path exactly once and then executes normally. Inline
    (coordinator-side) execution ignores it.
    """

    shard: PlanShard
    options: SimOptions
    crash_token: Optional[str] = None

    @property
    def key(self) -> ShardKey:
        return (self.shard.plan_index, self.shard.shard_index)


def execute_work_unit(unit: WorkUnit, in_worker: bool = True) -> List[UnitOutcome]:
    """Run every simulation unit of one shard on the vectorized engine.

    This is the kernel pool workers run (and the coordinator's inline
    drain, with ``in_worker=False`` so the crash hook cannot kill the
    coordinator). Each unit runs through
    :meth:`~repro.runtime.backends.Backend.run_unit`, exactly as in-process
    execution runs it, and results come back in unit order.
    """
    if in_worker and unit.crash_token is not None:
        try:
            fd = os.open(unit.crash_token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass  # already crashed once for this token; execute normally
        else:
            os.close(fd)
            os._exit(17)
    backend = VectorizedBackend()
    shard = unit.shard
    return [
        backend.run_unit(shard.kind, shard.payload, plan_unit, unit.options)
        for plan_unit in shard.units
    ]


# ---------------------------------------------------------------------------
# Executor: a process pool with crash recovery
# ---------------------------------------------------------------------------


class LocalShardExecutor:
    """Execute work units on a ``ProcessPoolExecutor``, surviving crashes.

    A worker process that dies mid-shard breaks the whole pool (that is how
    ``concurrent.futures`` reports it), taking every in-flight future with
    it. Recovery is simple because shards are idempotent — seeds come from
    the plan, so re-running one reproduces the same bits: unfinished shards
    are re-submitted to a fresh pool up to :attr:`MAX_RETRIES` times, and
    whatever still remains executes inline in the coordinator, where a
    genuine (deterministic) error finally surfaces with a clean traceback.
    """

    #: Fresh pools tried after the first one breaks, before the inline drain.
    MAX_RETRIES = 2

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def run(self, units: Sequence[WorkUnit]) -> Dict[ShardKey, List[UnitOutcome]]:
        results: Dict[ShardKey, List[UnitOutcome]] = {}
        pending = list(units)
        for _attempt in range(self.MAX_RETRIES + 1):
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


class DistributedBackend(VectorizedBackend):
    """Shard compiled plans across worker processes and merge results.

    The compile stage is untouched — plans come from the shared
    :func:`~repro.runtime.plan.compile_tasks` path like every other
    backend. Execution splits each plan's units into
    :class:`~repro.runtime.plan.PlanShard` blocks of about
    :data:`SHARDS_PER_WORKER` shards per worker, ships them to a
    :class:`LocalShardExecutor` process pool whose workers run the
    vectorized engine, and merges the partial results with the same
    associative aggregation the in-process backends use — after reordering
    them into realization order, which is what makes the output bit-for-bit
    identical to ``"vectorized"`` run locally, for every worker count and
    across worker crashes. ``configure(dist_workers=n)`` sets the pool
    size; unset, it follows the run's ``workers``.

    Example:
        >>> run(tasks, device, backend="distributed", workers=4)  # doctest: +SKIP
    """

    name = "distributed"

    #: Shard sizing targets this many shards per worker: small enough to
    #: load-balance stragglers and cheap re-queues, large enough that
    #: per-shard pickling overhead stays amortized.
    SHARDS_PER_WORKER = 4

    #: Failure-injection hook (see :class:`WorkUnit`); tests only.
    _crash_token: Optional[str] = None

    def execute_plans(
        self,
        plans: Sequence[ExecutionPlan],
        options: Optional[SimOptions] = None,
        workers: int = 1,
    ) -> List[TaskResult]:
        """Shard the plans, execute them distributed, merge the results."""
        from .run import default_dist_workers  # local: run.py imports us

        if options is None:
            options = plan_options(plans)
        options = options or SimOptions()
        count = default_dist_workers() or max(workers, 1)
        total_units = sum(len(plan.units) for plan in plans)
        shard_size = max(1, -(-total_units // (count * self.SHARDS_PER_WORKER)))
        shards = shard_plans(plans, shard_size)
        units = [
            WorkUnit(shard=shard, options=options, crash_token=self._crash_token)
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
