"""The runtime's one fan-out: plan shards on a pool of worker processes.

Independently seeded realizations share no state, so with ``workers > 1``
:meth:`~repro.runtime.backends.Backend.execute_plans` hands its plans to
:func:`execute_pooled`, which cuts them into self-contained
:class:`~repro.runtime.plan.PlanShard` work units, runs them on a
``ProcessPoolExecutor`` (each worker runs the backend's own
:meth:`~repro.runtime.backends.Backend.run_unit`) and reassembles the
outcomes in realization order for the backend's aggregation::

    batch = run(tasks, device, backend="density", workers=4)

Worker-process crashes are recovered by re-queueing the lost shards onto a
fresh pool (and, as a last resort, executing them inline), so a run always
completes; each re-queue is logged at WARNING on the ``"repro"`` logger.
Per-realization seeds are derived from the plan at compile time — never
from the worker — so results are bit-for-bit identical to serial execution
for every worker count and failure/recovery history. The
``"distributed"`` backend is ``"vectorized"`` that always runs through the
pool, even at one worker.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.executor import SimOptions
from .backends import Backend, UnitOutcome, VectorizedBackend
from .plan import ExecutionPlan, PlanShard, shard_plans
from .run import default_dist_workers
from .task import TaskResult

#: ``(plan_index, shard_index)`` — how shard results are keyed and merged.
ShardKey = Tuple[int, int]

#: Shard sizing targets this many shards per worker: small enough to
#: load-balance stragglers and cheap re-queues, large enough that
#: per-shard pickling overhead stays amortized.
SHARDS_PER_WORKER = 4

log = logging.getLogger("repro")


@dataclass(frozen=True)
class WorkUnit:
    """A shard plus the backend class and options a worker runs it under.

    ``backend`` is a :class:`~repro.runtime.backends.Backend` class (classes
    pickle by reference); ``options`` are the batch-level options.
    ``crash_token`` is a failure-injection hook for the recovery tests: the
    first *worker* that picks the unit up creates the token file and dies
    abruptly (``os._exit``), so the shard takes the re-queue path once and
    then executes normally. Inline (coordinator-side) execution ignores it.
    """

    shard: PlanShard
    options: SimOptions
    backend: type
    crash_token: Optional[str] = None

    @property
    def key(self) -> ShardKey:
        return (self.shard.plan_index, self.shard.shard_index)


def execute_work_unit(unit: WorkUnit, in_worker: bool = True) -> List[UnitOutcome]:
    """Run every simulation unit of one shard on the unit's backend.

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
    backend = unit.backend()
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
        for attempt in range(self.MAX_RETRIES + 1):
            if not pending:
                break
            if attempt:
                log.warning(
                    "a worker process died: re-queueing %d lost shard(s) on a fresh pool "
                    "(retry %d of %d)", len(pending), attempt, self.MAX_RETRIES,
                )
            pending = self._round(pending, results)
        if pending:
            log.warning(
                "a worker process died: running %d lost shard(s) inline after %d retries",
                len(pending), self.MAX_RETRIES,
            )
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


def execute_pooled(
    backend: Backend, plans: Sequence[ExecutionPlan], options: SimOptions, workers: int
) -> List[List[UnitOutcome]]:
    """Run the plans' units on ``workers`` processes; outcomes per plan.

    Shards are sized for :data:`SHARDS_PER_WORKER` per worker, and their
    outcomes come back in realization order, the order serial execution
    produces, so the caller's aggregation sees the same lists.
    """
    total_units = sum(len(plan.units) for plan in plans)
    shard_size = max(1, -(-total_units // (workers * SHARDS_PER_WORKER)))
    shards = shard_plans(plans, shard_size)
    log.debug(
        "execute_plans: %d units on a pool of %d worker processes, %d shards of up to %d units",
        total_units, workers, len(shards), shard_size,
    )
    units = [
        WorkUnit(shard, options, type(backend), backend._crash_token) for shard in shards
    ]
    outcomes = LocalShardExecutor(workers).run(units)

    # Shards are sorted by (plan_index, shard_index), so a plain ordered
    # walk reproduces exactly the unit order serial execution uses.
    per_plan: List[List[UnitOutcome]] = [[] for _ in plans]
    for shard in shards:
        per_plan[shard.plan_index].extend(outcomes[(shard.plan_index, shard.shard_index)])
    return per_plan


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class DistributedBackend(VectorizedBackend):
    """``"vectorized"`` that always runs through the process pool.

    Every batch goes to :func:`execute_pooled`, even at one worker, so the
    shard, pickle and pool path can be timed on its own.
    ``configure(dist_workers=n)`` sets the pool size; unset, it follows the
    run's ``workers``.

    Example:
        >>> run(tasks, device, backend="distributed", workers=4)  # doctest: +SKIP
    """

    name = "distributed"

    def execute_plans(
        self,
        plans: Sequence[ExecutionPlan],
        options: Optional[SimOptions] = None,
        workers: int = 1,
    ) -> List[TaskResult]:
        """Shard the plans, execute them on the pool, merge the results."""
        # Defined here rather than inherited: perfbench wraps each class's own.
        return super().execute_plans(plans, options, workers)

    def _pool_size(self, workers: int, units: int) -> int:
        return default_dist_workers() or max(workers, 1)
