"""The runtime's one fan-out: plan shards on a pool of worker processes.

Independently seeded realizations share no state, so with ``workers > 1``
:meth:`~repro.runtime.backends.Backend.execute_plans` hands its plans to
:func:`execute_pooled`, which cuts them into self-contained
:class:`~repro.runtime.plan.PlanShard` work units, runs them on a
``ProcessPoolExecutor`` (each worker runs the backend's own
:meth:`~repro.runtime.backends.Backend.run_unit`) and reassembles the
outcomes in realization order for the backend's aggregation::

    batch = run(tasks, device, backend="density", workers=4)

The interpreter keeps one pool. The first pooled batch starts it, later
batches of the same size reuse it (its workers keep their warm caches),
and a batch of another size replaces it. Workers therefore see module
state as of the pool's start: a setting patched into a module afterwards
reaches them only once the pool is replaced or dropped
(:func:`drop_pool`). Their CPU affinity follows the caller's at every
batch, as a fresh fork's would. The pool shuts down when the interpreter
exits, and a forked child never uses its parent's pool. A batch ships
whole shards in at most ``workers * SHARDS_PER_WORKER`` futures.

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

import atexit
import heapq
import logging
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..sim.executor import SimOptions
from .backends import Backend, UnitOutcome, VectorizedBackend
from .plan import ExecutionPlan, PlanShard, shard_plans
from .run import default_dist_workers
from .task import TaskResult

#: ``(plan_index, shard_index)`` — how shard results are keyed and merged.
ShardKey = Tuple[int, int]

#: A batch targets this many futures per worker: shards are cut to about
#: that many, and whole shards are bundled so that no more ship. Enough to
#: balance uneven shards, few enough that per-future round trips stay
#: amortized.
SHARDS_PER_WORKER = 8

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
# Executor: the interpreter's process pool, with crash recovery
# ---------------------------------------------------------------------------

#: The interpreter's one pool, its size and the pid of the process that
#: started it (a forked child inherits the handle but must not use it).
#: The lock makes choosing the pool and submitting to it one step, so a
#: thread that replaces the pool never shuts it under another's submits.
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_owner = 0
_pool_lock = threading.Lock()


def _shared_pool(workers: int) -> Tuple[ProcessPoolExecutor, str]:
    """The pool of ``workers`` processes, started or replaced as needed.

    The caller holds ``_pool_lock``. Returns the pool and what was done to
    get it, for the decision log. A replaced pool finishes the futures
    already submitted to it before it shuts down.
    """
    global _pool, _pool_workers, _pool_owner
    if _pool is not None and _pool_owner != os.getpid():
        _pool = None  # the parent's pool, inherited across a fork
    if _pool is not None and _pool_workers == workers:
        return _pool, f"reusing the pool of {workers} worker processes"
    if _pool is None:
        action = f"starting a pool of {workers} worker processes"
    else:
        action = f"replacing the pool of {_pool_workers} worker processes with {workers}"
        old, _pool = _pool, None
        old.shutdown(wait=True)
    _pool = ProcessPoolExecutor(max_workers=workers)
    _pool_workers, _pool_owner = workers, os.getpid()
    return _pool, action


def drop_pool(pool: Optional[ProcessPoolExecutor] = None) -> None:
    """Shut down the interpreter's pool; the next pooled batch starts a new one.

    Given ``pool``, only while that is still the interpreter's pool. Runs
    at interpreter exit. In a forked child it only forgets the parent's
    pool.
    """
    global _pool
    with _pool_lock:
        if _pool is None or (pool is not None and pool is not _pool):
            return
        old, _pool = _pool, None
        if _pool_owner == os.getpid():
            old.shutdown(wait=True)


atexit.register(drop_pool)


def _bundles(units: Sequence[WorkUnit], count: int) -> List[List[WorkUnit]]:
    """Whole shards grouped into at most ``count`` bundles, heaviest first.

    A shard's cost is estimated as one per realization plus the
    realizations' moments. Each shard, heaviest first, joins the lightest
    bundle so far, so no shard is paired while there are no more shards
    than ``count``; shipping the heaviest bundle first keeps the batch's
    last future short.
    """
    costs = [sum(1 + len(u.scheduled) for u in unit.shard.units) for unit in units]
    count = min(count, len(units))
    bundles: List[List[WorkUnit]] = [[] for _ in range(count)]
    loads = [(0, b) for b in range(count)]  # a heap of (cost so far, bundle)
    for i in sorted(range(len(units)), key=lambda i: -costs[i]):
        load, b = loads[0]
        bundles[b].append(units[i])
        heapq.heapreplace(loads, (load + costs[i], b))
    return [bundles[b] for _load, b in sorted(loads, reverse=True) if bundles[b]]


def _execute_bundle(
    units: Sequence[WorkUnit], cpus: Optional[Set[int]]
) -> List[List[UnitOutcome]]:
    """The pool workers' kernel: every shard of one future, in order.

    ``cpus`` is the caller's CPU affinity as of the batch. A fresh fork
    inherits it; a reused worker takes it up here, so that it runs where
    the caller may run now, not where it could when the pool started.
    """
    if cpus is not None and os.sched_getaffinity(0) != cpus:
        os.sched_setaffinity(0, cpus)
    return [execute_work_unit(unit) for unit in units]


class LocalShardExecutor:
    """Execute work units on the interpreter's process pool, surviving crashes.

    A worker process that dies mid-shard breaks the whole pool (that is how
    ``concurrent.futures`` reports it), taking every in-flight future with
    it. Recovery is simple because shards are idempotent — seeds come from
    the plan, so re-running one reproduces the same bits: the broken pool
    is dropped, unfinished shards are re-submitted to a fresh pool up to
    :attr:`MAX_RETRIES` times, and whatever still remains executes inline
    in the coordinator, where a genuine (deterministic) error finally
    surfaces with a clean traceback.
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
        """One submission to the pool; returns the units lost to a crash."""
        bundles = _bundles(units, self.workers * SHARDS_PER_WORKER)
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        crashed: List[WorkUnit] = []
        futures = []
        with _pool_lock:
            pool, action = _shared_pool(self.workers)
            log.debug(
                "%s: %d futures of up to %d shards",
                action, len(bundles), max(len(bundle) for bundle in bundles),
            )
            for bundle in bundles:
                try:
                    futures.append((bundle, pool.submit(_execute_bundle, bundle, cpus)))
                except BrokenProcessPool:  # a worker died before this submit
                    crashed.extend(bundle)
        for bundle, future in futures:
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                crashed.extend(bundle)
            else:
                for unit, outcome in zip(bundle, outcomes):
                    results[unit.key] = outcome
        if crashed:
            drop_pool(pool)
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
