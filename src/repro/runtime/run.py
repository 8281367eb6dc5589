"""The batched ``run()`` entry point.

One call schedules, compiles, and simulates any number of tasks::

    from repro.runtime import Task, run

    batch = run(
        [
            Task(circ_a, observables={"z0": "IIIZ"}, pipeline="ca_ec+dd",
                 realizations=8, seed=1),
            Task(circ_b, bit_targets={"f": {0: 0, 1: 0}}, pipeline="ca_dd",
                 realizations=8, seed=2),
        ],
        device,
        backend="trajectory",
        workers=4,
    )
    batch[0].values, batch[0].errors, batch.compile_time, batch.exec_time

``run()`` is two stages glued together: the shared
:func:`~repro.runtime.plan.compile_tasks` stage turns tasks into frozen
:class:`~repro.runtime.plan.ExecutionPlan` artifacts (serially, in task
order), and the backend executes the plans. Only the execute stage fans
out: ``workers`` threads run the simulation units, each on its own
derived seed, so results are bit-for-bit identical for every ``workers``
count — it only changes wall time. Pre-built plans can be passed
in place of tasks to skip the compile stage entirely. :func:`configure`
sets process-wide defaults (the CLI flags map onto it one-to-one).
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple, Union

from ..device.calibration import Device
from ..sim.executor import SimOptions
from .backends import get_backend
from .plan import ExecutionPlan, compile_tasks, plan_options
from .task import BatchResult, Task

_AUTO = object()  # configure() sentinel: "leave this default unchanged"

_DEFAULTS = {
    "workers": 1,
    "backend": "vectorized",
    "dist_workers": None,  # None -> follow the run's ``workers``
}

# Knobs pinned to their one value in use; perfbench snapshots and restores them.
FIXED_SETTINGS = {
    "chunk_shots": None,
    "compile_mode": "thread",
    "compile_workers": None,
    "plan_cache": "memory",
    "dist_shard_size": None,
    "dist_serve": None,
    "dist_connect": (),
    "dist_inner": "vectorized",
}

# Inert: nothing is cached; perfbench calls ``PLAN_CACHE.clear()`` until ROADMAP item 4.
PLAN_CACHE = SimpleNamespace(clear=lambda: None)


def default_chunk_shots() -> None:
    """Always ``None``: vectorized chunks are sized from the amplitude budget."""
    return FIXED_SETTINGS["chunk_shots"]


def default_compile_mode() -> str:
    """Always ``"thread"``: compilation runs serially in the calling thread."""
    return FIXED_SETTINGS["compile_mode"]


def default_compile_workers() -> None:
    """Always ``None``: compilation is serial whatever the run's ``workers``."""
    return FIXED_SETTINGS["compile_workers"]


# Inert: nothing is cached; perfbench pins ``plan_cache`` until ROADMAP item 4.
def plan_cache_mode() -> str:
    """Always ``"memory"``, the one value ``configure(plan_cache=)`` accepts."""
    return FIXED_SETTINGS["plan_cache"]


def default_dist_shard_size() -> None:
    """Always ``None``: distributed shards are sized from the worker count."""
    return FIXED_SETTINGS["dist_shard_size"]


def default_dist_serve() -> None:
    """Always ``None``: there is no shard-queue server to bind."""
    return FIXED_SETTINGS["dist_serve"]


def default_dist_connect() -> Tuple[str, ...]:
    """Always ``()``: there are no remote workers to dial."""
    return FIXED_SETTINGS["dist_connect"]


def default_dist_inner() -> str:
    """Always ``"vectorized"``: the engine distributed workers run."""
    return FIXED_SETTINGS["dist_inner"]


def configure(
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    chunk_shots: Optional[int] = None,
    dist_workers=_AUTO,
    dist_shard_size: Optional[int] = None,
    dist_inner: Optional[str] = None,
    compile_mode: Optional[str] = None,
    compile_workers: Optional[int] = None,
    plan_cache: Optional[str] = None,
    dist_serve: Optional[str] = None,
    dist_connect: Optional[Sequence[str]] = None,
) -> None:
    """Set process-wide runtime defaults (used when ``run(...=None)``).

    The CLI's flags (``--workers``, ``--backend``, ``--dist-workers``) call
    this so every experiment driver inherits the parallelism and engine
    choice without plumbing parameters through.

    Args:
        workers: default simulation-thread count for ``run()`` (threads
            fan out the simulation units; compilation is serial).
        backend: default backend name, one of
            :data:`~repro.runtime.backends.BACKENDS` (validated immediately).
        dist_workers: worker-process count for the ``"distributed"``
            backend; ``None`` makes each run reuse its ``workers`` value.
        chunk_shots, compile_mode, compile_workers, plan_cache,
            dist_shard_size, dist_serve, dist_connect, dist_inner: fixed at
            their :data:`FIXED_SETTINGS` values; any other value raises
            ``ValueError``.

    Example:
        >>> configure(backend="vectorized", workers=4)
        >>> configure(dist_workers=None)  # back to following ``workers``
    """
    # Validate everything before mutating anything, so a failed configure()
    # never leaves partially-updated defaults behind.
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if backend is not None:
        get_backend(backend)  # fail at configure time, not first run()
    fixed = {
        "chunk_shots": chunk_shots,
        "compile_mode": compile_mode,
        "compile_workers": compile_workers,
        "plan_cache": plan_cache,
        "dist_shard_size": dist_shard_size,
        "dist_serve": dist_serve,
        "dist_connect": dist_connect,
        "dist_inner": dist_inner,
    }
    for name, value in fixed.items():
        if value is not None and value != FIXED_SETTINGS[name]:
            raise ValueError(
                f"{name}={value!r} was removed "
                f"(only {FIXED_SETTINGS[name]!r} is accepted)"
            )
    if dist_workers is not _AUTO and dist_workers is not None:
        dist_workers = int(dist_workers)
        if dist_workers < 1:
            raise ValueError("dist_workers must be >= 1 (or None for auto)")
    if workers is not None:
        _DEFAULTS["workers"] = int(workers)
    if backend is not None:
        _DEFAULTS["backend"] = backend
    if dist_workers is not _AUTO:
        _DEFAULTS["dist_workers"] = dist_workers


def default_workers() -> int:
    """The configured default simulation-worker count."""
    return _DEFAULTS["workers"]


def default_backend() -> str:
    """The configured default backend name."""
    return _DEFAULTS["backend"]


def default_dist_workers() -> Optional[int]:
    """The configured distributed worker count (``None`` = follow ``workers``)."""
    return _DEFAULTS["dist_workers"]


RunInput = Union[Task, ExecutionPlan, Sequence[Task], Sequence[ExecutionPlan]]


def run(
    tasks: RunInput,
    device: Optional[Device] = None,
    backend: Optional[str] = None,
    options: Optional[SimOptions] = None,
    workers: Optional[int] = None,
) -> BatchResult:
    """Execute tasks (or pre-built plans) on a backend; results keep order.

    Args:
        tasks: a :class:`~repro.runtime.task.Task`, a list of tasks, or
            pre-built :class:`~repro.runtime.plan.ExecutionPlan` objects
            (from :func:`~repro.runtime.plan.compile_tasks`). Plans skip
            the compile stage, so one set of plans can be executed on
            several backends; with ``options=None`` the plans'
            compile-time options are reused, which is what makes the
            two-stage path reproduce the one-stage one exactly
            (realization sub-seeds were already derived at compile time).
        device: default device for tasks that don't carry their own.
        backend: a name from :data:`~repro.runtime.backends.BACKENDS`
            (``"trajectory"``, ``"vectorized"``, ``"density"``,
            ``"distributed"``); ``None`` uses the configured default.
        options: :class:`~repro.sim.SimOptions` noise/sampling
            configuration (``None`` = defaults, or the plans' recorded
            options when executing plans).
        workers: threads that run the simulation units (compilation is
            serial). ``None`` uses the configured default.

    Returns:
        A :class:`~repro.runtime.task.BatchResult` with one
        :class:`~repro.runtime.task.TaskResult` per task, in task order,
        plus the compile/execute wall-time split.

    Results are bit-for-bit identical for every (backend × workers)
    combination — the knobs only change wall time.

    Example:
        >>> batch = run(
        ...     [Task(circ, observables={"z": "IZ"}, pipeline="ca_ec+dd",
        ...           realizations=8, seed=1)],
        ...     device, backend="vectorized", workers=4,
        ... )  # doctest: +SKIP
        >>> batch[0].values  # doctest: +SKIP
    """
    if isinstance(tasks, (Task, ExecutionPlan)):
        tasks = [tasks]
    items = list(tasks)
    engine = get_backend(backend if backend is not None else default_backend())
    count = default_workers() if workers is None else int(workers)
    if count < 1:
        raise ValueError("workers must be >= 1")

    start = time.perf_counter()
    if items and all(isinstance(item, ExecutionPlan) for item in items):
        # Pre-built plans: report the compile seconds recorded at build
        # time; wall_time covers only the work done in this call.
        plans: List[ExecutionPlan] = items
        if options is None:
            options = plan_options(plans)
        compile_time = sum(p.compile_seconds for p in plans)
    else:
        if any(isinstance(item, ExecutionPlan) for item in items):
            raise TypeError(
                "cannot mix Task and ExecutionPlan objects in one run(); "
                "compile the tasks first and concatenate the plans"
            )
        options = options or SimOptions()
        plans = compile_tasks(items, device=device, options=options)
        compile_time = time.perf_counter() - start
    exec_start = time.perf_counter()
    results = engine.execute_plans(plans, options=options, workers=count)
    exec_time = time.perf_counter() - exec_start
    return BatchResult(
        results=results,
        backend=engine.name,
        workers=count,
        wall_time=time.perf_counter() - start,
        compile_time=compile_time,
        exec_time=exec_time,
    )
