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
:class:`~repro.runtime.plan.ExecutionPlan` artifacts (thread-parallel
across tasks and content-cached in memory for deterministic pipelines),
and the backend executes the plans. Both stages fan out over the same
``workers`` threads and preserve each task's private RNG stream, so
results are bit-for-bit identical for every ``workers`` count and cache
temperature — they only change wall time. Pre-built plans can be passed
in place of tasks to skip the compile stage entirely. :func:`configure`
sets process-wide defaults (the CLI flags map onto it one-to-one).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

from ..device.calibration import Device
from ..sim.executor import SimOptions
from .backends import BackendLike, get_backend
from .plan import ExecutionPlan, compile_tasks, plan_options
from .task import BatchResult, Task

_AUTO = object()  # configure() sentinel: "leave this default unchanged"

_DEFAULTS = {
    "workers": 1,
    "backend": "trajectory",
    "chunk_shots": None,
    "dist_workers": None,  # None -> follow the run's ``workers``
    "dist_shard_size": None,  # None -> auto-size per worker count
    "dist_serve": None,  # None -> local (process pool) transport
    "dist_connect": (),  # () -> don't dial out to listening workers
    "dist_inner": "trajectory",
}

# Removed knobs, pinned to their one value because perfbench snapshots and restores them.
FIXED_SETTINGS = {"compile_mode": "thread", "compile_workers": None, "plan_cache": "memory"}


def default_compile_mode() -> str:
    """Always ``"thread"``: compilation fans out over the run's threads."""
    return FIXED_SETTINGS["compile_mode"]


def default_compile_workers() -> None:
    """Always ``None``: compilation uses the run's ``workers``."""
    return FIXED_SETTINGS["compile_workers"]


def plan_cache_mode() -> str:
    """Always ``"memory"``: :data:`~repro.runtime.plan.PLAN_CACHE` is in-memory."""
    return FIXED_SETTINGS["plan_cache"]


def configure(
    workers: Optional[int] = None,
    backend: Optional[BackendLike] = None,
    chunk_shots=_AUTO,
    dist_workers=_AUTO,
    dist_shard_size=_AUTO,
    dist_serve: Optional[str] = _AUTO,
    dist_connect: Union[str, Sequence[str], None] = _AUTO,
    dist_inner: Optional[str] = None,
    compile_mode: Optional[str] = None,
    compile_workers: Optional[int] = None,
    plan_cache: Optional[str] = None,
) -> None:
    """Set process-wide runtime defaults (used when ``run(...=None)``).

    The CLI's flags (``--workers``, ``--backend``, ``--chunk-shots``,
    ``--dist-workers``, ``--dist-shard-size``, ``--dist-serve``,
    ``--dist-connect``) call this so every experiment driver inherits the
    parallelism, engine choice, and memory bound without plumbing
    parameters through.

    Args:
        workers: default simulation-thread count for ``run()``.
        backend: default backend name or instance (validated immediately).
        chunk_shots: vectorized backend's resident states per chunk;
            ``None`` restores auto-sizing (~32 MiB of amplitudes).
        dist_workers: worker-process count for the ``"distributed"``
            backend; ``None`` makes each run reuse its ``workers`` value.
        dist_shard_size: realizations per distributed shard; ``None``
            restores auto-sizing (a few shards per worker). Results never
            depend on it.
        dist_serve: ``"host:port"`` to serve the distributed shard queue
            at (other hosts join with ``python -m
            repro.runtime.distributed worker --connect host:port``);
            ``None`` restores the local process-pool transport.
        dist_connect: address(es) of listening workers (``worker
            --listen``) the coordinator should dial out to; ``None`` or
            ``()`` restores not dialing.
        dist_inner: backend that executes shards inside distributed
            workers (default ``"trajectory"``; ``"vectorized"`` is
            bit-identical).
        compile_mode, compile_workers, plan_cache: fixed at ``"thread"``,
            ``None`` and ``"memory"`` (see ``FIXED_SETTINGS``); any
            other value raises ``ValueError``.

    Example:
        >>> configure(backend="vectorized", workers=4)
        >>> configure(chunk_shots=None)  # back to auto-sizing
    """
    # Validate everything before mutating anything, so a failed configure()
    # never leaves partially-updated defaults behind.
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if backend is not None:
        get_backend(backend)  # fail at configure time, not first run()
    if chunk_shots is not _AUTO and chunk_shots is not None:
        chunk_shots = int(chunk_shots)
        if chunk_shots < 1:
            raise ValueError("chunk_shots must be >= 1 (or None for auto)")
    for name, value in (
        ("compile_mode", compile_mode),
        ("compile_workers", compile_workers),
        ("plan_cache", plan_cache),
    ):
        if value is not None and value != FIXED_SETTINGS[name]:
            raise ValueError(
                f"{name}={value!r} was removed: compilation always runs on the "
                f"run's worker threads through the in-memory plan cache "
                f"(only {FIXED_SETTINGS[name]!r} is accepted)"
            )
    if dist_workers is not _AUTO and dist_workers is not None:
        dist_workers = int(dist_workers)
        if dist_workers < 1:
            raise ValueError("dist_workers must be >= 1 (or None for auto)")
    if dist_shard_size is not _AUTO and dist_shard_size is not None:
        dist_shard_size = int(dist_shard_size)
        if dist_shard_size < 1:
            raise ValueError("dist_shard_size must be >= 1 (or None for auto)")
    if dist_serve is not _AUTO and dist_serve is not None:
        from .distributed import parse_address

        parse_address(dist_serve)  # fail at configure time, not first run()
    if dist_connect is not _AUTO and dist_connect is not None:
        from .distributed import parse_address

        if isinstance(dist_connect, str):
            dist_connect = (dist_connect,)
        dist_connect = tuple(dist_connect)
        for address in dist_connect:
            parse_address(address)
    if dist_inner is not None:
        if dist_inner == "distributed":
            raise ValueError("dist_inner cannot itself be 'distributed'")
        get_backend(dist_inner)
    if workers is not None:
        _DEFAULTS["workers"] = int(workers)
    if backend is not None:
        _DEFAULTS["backend"] = backend
    if chunk_shots is not _AUTO:
        _DEFAULTS["chunk_shots"] = chunk_shots
    if dist_workers is not _AUTO:
        _DEFAULTS["dist_workers"] = dist_workers
    if dist_shard_size is not _AUTO:
        _DEFAULTS["dist_shard_size"] = dist_shard_size
    if dist_serve is not _AUTO:
        _DEFAULTS["dist_serve"] = dist_serve
    if dist_connect is not _AUTO:
        _DEFAULTS["dist_connect"] = () if dist_connect is None else dist_connect
    if dist_inner is not None:
        _DEFAULTS["dist_inner"] = dist_inner


def default_workers() -> int:
    """The configured default simulation-worker count."""
    return _DEFAULTS["workers"]


def default_backend() -> BackendLike:
    """The configured default backend (name or instance)."""
    return _DEFAULTS["backend"]


def default_chunk_shots() -> Optional[int]:
    """The configured vectorized chunk bound (``None`` = auto-size)."""
    return _DEFAULTS["chunk_shots"]


def default_dist_workers() -> Optional[int]:
    """The configured distributed worker count (``None`` = follow ``workers``)."""
    return _DEFAULTS["dist_workers"]


def default_dist_shard_size() -> Optional[int]:
    """The configured distributed shard size (``None`` = auto-size)."""
    return _DEFAULTS["dist_shard_size"]


def default_dist_serve() -> Optional[str]:
    """The configured shard-queue serve address (``None`` = local transport)."""
    return _DEFAULTS["dist_serve"]


def default_dist_connect() -> Sequence[str]:
    """The configured listening-worker addresses to dial (may be empty)."""
    return _DEFAULTS["dist_connect"]


def default_dist_inner() -> str:
    """The configured inner backend distributed workers execute with."""
    return _DEFAULTS["dist_inner"]


RunInput = Union[Task, ExecutionPlan, Sequence[Task], Sequence[ExecutionPlan]]


def run(
    tasks: RunInput,
    device: Optional[Device] = None,
    backend: Optional[BackendLike] = None,
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
        backend: a registered name (``"trajectory"``, ``"vectorized"``,
            ``"density"``) or a :class:`~repro.runtime.backends.Backend`
            instance; ``None`` uses the configured default.
        options: :class:`~repro.sim.SimOptions` noise/sampling
            configuration (``None`` = defaults, or the plans' recorded
            options when executing plans).
        workers: compile and simulation fan-out (threads). ``None`` uses
            the configured default.

    Returns:
        A :class:`~repro.runtime.task.BatchResult` with one
        :class:`~repro.runtime.task.TaskResult` per task, in task order,
        plus the compile/execute wall-time split.

    Results are bit-for-bit identical for every (backend × workers × cache
    temperature) combination — the knobs only change wall time.

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
        plans = compile_tasks(items, device=device, options=options, workers=count)
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
