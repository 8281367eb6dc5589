"""Unified runtime: pipelines, plans, backends, batched runs, sweeps.

The pieces fit together like this::

    from repro.runtime import CADD, CAEC, Pipeline, Sweep, Task, Twirl, run

    # 1. a compilation recipe: a named strategy or a custom pass pipeline
    pipeline = Pipeline([Twirl(), CADD(), CAEC()])   # or pipeline="ca_ec+dd"

    # 2. tasks: circuit + what to measure + statistics
    tasks = [
        Task(circ, observables={"z": "IIZ"}, pipeline=pipeline,
             realizations=8, seed=k)
        for k, circ in enumerate(circuits)
    ]

    # 3. one batched, backend-agnostic run; `workers` processes run the units
    batch = run(tasks, device, backend="trajectory", workers=4)

Under the hood ``run()`` is a plan/execute split: a shared
:func:`~repro.runtime.plan.compile_tasks` stage produces frozen
:class:`~repro.runtime.plan.ExecutionPlan` artifacts (compiled serially,
once per task for deterministic pipelines), and every backend consumes
the same plans; ``workers`` processes fan out only the simulation units.
Grid-shaped experiments declare a :class:`~repro.runtime.sweep.Sweep`
instead of hand-rolling task lists.

See :mod:`repro.runtime.task` for how a task's ``seed`` feeds the
simulator and the realization stream.
"""

from .backends import (
    BACKENDS,
    Backend,
    DensityBackend,
    TrajectoryBackend,
    VectorizedBackend,
    get_backend,
)
from .distributed import DistributedBackend, LocalShardExecutor
from .passes import CADD, CAEC, AlignedDD, Orient, Pass, StaggeredDD, Twirl
from .pipeline import IDENTITY, STRATEGIES, Pipeline, as_pipeline, pipeline_for
from .plan import (
    ExecutionPlan,
    PlanShard,
    PlanUnit,
    compile_tasks,
    plan_options,
    shard_plans,
)
from .run import (
    PLAN_CACHE,
    configure,
    default_backend,
    default_chunk_shots,
    default_compile_mode,
    default_compile_workers,
    default_dist_connect,
    default_dist_inner,
    default_dist_serve,
    default_dist_shard_size,
    default_dist_workers,
    default_workers,
    plan_cache_mode,
    run,
)
from .sweep import Sweep, SweepResult
from .task import BatchResult, Task, TaskResult

__all__ = [
    "BACKENDS",
    "Backend",
    "DensityBackend",
    "DistributedBackend",
    "LocalShardExecutor",
    "TrajectoryBackend",
    "VectorizedBackend",
    "get_backend",
    "CADD",
    "CAEC",
    "AlignedDD",
    "Orient",
    "Pass",
    "StaggeredDD",
    "Twirl",
    "IDENTITY",
    "STRATEGIES",
    "Pipeline",
    "as_pipeline",
    "pipeline_for",
    "PLAN_CACHE",
    "ExecutionPlan",
    "PlanShard",
    "PlanUnit",
    "compile_tasks",
    "plan_options",
    "shard_plans",
    "configure",
    "default_backend",
    "default_chunk_shots",
    "default_compile_mode",
    "default_compile_workers",
    "default_dist_connect",
    "default_dist_inner",
    "default_dist_serve",
    "default_dist_shard_size",
    "default_dist_workers",
    "default_workers",
    "plan_cache_mode",
    "run",
    "Sweep",
    "SweepResult",
    "BatchResult",
    "Task",
    "TaskResult",
]
