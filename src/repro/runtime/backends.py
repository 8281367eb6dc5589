"""Execution backends, selected by name.

A :class:`Backend` turns a list of :class:`~repro.runtime.task.Task`
objects into :class:`~repro.runtime.task.TaskResult` objects. Four
ship with the library; :data:`BACKENDS` lists their names:

* ``"trajectory"`` — the Monte-Carlo trajectory executor
  (:class:`repro.sim.Executor`), the readable reference engine;
  statistical errors shrink with ``shots``.
* ``"vectorized"`` — the default: the batched trajectory engine
  (:class:`repro.sim.VectorizedExecutor`): all shots evolve together along
  the leading axis of one ``(shots, 2**n)`` array, in bounded-memory
  chunks; bit-for-bit equal to ``"trajectory"`` for any seed and any
  worker count.
* ``"density"`` — the exact density-matrix simulator
  (:class:`repro.sim.DensityExecutor`); zero-variance values for small
  systems (``shots`` is ignored and reported as 0).
* ``"distributed"`` — shards compiled plans across a local pool of worker
  processes that run ``"vectorized"`` and merges the partial results
  (:class:`repro.runtime.distributed.DistributedBackend`); bit-for-bit
  identical to ``"vectorized"`` for every worker count.

Backends take no constructor arguments: the process-wide settings live in
:func:`~repro.runtime.run.configure` alone.

Backends compile nothing: the shared
:func:`~repro.runtime.plan.compile_tasks` stage produces frozen
:class:`~repro.runtime.plan.ExecutionPlan` artifacts (scheduled circuits,
normalized payloads, derived seeds) and :meth:`Backend.execute_plans` turns
plans into results. Every unit runs the same way on every backend: the
backend's :attr:`Backend.engine` is built from the unit's scheduled
circuit, its device and the run's options (with the unit's seed folded
in), then called with the measurement payload alone. Simulations are
independently seeded, so fanning the units out across ``workers``
threads (the runtime's one thread pool) never changes a value.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.density import DensityExecutor
from ..sim.executor import Executor, SimOptions, SimResult
from ..sim.vectorized import VectorizedExecutor
from .plan import ExecutionPlan, PlanUnit, plan_options
from .task import Task, TaskResult

#: One executed unit: the simulation result and its wall time.
UnitOutcome = Tuple[SimResult, float]


class Backend:
    """Common interface: ``execute_plans(plans, ...) -> list[TaskResult]``.

    A backend owns only the *execute* side of the plan/execute split: it
    turns frozen :class:`~repro.runtime.plan.ExecutionPlan` artifacts into
    :class:`~repro.runtime.task.TaskResult` objects
    (:meth:`execute_plans`); :func:`~repro.runtime.run.run` compiles the
    plans and selects the backend by name. A backend names its simulation
    :attr:`engine` class and inherits batching, worker fan-out and
    realization aggregation.
    """

    name: str = ""
    #: The simulator class: built as ``engine(scheduled, device, options)``
    #: and called as ``engine.expectations(observables)`` or
    #: ``engine.probabilities(targets)``, returning a ``SimResult``.
    engine: type
    #: False for exact backends whose results ignore the unit seed; the
    #: executor then collapses a deterministic pipeline's realizations into
    #: one simulation instead of repeating identical exact evolutions.
    seed_sensitive: bool = True

    # -- execution -------------------------------------------------------------

    def run_unit(
        self, kind: str, payload: Dict, unit: PlanUnit, options: SimOptions
    ) -> UnitOutcome:
        """Build this backend's engine for one unit, run it, and time both.

        A unit seed other than ``None`` replaces ``options.seed``; ``kind``
        (``"expectations"`` or ``"probabilities"``) names the engine method
        the payload goes to.
        """
        start = time.perf_counter()
        if unit.seed is not None:
            options = replace(options, seed=unit.seed)
        engine = self.engine(unit.scheduled, unit.device, options)
        result = getattr(engine, kind)(payload)
        return result, time.perf_counter() - start

    def execute_plans(
        self,
        plans: Sequence[ExecutionPlan],
        options: Optional[SimOptions] = None,
        workers: int = 1,
    ) -> List[TaskResult]:
        """Execute pre-built plans and return results in plan order.

        Exact backends (``seed_sensitive = False``) run only the first unit
        of a collapsible plan — repeating identical exact evolutions is pure
        waste. ``options=None`` reuses the options the plans were compiled
        under; ``workers > 1`` runs the units on that many threads.
        """
        if options is None:
            options = plan_options(plans)
        options = options or SimOptions()
        jobs: List[Tuple[int, PlanUnit]] = []
        for index, plan in enumerate(plans):
            units = plan.units
            if plan.collapsible and not self.seed_sensitive:
                units = units[:1]
            jobs.extend((index, unit) for unit in units)

        def job(entry: Tuple[int, PlanUnit]) -> UnitOutcome:
            index, unit = entry
            return self.run_unit(plans[index].kind, plans[index].payload, unit, options)

        if workers > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(job, jobs))
        else:
            outcomes = [job(entry) for entry in jobs]

        per_plan: List[List[UnitOutcome]] = [[] for _ in plans]
        for (index, _unit), outcome in zip(jobs, outcomes):
            per_plan[index].append(outcome)
        return [
            self._aggregate(plan.task, results, plan.direct)
            for plan, results in zip(plans, per_plan)
        ]

    # -- aggregation -----------------------------------------------------------

    def _aggregate(
        self, task: Task, results: List[UnitOutcome], is_direct: bool
    ) -> TaskResult:
        elapsed = sum(t for _r, t in results)
        if is_direct:
            result = results[0][0]
            return TaskResult(
                values=result.values,
                errors=result.errors,
                shots=result.shots,
                name=task.name,
                backend=self.name,
                realizations=1,
                wall_time=elapsed,
            )
        # Pool realization means: mean and standard error over realizations.
        pooled: Dict[str, List[float]] = {}
        total = 0
        for result, _t in results:
            for key, value in result.values.items():
                pooled.setdefault(key, []).append(value)
            total += result.shots
        values = {k: float(np.mean(v)) for k, v in pooled.items()}
        errors = {
            k: float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
            for k, v in pooled.items()
        }
        return TaskResult(
            values=values,
            errors=errors,
            shots=total,
            name=task.name,
            backend=self.name,
            realizations=len(results),
            wall_time=elapsed,
        )


class TrajectoryBackend(Backend):
    """Monte-Carlo trajectories via :class:`repro.sim.Executor`."""

    name = "trajectory"
    engine = Executor


class VectorizedBackend(Backend):
    """Batched trajectories via :class:`repro.sim.VectorizedExecutor`.

    Seed-for-seed bit-identical to :class:`TrajectoryBackend`: the same
    noise draws are consumed from the same streams in the same order, and
    every batched floating-point operation reproduces the scalar bits.
    Chunk sizes follow the engine's amplitude budget and never change a
    value.
    """

    name = "vectorized"
    engine = VectorizedExecutor


class DensityBackend(Backend):
    """Exact density-matrix evolution via :class:`repro.sim.DensityExecutor`.

    Values are exact under the averaged noise model (zero variance), so
    per-unit errors are 0 and ``shots`` is reported as 0. Twirl sampling
    still follows the task's realization stream, so realization averages
    use the same twirls as the trajectory backend.
    """

    name = "density"
    engine = DensityExecutor
    seed_sensitive = False


#: The names :func:`get_backend` (and so ``run(backend=...)``) accepts.
BACKENDS = ("trajectory", "vectorized", "density", "distributed")


def get_backend(name: str) -> Backend:
    """A fresh instance of the backend called ``name`` (one of :data:`BACKENDS`)."""
    from .distributed import DistributedBackend  # local: distributed.py imports us

    for cls in (TrajectoryBackend, VectorizedBackend, DensityBackend, DistributedBackend):
        if name == cls.name:
            return cls()
    raise ValueError(f"unknown backend {name!r}; choose from {sorted(BACKENDS)}")
