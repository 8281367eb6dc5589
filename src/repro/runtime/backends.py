"""Execution backends, selected by name.

A :class:`Backend` turns frozen :class:`~repro.runtime.plan.ExecutionPlan`
artifacts (from the shared :func:`~repro.runtime.plan.compile_tasks`
stage) into :class:`~repro.runtime.task.TaskResult` objects. Four ship
with the library; :data:`BACKENDS` lists their names:

* ``"trajectory"`` — :class:`repro.sim.Executor`, the readable reference
  Monte-Carlo engine; statistical errors shrink with ``shots``.
* ``"vectorized"`` — the default: :class:`repro.sim.VectorizedExecutor`
  evolves all shots together, bit-for-bit equal to ``"trajectory"``.
* ``"density"`` — :class:`repro.sim.DensityExecutor`, exact and
  zero-variance for small systems (``shots`` is reported as 0).
* ``"distributed"`` — ``"vectorized"`` that always runs through the
  process pool (:class:`repro.runtime.distributed.DistributedBackend`).

Backends take no constructor arguments: the process-wide settings live in
:func:`~repro.runtime.run.configure` alone. Every unit runs the same way
on every backend: the backend's :attr:`Backend.engine` is built from the
unit's scheduled circuit, its device and the run's options (with the
unit's seed folded in), then called with the measurement payload alone.
Simulations are independently seeded, so fanning the units out across
``workers`` worker processes (:mod:`repro.runtime.distributed`) never
changes a value.
"""

from __future__ import annotations

import logging
import math
import time
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

log = logging.getLogger("repro")


class Backend:
    """Common interface: ``execute_plans(plans, ...) -> list[TaskResult]``.

    A backend owns only the *execute* side of the plan/execute split: it
    turns frozen :class:`~repro.runtime.plan.ExecutionPlan` artifacts into
    :class:`~repro.runtime.task.TaskResult` objects
    (:meth:`execute_plans`); :func:`~repro.runtime.run.run` compiles the
    plans and selects the backend by name. A backend names its simulation
    :attr:`engine` class and inherits batching, the process fan-out and
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

    #: Failure-injection hook for the pool (see ``distributed.WorkUnit``); tests only.
    _crash_token: Optional[str] = None

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
        under. ``workers > 1`` runs the units on that many worker processes
        (:mod:`repro.runtime.distributed`); 1 runs them in this process.
        """
        if options is None:
            options = plan_options(plans)
        options = options or SimOptions()
        if not self.seed_sensitive:
            plans = [replace(p, units=p.units[:1]) if p.collapsible else p for p in plans]
        units = sum(len(plan.units) for plan in plans)
        pool = self._pool_size(workers, units)
        if pool is None:
            log.debug("execute_plans: %d units serially in process", units)
            outcomes = [
                [self.run_unit(plan.kind, plan.payload, unit, options) for unit in plan.units]
                for plan in plans
            ]
        else:
            from . import distributed  # local: distributed.py imports us

            outcomes = distributed.execute_pooled(self, plans, options, pool)
        return [
            self._aggregate(plan.task, results, plan.direct)
            for plan, results in zip(plans, outcomes)
        ]

    def _pool_size(self, workers: int, units: int) -> Optional[int]:
        """Worker processes for a batch of ``units`` units (``None``: run in process)."""
        return workers if workers > 1 and units > 1 else None

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
