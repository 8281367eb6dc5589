"""Execution backends, selected by name.

A :class:`Backend` turns a list of :class:`~repro.runtime.task.Task`
objects into :class:`~repro.runtime.task.TaskResult` objects. Four
ship with the library; :data:`BACKENDS` lists their names:

* ``"trajectory"`` — the Monte-Carlo trajectory executor
  (:class:`repro.sim.Executor`), the readable reference engine;
  statistical errors shrink with ``shots``.
* ``"vectorized"`` — the default: the batched trajectory engine
  (:class:`repro.sim.VectorizedExecutor`): all shots evolve together along
  the leading axis of one ``(shots, 2**n)`` array, sharded into
  bounded-memory chunks across ``workers``; bit-for-bit equal to
  ``"trajectory"`` for any seed and any worker count.
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
plans into results. Simulations are independently seeded, so fanning them
out across ``workers`` threads never changes a value. Units that share a
scheduled circuit (a deterministic pipeline's realizations — possibly
across tasks, via the plan cache) share one engine, and with it the
trajectory engines' cached static coherent accumulation.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.schedule import ScheduledCircuit
from ..device.calibration import Device
from ..sim.density import DensityExecutor
from ..sim.executor import Executor, SimOptions, SimResult
from ..sim.vectorized import VectorizedExecutor
from ..utils.rng import SeedLike
from .plan import ExecutionPlan, PlanUnit, plan_options
from .task import Task, TaskResult


class Backend(ABC):
    """Common interface: ``execute_plans(plans, ...) -> list[TaskResult]``.

    A backend owns only the *execute* side of the plan/execute split: it
    turns frozen :class:`~repro.runtime.plan.ExecutionPlan` artifacts into
    :class:`~repro.runtime.task.TaskResult` objects
    (:meth:`execute_plans`); :func:`~repro.runtime.run.run` compiles the
    plans and selects the backend by name. Implementations provide two
    hooks — :meth:`_make_engine` (build a simulator for one scheduled
    circuit) and :meth:`_execute` (run one seeded simulation) — and inherit
    batching, worker fan-out, engine sharing, and realization aggregation.
    """

    name: str = ""
    #: False for exact backends whose results ignore the unit seed; the
    #: executor then collapses a deterministic pipeline's realizations into
    #: one simulation instead of repeating identical exact evolutions.
    seed_sensitive: bool = True

    # -- execution -------------------------------------------------------------

    def execute_plans(
        self,
        plans: Sequence[ExecutionPlan],
        options: Optional[SimOptions] = None,
        workers: int = 1,
    ) -> List[TaskResult]:
        """Execute pre-built plans and return results in plan order.

        Exact backends (``seed_sensitive = False``) run only the first unit
        of a collapsible plan — repeating identical exact evolutions is pure
        waste. Engines are shared between units that share a scheduled
        circuit: a deterministic pipeline's realizations, and any plans the
        content-addressed cache resolved to the same artifact.
        ``options=None`` reuses the options the plans were compiled under.
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

        # Shared engines (same scheduled-circuit object) are built once,
        # sequentially, before the fan-out; per-unit engines are built
        # inside the job so that work parallelizes with the simulations.
        counts: Dict[Tuple[int, int], int] = {}
        for _index, unit in jobs:
            key = (id(unit.scheduled), id(unit.device))
            counts[key] = counts.get(key, 0) + 1
        engines: Dict[Tuple[int, int], Any] = {}
        for _index, unit in jobs:
            key = (id(unit.scheduled), id(unit.device))
            if counts[key] > 1 and key not in engines:
                engines[key] = self._make_engine(unit.scheduled, unit.device, options)

        # One job: backends that can shard *within* a simulation (the
        # vectorized engine's chunked shot axis) get the whole budget.
        unit_workers = workers if len(jobs) == 1 else 1

        def job(entry: Tuple[int, PlanUnit]) -> Tuple[SimResult, float]:
            index, unit = entry
            start = time.perf_counter()
            engine = engines.get((id(unit.scheduled), id(unit.device)))
            if engine is None:
                engine = self._make_engine(unit.scheduled, unit.device, options)
            plan = plans[index]
            result = self._execute(
                engine, plan.kind, plan.payload, plan.task.shots, unit.seed,
                workers=unit_workers,
            )
            return result, time.perf_counter() - start

        if workers > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(job, jobs))
        else:
            outcomes = [job(entry) for entry in jobs]

        per_plan: List[List[Tuple[SimResult, float]]] = [[] for _ in plans]
        for (index, _unit), outcome in zip(jobs, outcomes):
            per_plan[index].append(outcome)
        return [
            self._aggregate(plan.task, results, plan.direct)
            for plan, results in zip(plans, per_plan)
        ]

    # -- aggregation -----------------------------------------------------------

    def _aggregate(
        self, task: Task, results: List[Tuple[SimResult, float]], is_direct: bool
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

    # -- backend-specific hooks ------------------------------------------------

    @abstractmethod
    def _make_engine(
        self, scheduled: ScheduledCircuit, device: Device, options: SimOptions
    ) -> Any:
        """Build the simulation engine for one scheduled circuit."""

    @abstractmethod
    def _execute(
        self,
        engine: Any,
        kind: str,
        payload: Dict,
        shots: Optional[int],
        seed: SeedLike,
        workers: int = 1,
    ) -> SimResult:
        """Run one seeded simulation and return a ``SimResult``.

        ``workers`` is the thread budget a backend may use to shard the
        simulation internally (results must not depend on it).
        """


class TrajectoryBackend(Backend):
    """Monte-Carlo trajectories via :class:`repro.sim.Executor`."""

    name = "trajectory"

    def _make_engine(self, scheduled, device, options) -> Executor:
        return Executor(scheduled, device, options)

    def _execute(self, engine, kind, payload, shots, seed, workers=1) -> SimResult:
        if kind == "expectations":
            return engine.expectations(payload, shots=shots, seed=seed)
        return engine.probabilities(payload, shots=shots, seed=seed)


class VectorizedBackend(Backend):
    """Batched trajectories via :class:`repro.sim.VectorizedExecutor`.

    Seed-for-seed bit-identical to :class:`TrajectoryBackend`: the same
    noise draws are consumed from the same streams in the same order, and
    every batched floating-point operation reproduces the scalar bits.
    Chunk sizes follow the engine's amplitude budget and the worker split,
    and never change a value.
    """

    name = "vectorized"

    def _make_engine(self, scheduled, device, options) -> VectorizedExecutor:
        return VectorizedExecutor(scheduled, device, options)

    def _execute(self, engine, kind, payload, shots, seed, workers=1) -> SimResult:
        if kind == "expectations":
            return engine.expectations(
                payload, shots=shots, seed=seed, workers=workers
            )
        return engine.probabilities(payload, shots=shots, seed=seed, workers=workers)


class DensityBackend(Backend):
    """Exact density-matrix evolution via :class:`repro.sim.DensityExecutor`.

    Values are exact under the averaged noise model (zero variance), so
    per-unit errors are 0 and ``shots`` is reported as 0. Twirl sampling
    still follows the task's realization stream, so realization averages
    use the same twirls as the trajectory backend.
    """

    name = "density"
    seed_sensitive = False

    def _make_engine(self, scheduled, device, options) -> DensityExecutor:
        return DensityExecutor(scheduled, device, options)

    def _execute(self, engine, kind, payload, shots, seed, workers=1) -> SimResult:
        if kind == "expectations":
            values = engine.expectations(payload)
        else:
            values = engine.probabilities(payload)
        return SimResult(
            values={k: float(v) for k, v in values.items()},
            errors={k: 0.0 for k in values},
            shots=0,
        )


#: The names :func:`get_backend` (and so ``run(backend=...)``) accepts.
BACKENDS = ("trajectory", "vectorized", "density", "distributed")


def get_backend(name: str) -> Backend:
    """A fresh instance of the backend called ``name`` (one of :data:`BACKENDS`)."""
    from .distributed import DistributedBackend  # local: distributed.py imports us

    for cls in (TrajectoryBackend, VectorizedBackend, DensityBackend, DistributedBackend):
        if name == cls.name:
            return cls()
    raise ValueError(f"unknown backend {name!r}; choose from {sorted(BACKENDS)}")
