"""Work units and results for the batched runtime.

A :class:`Task` bundles one circuit (or realization factory) with what to
measure, how many twirl realizations to average, and which compilation
pipeline to apply. :func:`repro.runtime.run` executes a list of tasks on a
backend and returns a :class:`BatchResult` of per-task
:class:`TaskResult` objects (the same shape as ``SimResult``, plus run
metadata).

Seed semantics (chosen to match the legacy entry points bit-for-bit):

* ``pipeline is None`` and ``realizations == 1`` — the circuit runs as-is
  and ``seed`` (or ``options.seed``) seeds the simulator directly, like
  ``expectation_values`` / ``bit_probabilities``.
* otherwise — ``seed`` seeds the realization stream: each realization
  compiles from that stream, then draws a simulator sub-seed from it, like
  ``average_over_realizations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.schedule import ScheduledCircuit
from ..device.calibration import Device
from ..pauli.pauli import Pauli
from ..sim.executor import SimResult
from ..utils.rng import SeedLike
from .pipeline import PipelineLike

CircuitLike = Union[Circuit, ScheduledCircuit]
#: ``factory(rng) -> circuit`` producing fresh realizations (legacy style).
RealizationFactory = Callable[[np.random.Generator], CircuitLike]


@dataclass
class Task:
    """One batched work item: circuit, measurement, pipeline, statistics.

    Exactly one of ``circuit`` / ``factory`` and exactly one of
    ``observables`` / ``bit_targets`` must be given. ``observables`` maps
    names to Pauli labels (or ``Pauli`` objects); ``bit_targets`` maps
    names to ``{qubit: bit}`` assignments. ``device`` overrides the batch
    device for this task (e.g. an ideal reference). ``shots`` overrides
    ``options.shots``.
    """

    circuit: Optional[CircuitLike] = None
    observables: Optional[Dict[str, Union[str, Pauli]]] = None
    bit_targets: Optional[Dict[str, Dict[int, int]]] = None
    pipeline: PipelineLike = None
    realizations: int = 1
    seed: SeedLike = None
    shots: Optional[int] = None
    device: Optional[Device] = None
    factory: Optional[RealizationFactory] = None
    name: Optional[str] = None

    def __post_init__(self):
        if (self.circuit is None) == (self.factory is None):
            raise ValueError("give exactly one of circuit or factory")
        if self.factory is not None and self.pipeline is not None:
            raise ValueError("factory tasks already compile themselves")
        if (self.observables is None) == (self.bit_targets is None):
            raise ValueError("give exactly one of observables or bit_targets")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1 (or None for options.shots)")


@dataclass
class TaskResult(SimResult):
    """A ``SimResult`` plus run metadata for one task."""

    name: Optional[str] = None
    backend: str = ""
    realizations: int = 1
    wall_time: float = 0.0

    def __repr__(self) -> str:
        body = ", ".join(
            f"{k}={v:+.6f}±{self.errors.get(k, 0.0):.6f}"
            for k, v in self.values.items()
        )
        label = f"{self.name!r}, " if self.name else ""
        return (
            f"TaskResult({label}{body}, shots={self.shots}, "
            f"realizations={self.realizations}, backend={self.backend!r})"
        )


@dataclass
class BatchResult:
    """Per-task results plus batch-level run metadata.

    ``compile_time`` / ``exec_time`` split the wall time between the shared
    compile stage (task -> :class:`~repro.runtime.plan.ExecutionPlan`) and
    backend execution, so sweeps can report where the time went (and the
    benchmarks can measure the plan cache).
    """

    results: List[TaskResult]
    backend: str = ""
    workers: int = 1
    wall_time: float = 0.0
    compile_time: float = 0.0
    exec_time: float = 0.0

    @property
    def shots(self) -> int:
        return sum(r.shots for r in self.results)

    def __getitem__(self, key: Union[int, str]) -> TaskResult:
        if isinstance(key, str):
            for result in self.results:
                if result.name == key:
                    return result
            raise KeyError(key)
        return self.results[key]

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __repr__(self) -> str:
        return (
            f"BatchResult({len(self.results)} tasks, backend={self.backend!r}, "
            f"workers={self.workers}, shots={self.shots}, "
            f"wall_time={self.wall_time:.3f}s)"
        )
