"""Declarative parameter sweeps over the batched runtime.

Every figure of the paper is a grid of (context, strategy, depth, ...)
points pushed through the same compile-then-simulate path. A
:class:`Sweep` names the axes once and builds the task grid declaratively,
replacing the hand-rolled ``tasks``/``keys``/``zip`` bookkeeping the
experiment drivers used to duplicate::

    from repro.runtime import Sweep, Task

    sweep = Sweep(
        {"strategy": ("none", "ca_ec"), "depth": (0, 4, 8)},
        lambda strategy, depth: Task(
            build(depth), observables={"z": "IZ"}, pipeline=strategy,
            realizations=8, seed=100 + depth,
        ),
        name="my-experiment",
    )
    result = sweep.run(device, backend="vectorized", workers=4)
    result[("ca_ec", 4)].values["z"]       # one grid point
    result.curve("z", strategy="ca_ec")    # series along the free axis
    result.to_json()                       # full keyed serialization

The builder is invoked in row-major axis order (last axis fastest), one
point at a time, which two kinds of builders rely on:

* stateful builders that consume a shared RNG (the layer-fidelity protocol
  compiles its sample circuits in stream order);
* sparse grids — returning ``None`` skips a point (e.g. a strategy that
  does not apply to a case).

``Sweep.run`` is a thin wrapper over :func:`repro.runtime.run`, so points
compile through the shared, serial plan stage. The run's backend, worker
count and compile/exec wall-time split live on
``result.batch`` (a :class:`~repro.runtime.task.BatchResult`), never in
``result.to_json()``, which holds values only.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..device.calibration import Device
from ..sim.executor import SimOptions
from .run import run
from .task import BatchResult, Task, TaskResult

Coord = Tuple[Any, ...]


def _json_value(value: Any) -> Any:
    """Coerce an axis value to something ``json.dump`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return str(value)


class Sweep:
    """A named-axis task grid: ``axes`` × ``build`` → one batched run.

    ``axes`` maps axis names to their value sequences (insertion order is
    the grid order). ``build`` receives one keyword argument per axis and
    returns the :class:`~repro.runtime.task.Task` for that point, or
    ``None`` to skip it.
    """

    def __init__(
        self,
        axes: Mapping[str, Sequence],
        build: Callable[..., Optional[Task]],
        name: Optional[str] = None,
    ):
        if not axes:
            raise ValueError("need at least one axis")
        self.axes: Dict[str, List] = {k: list(v) for k, v in axes.items()}
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            # Coordinates key the results; a repeated value would make two
            # grid points indistinguishable (and silently shadow one).
            if len(set(values)) != len(values):
                raise ValueError(f"axis {axis!r} has duplicate values")
        self.build = build
        self.name = name

    def points(self) -> List[Coord]:
        """Every grid coordinate, in row-major order (last axis fastest)."""
        return list(itertools.product(*self.axes.values()))

    def tasks(self) -> Tuple[List[Coord], List[Task]]:
        """Build the task grid; skipped (``None``) points are dropped."""
        coords: List[Coord] = []
        tasks: List[Task] = []
        names = list(self.axes)
        for point in self.points():
            task = self.build(**dict(zip(names, point)))
            if task is None:
                continue
            coords.append(point)
            tasks.append(task)
        if not tasks:
            raise ValueError("sweep built no tasks (every point returned None)")
        return coords, tasks

    def run(
        self,
        device: Optional[Device] = None,
        options: Optional[SimOptions] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> "SweepResult":
        """Execute the grid as one batched run and key the results.

        Args:
            device: default device for tasks without their own.
            options: simulation options shared by every grid point.
            backend: backend name (``None`` = configured default).
                ``"distributed"`` shards every grid point's realizations
                across worker processes, bit-identical to ``"trajectory"``.
            workers: threads that run the simulation units; compilation
                is serial (the ``"distributed"`` backend reads it as its
                worker-process count unless ``configure(dist_workers=...)``
                overrides). It never changes a value.

        Returns:
            A :class:`SweepResult` keying each grid point's
            :class:`~repro.runtime.task.TaskResult` by its coordinates.

        Example:
            >>> result = sweep.run(device, backend="vectorized",
            ...                    workers=4)  # doctest: +SKIP
            >>> result.curve("z", strategy="ca_ec")  # doctest: +SKIP
        """
        coords, tasks = self.tasks()
        batch = run(
            tasks,
            device=device,
            options=options,
            backend=backend,
            workers=workers,
        )
        return SweepResult(
            axes=self.axes, coords=coords, batch=batch, name=self.name
        )


@dataclass
class SweepResult:
    """Keyed, reshaped results of one sweep run."""

    axes: Dict[str, List]
    coords: List[Coord]
    batch: BatchResult
    name: Optional[str] = None
    _index: Dict[Coord, TaskResult] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = dict(zip(self.coords, self.batch.results))

    # -- lookup --------------------------------------------------------------

    def __getitem__(self, coord: Union[Coord, Any]) -> TaskResult:
        if not isinstance(coord, tuple):
            coord = (coord,)
        return self._index[coord]

    def __contains__(self, coord: Union[Coord, Any]) -> bool:
        if not isinstance(coord, tuple):
            coord = (coord,)
        return coord in self._index

    def get(self, **coords) -> TaskResult:
        """Look up one point by axis name: ``result.get(strategy="ca_ec", depth=4)``."""
        missing = set(self.axes) - set(coords)
        if missing or set(coords) - set(self.axes):
            raise KeyError(
                f"get() needs exactly the axes {list(self.axes)}, got {list(coords)}"
            )
        return self[tuple(coords[a] for a in self.axes)]

    def value(self, key: str, **coords) -> float:
        return self.get(**coords).values[key]

    def curve(self, key: str, **fixed) -> List[float]:
        """The series of ``key`` along the single axis left unfixed.

        Fix all axes but one by name; values follow the free axis's declared
        order. Looking up a point that was skipped at build time raises
        ``KeyError``.
        """
        unknown = set(fixed) - set(self.axes)
        if unknown:
            raise KeyError(f"unknown axes: {sorted(unknown)}")
        free = [a for a in self.axes if a not in fixed]
        if len(free) != 1:
            raise ValueError(
                f"curve() needs exactly one free axis, got {free or 'none'}"
            )
        axis = free[0]
        out = []
        for v in self.axes[axis]:
            coord = tuple(fixed[a] if a != axis else v for a in self.axes)
            out.append(self._index[coord].values[key])
        return out

    def __iter__(self):
        return iter(zip(self.coords, self.batch.results))

    def __len__(self) -> int:
        return len(self.coords)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> Dict:
        """A JSON-safe dict of values only: axes and per-point results.

        Nothing here depends on how the sweep ran, so the dict is identical
        for every backend and worker count; the run's backend, worker count
        and timings stay on :attr:`batch`.
        """
        return {
            "sweep": self.name,
            "axes": {k: [_json_value(v) for v in vs] for k, vs in self.axes.items()},
            "shots": self.batch.shots,
            "points": [
                {
                    "coords": {
                        axis: _json_value(v) for axis, v in zip(self.axes, coord)
                    },
                    "name": result.name,
                    "values": dict(result.values),
                    "errors": dict(result.errors),
                    "shots": result.shots,
                    "realizations": result.realizations,
                }
                for coord, result in zip(self.coords, self.batch.results)
            ],
        }

    def save_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2)
            handle.write("\n")

    def __repr__(self) -> str:
        label = f"{self.name!r}, " if self.name else ""
        dims = "×".join(str(len(v)) for v in self.axes.values())
        return (
            f"SweepResult({label}axes={list(self.axes)}, grid={dims}, "
            f"{len(self.coords)} points, backend={self.batch.backend!r})"
        )
