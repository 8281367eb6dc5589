"""Frozen execution plans: the compile side of the plan/execute split.

Compilation and execution used to be interleaved inside each
:class:`~repro.runtime.backends.Backend`. This module lifts the compile
stage out into a shared, backend-agnostic artifact:

* :func:`compile_tasks` turns a list of :class:`~repro.runtime.task.Task`
  objects into :class:`ExecutionPlan` artifacts — the scheduled circuit of
  every realization, the normalized measurement payload, and the derived
  per-realization seeds. Every backend (``trajectory``, ``vectorized``,
  ``density``, ``distributed``) consumes the same plans.
* Compilation is serial: tasks compile in order, each from its own RNG
  stream (seeded from ``task.seed``), and each task's realizations compile
  in stream order. The compile stage is Python-bound, so threads would
  only contend for the GIL; ``run(workers=)`` fans out the simulation
  units alone.
* A deterministic pipeline compiles and schedules a task once, and every
  realization of that task shares the one scheduled circuit. Nothing is
  kept between tasks or between calls: each call compiles afresh.
  Simulation options do not affect compilation or scheduling; they are
  applied at engine-construction time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.schedule import ScheduledCircuit, schedule
from ..device.calibration import Device
from ..pauli.pauli import Pauli
from ..sim.executor import SimOptions
from ..utils.rng import SeedLike, as_generator
from .pipeline import as_pipeline
from .task import CircuitLike, Task


# ---------------------------------------------------------------------------
# Plan artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanUnit:
    """One seeded simulation job inside a plan.

    Units of a deterministic-pipeline task share one ``scheduled`` object.
    ``seed`` (``None`` for a raw task without its own seed) replaces the
    run's ``options.seed`` when the unit's engine is built.
    """

    scheduled: ScheduledCircuit
    device: Device
    seed: SeedLike


@dataclass(frozen=True)
class ExecutionPlan:
    """A frozen, backend-agnostic compilation of one task.

    Attributes:
        task: the originating task (name/realizations metadata).
        kind: ``"expectations"`` or ``"probabilities"``.
        payload: normalized observables (``Pauli`` objects) or bit targets.
        units: the seeded simulation jobs, in realization order.
        direct: raw single-circuit execution — the unit seed (which may be
            ``None``) goes straight to the simulator.
        collapsible: the task's pipeline is deterministic, so backends whose
            results ignore the unit seed (exact backends) may execute only
            the first unit instead of repeating identical evolutions.
        options: the simulation options the plan was compiled under. The
            realization sub-seeds of tasks without their own ``seed`` were
            drawn from ``options.seed`` at compile time, so executing the
            plan under these options reproduces ``run(tasks, options=...)``
            exactly — ``run(plans)`` defaults to them.
        compile_seconds: wall time spent compiling + scheduling this plan.
    """

    task: Task
    kind: str
    payload: Dict
    units: Tuple[PlanUnit, ...]
    direct: bool = False
    collapsible: bool = False
    options: Optional[SimOptions] = None
    compile_seconds: float = 0.0
    # Always 0 (nothing is cached); perfbench reads both until ROADMAP item 4.
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass(frozen=True)
class PlanShard:
    """A self-contained slice of one plan's simulation units.

    Shards are the shipping unit of distributed execution
    (:mod:`repro.runtime.distributed`): everything a worker needs to run a
    contiguous block of realizations — scheduled circuits, devices, derived
    seeds, the normalized payload — and nothing it doesn't. In particular a
    shard carries no :class:`~repro.runtime.task.Task`, so it pickles even
    when the originating task's pipeline holds an unpicklable pass;
    aggregation happens coordinator-side against the full plan. Because the
    per-unit seeds were derived from the plan at compile time, *where* a
    shard executes (which worker, after how many re-queues) can never
    change a value.

    Attributes:
        plan_index: position of the originating plan in the batch.
        shard_index: position of this shard within its plan.
        kind: ``"expectations"`` or ``"probabilities"``.
        payload: the plan's normalized measurement payload.
        units: the seeded simulation jobs, in realization order.
    """

    plan_index: int
    shard_index: int
    kind: str
    payload: Dict
    units: Tuple[PlanUnit, ...]


def shard_plans(plans: Sequence["ExecutionPlan"], shard_size: int) -> List[PlanShard]:
    """Split plans into self-contained :class:`PlanShard` work units.

    Every plan's units are cut into contiguous blocks of at most
    ``shard_size`` realizations, in order. Reassembling shard results in
    ``(plan_index, shard_index)`` order therefore reproduces the exact
    realization order local execution uses, which is what makes the merged
    aggregation bit-for-bit identical for every shard size.

    Args:
        plans: compiled :class:`ExecutionPlan` artifacts.
        shard_size: maximum realizations per shard (>= 1).

    Returns:
        Shards for all plans, ordered by ``(plan_index, shard_index)``.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    shards: List[PlanShard] = []
    for plan_index, plan in enumerate(plans):
        units = plan.units
        for shard_index, start in enumerate(range(0, len(units), shard_size)):
            shards.append(
                PlanShard(
                    plan_index=plan_index,
                    shard_index=shard_index,
                    kind=plan.kind,
                    payload=plan.payload,
                    units=tuple(units[start : start + shard_size]),
                )
            )
    return shards


def plan_options(plans: Sequence["ExecutionPlan"]) -> Optional[SimOptions]:
    """The single set of options a batch of plans was compiled under.

    ``None`` when no plan recorded options. Raises if the plans disagree —
    executing them under any one plan's options would silently change the
    other plans' shot count or seed (run them separately, or pass options
    explicitly).
    """
    recorded = {p.options for p in plans if p.options is not None}
    if len(recorded) > 1:
        raise ValueError(
            "plans were compiled under different options; execute them "
            "separately or pass options= explicitly"
        )
    return next(iter(recorded)) if recorded else None


def _normalize_payload(task: Task) -> Tuple[str, Dict]:
    """The task's measurement as ``(kind, payload)``, sized to its circuit.

    Every backend relies on this one check: a Pauli of the wrong width or a
    bit target off the register would otherwise be read differently (or
    silently) by each engine.
    """
    n = task.circuit.num_qubits
    if task.observables is not None:
        paulis = {
            k: (Pauli.from_label(v) if isinstance(v, str) else v)
            for k, v in task.observables.items()
        }
        for name, pauli in paulis.items():
            if pauli.num_qubits != n:
                raise ValueError(
                    f"observable {name!r} acts on {pauli.num_qubits} qubits, "
                    f"but the circuit has {n}"
                )
        return "expectations", paulis
    for name, bits in task.bit_targets.items():
        for qubit, bit in bits.items():
            if not 0 <= qubit < n:
                raise ValueError(
                    f"bit target {name!r}: qubit {qubit} is outside [0, {n})"
                )
            if bit not in (0, 1):
                raise ValueError(f"bit target {name!r}: bit {bit!r} is not 0 or 1")
    return "probabilities", dict(task.bit_targets)


def _as_scheduled(circuit: CircuitLike, device: Device) -> ScheduledCircuit:
    if isinstance(circuit, ScheduledCircuit):
        return circuit
    return schedule(circuit, device.durations)


# ---------------------------------------------------------------------------
# The shared compile stage
# ---------------------------------------------------------------------------


def _compile_one(
    task: Task,
    device: Optional[Device],
    options: SimOptions,
    index: int,
) -> ExecutionPlan:
    start = time.perf_counter()
    task_device = task.device or device
    if task_device is None:
        raise ValueError(f"task {index} has no device and no default given")
    kind, payload = _normalize_payload(task)

    def finish(units, direct=False, collapsible=False):
        return ExecutionPlan(
            task=task,
            kind=kind,
            payload=payload,
            units=tuple(units),
            direct=direct,
            collapsible=collapsible,
            options=options,
            compile_seconds=time.perf_counter() - start,
        )

    if task.pipeline is None and task.realizations == 1:
        # Raw execution: the circuit runs as-is, seeded directly.
        scheduled = _as_scheduled(task.circuit, task_device)
        return finish(
            [PlanUnit(scheduled, task_device, task.seed)],
            direct=True,
        )

    rng = as_generator(task.seed if task.seed is not None else options.seed)
    units: List[PlanUnit] = []
    pipeline = as_pipeline(task.pipeline)
    if pipeline.is_deterministic:
        # One compile + one schedule, shared by every realization. The
        # deterministic pipeline draws nothing from ``rng``, so the
        # realizations' sub-seeds follow the same stream either way.
        compiled = pipeline.compile(task.circuit, task_device, seed=rng)
        scheduled = _as_scheduled(compiled, task_device)
        for _ in range(task.realizations):
            sub_seed = int(rng.integers(0, 2**63 - 1))
            units.append(PlanUnit(scheduled, task_device, sub_seed))
        return finish(units, collapsible=True)

    for _ in range(task.realizations):
        compiled = pipeline.compile(task.circuit, task_device, seed=rng)
        sub_seed = int(rng.integers(0, 2**63 - 1))
        units.append(PlanUnit(_as_scheduled(compiled, task_device), task_device, sub_seed))
    return finish(units)


def compile_tasks(
    tasks: Sequence[Task],
    device: Optional[Device] = None,
    options: Optional[SimOptions] = None,
) -> List[ExecutionPlan]:
    """Compile every task, in order, into a frozen :class:`ExecutionPlan`.

    Each task compiles from its own RNG stream, and within a task the
    realizations compile sequentially in stream order. Every call compiles
    afresh: no plan or scheduled circuit is shared between calls.

    Args:
        tasks: the :class:`~repro.runtime.task.Task` objects to compile (a
            single task is accepted and treated as a batch of one).
        device: default :class:`~repro.device.calibration.Device` for tasks
            that don't carry their own.
        options: simulation options the plans are compiled under. Tasks
            without their own ``seed`` derive their realization stream from
            ``options.seed`` *now*, at compile time — the plans record
            ``options`` so that executing them (``run(plans)``) defaults to
            the matching configuration.

    Returns:
        One :class:`ExecutionPlan` per task, in task order.

    Example:
        >>> plans = compile_tasks(tasks, device)  # doctest: +SKIP
        >>> run(plans, backend="vectorized")  # doctest: +SKIP
    """
    if isinstance(tasks, Task):
        tasks = [tasks]
    options = options or SimOptions()
    return [
        _compile_one(task, device, options, index)
        for index, task in enumerate(tasks)
    ]
