"""What the traced run wraps in ``repro``, and the per-layer metrics.

Layers are named after ``src/repro`` modules. A wrapper replaces an
attribute where its caller looks it up (``schedule`` as
``repro.runtime.plan`` sees it, ``sample_shot`` as
``repro.sim.vectorized`` sees it), so its spans cover exactly the calls
the figure drivers make. ``README.md`` says which end-to-end metric each
layer should move, and on which workload.
"""

from __future__ import annotations

import importlib
import pickle
import statistics
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.runtime.backends import Backend
from repro.runtime.distributed import DistributedBackend, LocalShardExecutor
from repro.runtime.passes import CADD, CAEC, AlignedDD, StaggeredDD, Twirl
from repro.runtime.sweep import Sweep
from repro.sim.vectorized import VectorizedExecutor
from spans import LayerStats, Recorder, Target

#: The built-in compiler passes the figure drivers' pipelines use.
PASSES = (Twirl, AlignedDD, StaggeredDD, CADD, CAEC)

#: Per-layer metrics and their units, in output order.
METRICS: Dict[str, str] = {
    "sweep.points": "count",
    "sweep.build_s": "s",
    "plan.compile_s": "s",
    "plan.units": "count",
    "plan.cache_hits": "count",
    "plan.cache_misses": "count",
    **{
        name: unit
        for p in PASSES
        for name, unit in ((f"pass.{p.name}_s", "s"), (f"pass.{p.name}.calls", "count"))
    },
    "circuits.schedule_s": "s",
    "circuits.schedule.calls": "count",
    "backend.exec_s": "s",
    "sim.engine_build_s": "s",
    "sim.engines_built": "count",
    "sim.units_per_engine": "ratio",
    "sim.sample_s": "s",
    "sim.shots_sampled": "count",
    "sim.run_s": "s",
    "sim.trajectories_per_s": "1/s",
    "mitigation.fit_s": "s",
    "dist.shards": "count",
    "dist.shard_bytes": "B-computed",
    "dist.pool_s": "s",
    "dist.worker_busy_s": "s",
    "dist.overhead_s": "s",
    "dist.inline_units": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_share": "ratio",
}

#: Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = (
    "plan.units",
    "sim.shots_sampled",
    "sim.engines_built",
    "dist.shards",
    "dist.shard_bytes",
)

_WHOLE_UNITS = ("count", "B-computed")


def _module(name: str):
    # ``import repro.runtime.run as m`` would bind the ``run`` function that
    # the ``repro.runtime`` package re-exports under the module's name.
    return importlib.import_module(name)


def _count_points(rec: Recorder, args, kwargs, swept) -> None:
    rec.add("sweep.points", len(swept))


def _count_batch(rec: Recorder, args, kwargs, batch) -> None:
    rec.add("plan.compile_s", batch.compile_time)
    rec.add("backend.exec_s", batch.exec_time)
    if batch.backend == "distributed":
        rec.add("dist.worker_busy_s", sum(r.wall_time for r in batch.results))


def _count_plans(rec: Recorder, args, kwargs, plans) -> None:
    rec.add("plan.units", sum(len(p.units) for p in plans))
    rec.add("plan.cache_hits", sum(p.cache_hits for p in plans))
    rec.add("plan.cache_misses", sum(p.cache_misses for p in plans))


def _count_shards(rec: Recorder, args, kwargs, shards) -> None:
    rec.add("dist.shards", len(shards))
    # Computed, not observed: the process pool pickles each work unit on
    # its own. The span keeps the pickling time out of the other layers.
    with rec.span("perfbench.shard_bytes"):
        size = len(pickle.dumps(shards, protocol=pickle.HIGHEST_PROTOCOL))
    rec.add("dist.shard_bytes", size)


def targets() -> List[Target]:
    """Every wrapped entry point as ``(owner, attribute, span name, hook)``."""
    distributed = _module("repro.runtime.distributed")
    return [
        (Sweep, "run", "sweep", _count_points),
        (_module("repro.runtime.sweep"), "run", "runtime.run", _count_batch),
        (_module("repro.runtime.run"), "compile_tasks", "plan.compile", _count_plans),
        (_module("repro.runtime.plan"), "schedule", "circuits.schedule", None),
        *[(p, "run", f"pass.{p.name}", None) for p in PASSES],
        (Backend, "execute_plans", "backend.exec", None),
        (DistributedBackend, "execute_plans", "backend.exec", None),
        (VectorizedExecutor, "__init__", "sim.engine_build", None),
        (VectorizedExecutor, "expectations", "sim.run", None),
        (VectorizedExecutor, "probabilities", "sim.run", None),
        (_module("repro.sim.vectorized"), "sample_shot", "sim.sample", None),
        (_module("repro.experiments.fig7"), "fit_global_depolarizing", "mitigation.fit", None),
        (distributed, "shard_plans", "dist.shard_plans", _count_shards),
        (LocalShardExecutor, "run", "dist.pool", None),
        # Pool workers are other processes, so only coordinator-side
        # (inline) executions reach this wrapper's spans.
        (distributed, "execute_work_unit", "dist.inline_unit", None),
    ]


def pass_metrics(
    stats: Mapping[str, LayerStats],
    counters: Mapping[str, float],
    wall: float,
    dist_workers: int,
) -> Dict[str, float]:
    """Every metric of one traced pass except ``trace.overhead_s``."""

    def layer(name: str) -> LayerStats:
        return stats.get(name, LayerStats(0.0, 0.0, 0))

    units = counters.get("plan.units", 0)
    engines = layer("sim.engine_build").calls
    shots = layer("sim.sample").calls
    run_s = layer("sim.run").self_s
    pool_s = layer("dist.pool").total_s
    busy_s = counters.get("dist.worker_busy_s", 0.0)
    metrics = {
        "sweep.points": counters.get("sweep.points", 0),
        "sweep.build_s": layer("sweep").self_s,
        "plan.compile_s": counters.get("plan.compile_s", 0.0),
        "plan.units": units,
        "plan.cache_hits": counters.get("plan.cache_hits", 0),
        "plan.cache_misses": counters.get("plan.cache_misses", 0),
    }
    for p in PASSES:
        metrics[f"pass.{p.name}_s"] = layer(f"pass.{p.name}").total_s
        metrics[f"pass.{p.name}.calls"] = layer(f"pass.{p.name}").calls
    metrics.update(
        {
            "circuits.schedule_s": layer("circuits.schedule").total_s,
            "circuits.schedule.calls": layer("circuits.schedule").calls,
            "backend.exec_s": counters.get("backend.exec_s", 0.0),
            "sim.engine_build_s": layer("sim.engine_build").total_s,
            "sim.engines_built": engines,
            "sim.units_per_engine": units / engines if engines else 0.0,
            "sim.sample_s": layer("sim.sample").total_s,
            "sim.shots_sampled": shots,
            "sim.run_s": run_s,
            "sim.trajectories_per_s": shots / run_s if run_s > 0 else 0.0,
            "mitigation.fit_s": layer("mitigation.fit").total_s,
            "dist.shards": counters.get("dist.shards", 0),
            "dist.shard_bytes": counters.get("dist.shard_bytes", 0),
            "dist.pool_s": pool_s,
            "dist.worker_busy_s": busy_s,
            "dist.overhead_s": pool_s - busy_s / dist_workers if pool_s else 0.0,
            "dist.inline_units": layer("dist.inline_unit").calls,
            "trace.wall_s": wall,
            "trace.self_share": sum(s.self_s for s in stats.values()) / wall,
        }
    )
    return metrics


def summarize(
    per_pass: Sequence[Mapping[str, float]], untraced_wall: float
) -> Tuple[Dict[str, float], List[str]]:
    """The median of each metric over the traced passes, and any problems.

    A count in :data:`EXACT_COUNTS` that differs between passes is reported
    as a problem, never averaged away. So is a pass whose layer self times
    do not add up to its wall time within 5%.
    """
    problems: List[str] = []
    out: Dict[str, float] = {}
    for name, unit in METRICS.items():
        if name == "trace.overhead_s":
            out[name] = out["trace.wall_s"] - untraced_wall
            continue
        values = [m[name] for m in per_pass]
        if name in EXACT_COUNTS and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        if unit in _WHOLE_UNITS:
            out[name] = int(statistics.median_low(values))
        else:
            out[name] = statistics.median(values)
    shares = [m["trace.self_share"] for m in per_pass]
    if any(abs(share - 1.0) > 0.05 for share in shares):
        problems.append(f"layer self times do not add up to the traced wall time: {shares}")
    return out, problems


def layer_table(
    stats: Mapping[str, LayerStats], wall: float, metrics: Mapping[str, float], header: str
) -> str:
    """The flat per-layer table: self time per span name, then every metric."""
    lines = [header, "", f"{'layer':<24}{'self_s':>12}{'total_s':>12}{'calls':>9}{'share':>8}"]
    for name, s in sorted(stats.items(), key=lambda item: -item[1].self_s):
        lines.append(
            f"{name:<24}{s.self_s:>12.6f}{s.total_s:>12.6f}{s.calls:>9d}{s.self_s / wall:>8.1%}"
        )
    total = sum(s.self_s for s in stats.values())
    lines.append(f"{'sum of self times':<24}{total:>12.6f}  ({total / wall:.2%} of {wall:.6f} s)")
    lines += ["", f"{'metric':<28}{'value':>24}  unit"]
    for name, unit in METRICS.items():
        lines.append(f"{name:<28}{metrics[name]!r:>24}  {unit}")
    return "\n".join(lines) + "\n"
