"""The benchmark's workloads: the repo's own figure drivers, run in-process.

Every workload pins the ``vectorized`` engine, in-process or inside the
distributed workers. The figure suite's recorded wall times use it, and on
the scalar ``trajectory`` engine both figures would spend their time in
the same place, the per-shot evolution loop.

* ``ramsey``: Fig. 3 over all four Ramsey contexts at the CLI's shots and
  realizations, at two of its depths. Its 2-4 qubit states are tiny, so
  noise sampling, per-realization twirled compiles and engine builds do
  most of the work.
* ``heisenberg``: Fig. 7 on the 12-qubit ring, with fewer steps, shots and
  realizations than the CLI's full size so that several passes of every
  input set fit in one run. Evolving 4096-amplitude states dominates.
* ``ramsey-sharded``: the ``ramsey`` sweep on the distributed backend with
  one local worker process. Its values are bit-identical to ``ramsey``'s,
  so any difference between the two is the shard, pickle and process-pool
  path. The worker is forked onto the CPU the benchmark is pinned to, so
  the pass runs on one CPU as ``ramsey`` does; two workers on a two-CPU
  machine would time the host's scheduler.

Each workload has :data:`SLOTS` input sets (driver seeds, and with them
the synthetic devices and the twirls). The per-point output digests of
every set are recorded in ``digests.json``, and every pass is checked
against them.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional

import repro.runtime as runtime
from repro.experiments import run_fig3, run_fig7

#: Number of input sets ``--seed`` selects from.
SLOTS = 4

#: Driver entry point and its default seed, which slot 0 uses.
_DRIVERS = {"fig3": (run_fig3, 1001), "fig7": (run_fig7, 4001)}

#: Fig. 3 at the shots and realizations ``python -m repro.experiments fig3``
#: runs, at two of its depths so that several passes fit in one run.
_FIG3 = {"depths": (0, 8), "shots": 32, "realizations": 6}


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str
    #: Driver arguments other than the seed.
    params: Mapping
    #: The workload whose recorded digests this one's outputs must equal.
    reference: str
    backend: str = "vectorized"
    dist_inner: Optional[str] = None
    dist_workers: Optional[int] = None

    def driver_seed(self, slot: int) -> int:
        return _DRIVERS[self.driver][1] + slot

    def run_pass(self, slot: int):
        """One driver pass from an empty plan cache, as a fresh CLI process has."""
        runtime.PLAN_CACHE.clear()
        run_driver = _DRIVERS[self.driver][0]
        return run_driver(seed=self.driver_seed(slot), **self.params)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ramsey", "fig3", _FIG3, reference="ramsey"),
        Workload(
            "heisenberg",
            "fig7",
            {"num_qubits": 12, "steps": (0, 1, 2), "shots": 4, "realizations": 2},
            reference="heisenberg",
        ),
        Workload(
            "ramsey-sharded",
            "fig3",
            _FIG3,
            reference="ramsey",
            backend="distributed",
            dist_inner="vectorized",
            dist_workers=1,
        ),
    )
}


# ---------------------------------------------------------------------------
# Runtime defaults
# ---------------------------------------------------------------------------

_KNOBS = (
    "workers",
    "backend",
    "chunk_shots",
    "compile_mode",
    "compile_workers",
    "dist_workers",
    "dist_shard_size",
    "dist_serve",
    "dist_connect",
    "dist_inner",
)


def runtime_defaults() -> Dict:
    """Every process-wide ``configure()`` default, as it stands now."""
    state = {knob: getattr(runtime, f"default_{knob}")() for knob in _KNOBS}
    state["plan_cache"] = runtime.plan_cache_mode()
    return state


@contextlib.contextmanager
def pinned(workload: Workload) -> Iterator[None]:
    """Configure the workload's engine for the block, then restore every default.

    Restoring keeps a leaked ``backend="distributed"`` or cache mode from
    reaching whatever runs next in the same process.
    """
    saved = runtime_defaults()
    pins = {"workers": 1, "backend": workload.backend, "plan_cache": "memory"}
    if workload.dist_inner is not None:
        pins.update(dist_inner=workload.dist_inner, dist_workers=workload.dist_workers)
    try:
        runtime.configure(**pins)
        yield
    finally:
        runtime.configure(**saved)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def points(result) -> List:
    """Every sweep point's result in one driver pass, in sweep order."""
    sweeps = (getattr(result, "ideal_sweep", None), result.sweep)
    return [point for sweep in sweeps if sweep is not None for _coord, point in sweep]


def point_digest(point) -> str:
    """Hash of one point's values, errors and shots.

    Timings and metadata such as the backend name are left out, so the
    digests of ``ramsey-sharded`` equal those of ``ramsey``.
    """
    fields = (
        sorted((key, float(value).hex()) for key, value in point.values.items()),
        sorted((key, float(value).hex()) for key, value in point.errors.items()),
        int(point.shots),
    )
    return hashlib.blake2b(repr(fields).encode(), digest_size=8).hexdigest()


def claim_problem(workload: Workload, result) -> Optional[str]:
    """``None`` when the paper claim checked on this workload holds.

    Fig. 7c of arXiv:2403.06852: context-aware error compensation tracks
    the ideal ``<Z>`` curve more closely than both no suppression and
    context-unaware DD. The error is summed over the Trotter steps.
    """
    if workload.driver != "fig7":
        return None
    error = {
        strategy: sum(abs(v - i) for v, i in zip(curve, result.ideal))
        for strategy, curve in result.curves.items()
    }
    if error["ca_ec"] < min(error["none"], error["dd"]):
        return None
    return f"Fig. 7 claim failed: summed |<Z> - ideal| per strategy is {error}"


@dataclass
class Outcome:
    """The checks on one driver pass."""

    attempted: int
    failed: int
    problems: List[str]


def check(workload: Workload, slot: int, result, reference: Mapping) -> Outcome:
    """Compare one pass's outputs with the digests recorded for its slot.

    A point fails when its digest differs from the recorded one; every
    point fails when the pass raised (``result is None``).
    """
    expected = reference[workload.reference][str(slot)]
    if result is None:
        return Outcome(len(expected), len(expected), ["a driver pass raised"])
    got = [point_digest(p) for p in points(result)]
    failed = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
    problems = []
    if failed:
        problems.append(f"{failed} of {len(expected)} points differ from the recorded digests")
    claim = claim_problem(workload, result)
    if claim:
        problems.append(claim)
    return Outcome(max(len(got), len(expected)), failed, problems)


def record(slots: int = SLOTS) -> Dict:
    """Reference digests for every slot, from the in-process workloads.

    ``ramsey-sharded`` has none of its own: it must match ``ramsey``.
    """
    reference: Dict = {"slots": slots}
    for name in ("ramsey", "heisenberg"):
        workload = WORKLOADS[name]
        with pinned(workload):
            for slot in range(slots):
                start = time.perf_counter()
                result = workload.run_pass(slot)
                problem = claim_problem(workload, result)
                if problem:
                    raise RuntimeError(f"{name} slot {slot}: {problem}")
                digests = [point_digest(p) for p in points(result)]
                reference.setdefault(name, {})[str(slot)] = digests
                elapsed = time.perf_counter() - start
                print(f"{name} slot {slot}: {len(digests)} points in {elapsed:.2f} s", flush=True)
    return reference
