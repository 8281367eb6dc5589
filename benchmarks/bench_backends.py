"""Backend throughput benchmark: scalar trajectory vs vectorized batches.

Times the same seeded workloads on ``backend="trajectory"`` and
``backend="vectorized"`` and writes ``BENCH_current.json`` (``--output``
picks another file):

* the fig. 3 Ramsey workload (case I, staggered DD) at 1024 shots — the
  acceptance workload for the vectorized engine's >=3x throughput target;
* layered CX chains across qubit counts and shot counts, showing how the
  speedup scales with state size and batch size;
* a distributed-vs-in-process scaling entry: a realization-heavy twirled
  batch sharded across ``backend="distributed"`` worker processes,
  cross-checked bit-identical against both in-process engines
  (informational ratios, gated bit-identity).

Every run also cross-checks bit-identity (trajectory vs vectorized,
in-process vs distributed), so the benchmark doubles as an end-to-end
parity check. ``--check-against BASELINE`` compares the
measured speedups to a previously committed JSON and fails on a >25%
regression — speedups are ratios of timings on the same machine, so the
gate is robust to absolute machine speed. Under ``--check-against`` every
gated entry is measured ``CHECK_SAMPLES`` times and the gate reads the
median, so one sample slowed by the host cannot fail the check. Entries
without a ``speedup`` field are informational only and never gated.

Usage::

    python benchmarks/bench_backends.py --quick    # smoke (seconds)
    python benchmarks/bench_backends.py --quick \
        --check-against BENCH_backends.json        # CI: gate vs baseline
    python benchmarks/bench_backends.py \
        --output BENCH_backends.json               # regenerate the baseline

The default output, ``BENCH_current.json``, is gitignored, so no run
overwrites the committed full-sweep baseline ``BENCH_backends.json``
unless ``--output`` names it. The baseline is read before the output is
written, so pointing both at the same file compares against the previous
run's content.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

from repro import Circuit, SimOptions, Task, run
from repro.benchmarking.ramsey import CASE_I, ramsey_task
from repro.device.calibration import synthetic_device
from repro.device.topology import linear_chain
from repro.runtime import configure, default_dist_workers

BACKENDS = ("trajectory", "vectorized")

#: Max allowed speedup regression vs the committed baseline (25%).
REGRESSION_TOLERANCE = 0.25

#: Measurements per gated entry under ``--check-against`` (odd, so the
#: median is one of them); the gate reads their median speedup.
CHECK_SAMPLES = 5


def layered_chain(num_qubits: int, layers: int = 4) -> Circuit:
    circ = Circuit(num_qubits)
    for q in range(num_qubits):
        circ.h(q, new_moment=(q == 0))
    for _ in range(layers):
        for start in (0, 1):
            circ.append_moment([])
            for a in range(start, num_qubits - 1, 2):
                circ.cx(a, a + 1, new_moment=(a == start))
            circ.append_moment([])
    return circ


def time_backends(task: Task, device, options: SimOptions, repeats: int = 2) -> Dict:
    # Best-of-N timing: the gated quantity is a speedup ratio, so per-run
    # scheduler noise must stay well under the regression tolerance.
    timings: Dict[str, float] = {b: float("inf") for b in BACKENDS}
    values: Dict[str, Dict[str, float]] = {}
    for _ in range(repeats):
        for backend in BACKENDS:
            start = time.perf_counter()
            result = run(task, device, options=options, backend=backend)[0]
            timings[backend] = min(
                timings[backend], time.perf_counter() - start
            )
            values[backend] = dict(result.values)
    shots = options.shots * max(task.realizations, 1)
    return {
        "shots": shots,
        "seconds": {b: round(timings[b], 4) for b in BACKENDS},
        "shots_per_second": {
            b: round(shots / timings[b], 1) for b in BACKENDS
        },
        "speedup": round(timings["trajectory"] / timings["vectorized"], 2),
        "bit_identical": values["trajectory"] == values["vectorized"],
    }


def bench_fig3_ramsey(shots: int) -> Dict:
    device = synthetic_device(
        linear_chain(CASE_I.num_qubits), name="bench_fig3", seed=1003
    )
    task = ramsey_task(CASE_I, device, depth=16, strategy="staggered_dd", seed=1)
    entry = {
        "workload": "fig3_ramsey_case1",
        "num_qubits": CASE_I.num_qubits,
        "depth": 16,
    }
    entry.update(time_backends(task, device, SimOptions(shots=shots)))
    return entry


def bench_layered(num_qubits: int, shots: int) -> Dict:
    device = synthetic_device(
        linear_chain(num_qubits), name=f"bench_chain{num_qubits}", seed=500 + num_qubits
    )
    observables = {"z0": "I" * (num_qubits - 1) + "Z"}
    task = Task(layered_chain(num_qubits), observables=observables, seed=7)
    entry = {"workload": "layered_chain", "num_qubits": num_qubits}
    entry.update(time_backends(task, device, SimOptions(shots=shots)))
    return entry


def bench_distributed(workers: int = 2) -> Dict:
    """Distributed-vs-in-process scaling on a realization-heavy batch.

    The workload is the distributed backend's sweet spot: many twirl
    realizations per task, each an independent seeded simulation, sharded
    across ``workers`` processes. The ratio is machine-dependent (core
    count, fork cost), so it is recorded as ``dist_vs_vectorized`` (the
    distributed workers run the vectorized engine) and never
    regression-gated; bit-identity across all three engines IS gated —
    that is the correctness claim.
    """
    device = synthetic_device(
        linear_chain(CASE_I.num_qubits), name="bench_dist", seed=1011
    )
    options = SimOptions(shots=48)

    def tasks():
        return [
            ramsey_task(
                CASE_I, device, depth, "ca_ec+dd", twirl=True,
                realizations=8, seed=depth,
            )
            for depth in (8, 16, 24)
        ]

    engines = ("trajectory", "vectorized", "distributed")
    timings = {name: float("inf") for name in engines}
    values: Dict[str, List[Dict[str, float]]] = {}
    previous = default_dist_workers()
    configure(dist_workers=workers)
    try:
        for _ in range(2):
            for name in engines:
                start = time.perf_counter()
                batch = run(tasks(), device, options=options, backend=name)
                timings[name] = min(timings[name], time.perf_counter() - start)
                values[name] = [dict(r.values) for r in batch]
    finally:
        configure(dist_workers=previous)
    return {
        "workload": "distributed_scaling",
        "tasks": 3,
        "realizations_per_task": 8,
        "dist_workers": workers,
        # The ratio only means something relative to the cores available:
        # on a 1-CPU runner the best possible dist/vec is ~1.0x minus
        # transport overhead.
        "cpus": os.cpu_count(),
        "seconds": {name: round(t, 4) for name, t in timings.items()},
        "dist_vs_vectorized": round(timings["vectorized"] / timings["distributed"], 2),
        "bit_identical": (
            values["trajectory"] == values["distributed"]
            and values["trajectory"] == values["vectorized"]
        ),
    }


def _print_entry(entry: Dict) -> None:
    if entry["workload"] == "distributed_scaling":
        seconds = entry["seconds"]
        print(
            f"{entry['workload']:>22s} {entry['tasks']}x{entry['realizations_per_task']} "
            f"realizations, {entry['dist_workers']} workers: "
            f"dist/vec = {entry['dist_vs_vectorized']}x "
            f"({seconds['distributed']:.3f}s dist vs {seconds['vectorized']:.3f}s vec, "
            f"bit_identical={entry['bit_identical']})"
        )
        return
    print(
        f"{entry['workload']:>22s} n={entry['num_qubits']} shots={entry['shots']}: "
        f"{entry['speedup']}x ({entry['shots_per_second']['vectorized']:,.0f} vs "
        f"{entry['shots_per_second']['trajectory']:,.0f} shots/s, "
        f"bit_identical={entry['bit_identical']})"
    )


def median_entry(samples: List[Dict]) -> Dict:
    """The sample with the median speedup, out of an odd number of samples.

    Its timings stay consistent with its ratio; ``speedup_samples`` keeps
    every measured ratio, and ``bit_identical`` must hold in all samples.
    """
    ordered = sorted(samples, key=lambda s: s["speedup"])
    entry = dict(ordered[len(ordered) // 2])
    if len(samples) > 1:
        entry["speedup_samples"] = [s["speedup"] for s in samples]
    entry["bit_identical"] = all(s["bit_identical"] for s in samples)
    return entry


def _entry_key(entry: Dict) -> str:
    if "num_qubits" not in entry:
        return entry["workload"]
    return f"{entry['workload']}:n{entry['num_qubits']}:s{entry['shots']}"


def check_regression(results: List[Dict], baseline: Dict[str, float]) -> bool:
    """Compare speedups against the committed baseline; True when healthy.

    Only workloads present in both files are compared (the quick sweep is a
    subset of the full one), and each must retain at least
    ``1 - REGRESSION_TOLERANCE`` of its baseline speedup. Entries without a
    ``speedup`` field (machine-dependent ratios like distributed-vs-local)
    are informational and skipped.
    """
    healthy = True
    compared = 0
    for entry in results:
        if "speedup" not in entry:
            continue
        reference = baseline.get(_entry_key(entry))
        if reference is None:
            continue
        compared += 1
        floor = reference * (1.0 - REGRESSION_TOLERANCE)
        status = "ok" if entry["speedup"] >= floor else "REGRESSION"
        if entry["speedup"] < floor:
            healthy = False
        samples = entry.get("speedup_samples", [entry["speedup"]])
        print(
            f"  {_entry_key(entry):>40s}: {entry['speedup']:.2f}x (median of "
            f"{len(samples)}) vs baseline {reference:.2f}x (floor {floor:.2f}x) "
            f"{status}"
        )
    if compared == 0:
        print("  no overlapping workloads with the baseline", file=sys.stderr)
        return False
    return healthy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweep for CI smoke runs"
    )
    parser.add_argument(
        "--output", default="BENCH_current.json", help="where to write the JSON"
    )
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE",
        help="compare speedups to this committed JSON; exit 1 on a "
        f">{REGRESSION_TOLERANCE:.0%} regression",
    )
    args = parser.parse_args(argv)

    # Read the baseline up front: --output may point at the same file (the
    # committed baseline), and writing first would make the comparison
    # vacuous and destroy the reference.
    baseline = None
    if args.check_against:
        with open(args.check_against) as handle:
            baseline = {
                _entry_key(e): e["speedup"]
                for e in json.load(handle)["results"]
                if "speedup" in e
            }

    ramsey_shots = 1024
    # The quick sweep is an exact-key subset of the full one so that the
    # committed full baseline gates every quick entry in CI.
    sweep = (
        [(2, 1024), (4, 1024)]
        if args.quick
        else [(2, 1024), (4, 1024), (6, 1024), (8, 512), (10, 256)]
    )

    gated = [lambda: bench_fig3_ramsey(ramsey_shots)]
    gated += [lambda n=n, s=s: bench_layered(n, s) for n, s in sweep]
    # Whole rounds, so a slow spell on the host lands on one sample of each
    # entry rather than on every sample of one entry.
    rounds = CHECK_SAMPLES if baseline is not None else 1
    samples = [[bench() for bench in gated] for _ in range(rounds)]
    results = [median_entry(list(entry)) for entry in zip(*samples)]
    results.append(bench_distributed())
    for entry in results:
        _print_entry(entry)

    payload = {
        "benchmark": "trajectory-vs-vectorized backend throughput",
        "quick": args.quick,
        "results": results,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    if not all(r["bit_identical"] for r in results):
        print("ERROR: backends disagree", file=sys.stderr)
        return 1
    if baseline is not None:
        print(f"regression check vs {args.check_against}:")
        if not check_regression(results, baseline):
            print("ERROR: benchmark regression", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
