"""Figure benchmark: time the repo's own figure drivers and check their outputs.

Run from the repository root::

    python3 perfbench/run.py --workload ramsey --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload ramsey --seed 3 --seconds 30 --trace 1
    python3 perfbench/run.py --record      # re-record perfbench/digests.json

``--trace 0`` runs cold driver passes over every input set for
``--seconds`` and reports the end-to-end metrics: the wall time of a pass
and the CPU time a fresh interpreter takes to import the library, both at
a reference CPU speed (see ``speed.py``), and the peak resident memory.
``--trace 1`` runs untraced passes for half the time and traced passes for
the other half, reports the per-layer metrics, and writes a Chrome trace
and a per-layer table under ``perfbench/out/``. Every pass is checked
against the recorded output digests. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` (both counting
sweep points) and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

# One BLAS thread per process, set before NumPy loads: the machine may have
# few cores, and the distributed workers would otherwise each start more
# BLAS threads than there are cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

#: End-to-end metrics and their units, in output order.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
#: glibc ``mallopt`` parameters, and the size up to which freed memory stays
#: in the heap and allocations come from it.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_ALLOCATOR_BYTES = 1 << 30
#: Fresh interpreters timed for ``setup_s``, after one untimed warm-up.
SETUP_SAMPLES = 5
_IMPORT_PROBE = """
import time, speed
with speed.sampled() as samples:
    start = time.process_time()
    import repro, repro.experiments
    used = time.process_time() - start
print(speed.scale(used, samples))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Time and check the figure drivers.")
    parser.add_argument("--workload", help="ramsey, heisenberg or ramsey-sharded")
    parser.add_argument("--seed", type=int, default=0, help="selects the input set")
    parser.add_argument("--seconds", type=float, default=20.0, help="time budget of the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="re-record perfbench/digests.json and exit"
    )
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


def pin_allocator() -> bool:
    """Keep freed memory in the process; ``False`` where glibc is absent.

    With glibc's default thresholds the 12-qubit passes return their large
    arrays to the kernel and fault them back in, hundreds of thousands of
    page faults a pass whose cost follows the host's memory traffic. Forked
    distributed workers inherit the setting.
    """
    name = ctypes.util.find_library("c")
    try:
        mallopt = ctypes.CDLL(name).mallopt if name else None
    except (OSError, AttributeError):
        mallopt = None
    if mallopt is None:
        return False
    return bool(
        mallopt(_M_TRIM_THRESHOLD, _ALLOCATOR_BYTES)
        and mallopt(_M_MMAP_THRESHOLD, _ALLOCATOR_BYTES)
    )


def pin_to_fastest_cpu(cpus) -> None:
    """Pin this process to whichever of ``cpus`` runs :func:`speed.probe` fastest.

    On a shared virtual machine each virtual CPU also slows down on its
    own, for spells of seconds, when the host runs another guest beside it.
    A single-threaded pass on the faster one is disturbed less often.
    """
    timings = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timings.append((min(speed.probe() for _ in range(5)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def timed_passes(workload, slots, reference, budget, min_passes, recorder=None):
    """Cold driver passes over input sets ``slots`` in turn until ``budget`` seconds are used.

    Passes run in whole cycles over ``slots``, at least ``min_passes``;
    after that, no cycle starts that the median pass so far says would
    overrun the budget. Before each pass the process is pinned to the
    fastest CPU, and distributed workers, forked during the pass, inherit
    the pin. Returns the wall time of every pass, its wall time at the
    reference CPU speed, and its checked outcome.
    """
    import workloads

    cpus = os.sched_getaffinity(0)
    walls, scaled, outcomes = [], [], []
    start = time.perf_counter()
    while (
        len(walls) < min_passes
        or len(walls) % len(slots)
        or time.perf_counter() - start + len(slots) * statistics.median(walls) <= budget
    ):
        slot = slots[len(walls) % len(slots)]
        if len(cpus) > 1:
            pin_to_fastest_cpu(cpus)
        gc.collect()
        result = None
        with speed.sampled() as samples:
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    result = workload.run_pass(slot)
                else:
                    recorder.pass_id += 1
                    with recorder.span("driver"):
                        result = workload.run_pass(slot)
            except Exception:
                # A pass that raises is a measured outcome: its points count
                # as failed and the benchmark goes on.
                traceback.print_exc()
            walls.append(time.perf_counter() - t0)
        scaled.append(speed.scale(walls[-1], samples))
        outcomes.append(workloads.check(workload, slot, result, reference))
        del result
    os.sched_setaffinity(0, cpus)
    return walls, scaled, outcomes


def median_per_set(times, slots) -> float:
    """The mean over the input sets of each set's median pass time.

    ``times`` are passes over ``slots`` in turn. The sets differ in cost by
    up to a sixth, so every run times all of them and each set counts once.
    """
    per_set = {}
    for index, value in enumerate(times):
        per_set.setdefault(slots[index % len(slots)], []).append(value)
    return statistics.fmean(statistics.median(values) for values in per_set.values())


def traced_run(workload, slot, reference, seconds, label, info):
    """Untraced passes, then traced ones: per-layer metrics, outcomes, problems."""
    import layers
    import spans

    # One set throughout, so that the exact counts may be compared.
    walls, _scaled, outcomes = timed_passes(workload, [slot], reference, seconds / 2, 2)
    recorder = spans.Recorder()
    patches = spans.install(recorder, layers.targets())
    try:
        traced_walls, _scaled, traced_outcomes = timed_passes(
            workload, [slot], reference, seconds / 2, 2, recorder
        )
    finally:
        spans.remove(patches)
    pass_ids = range(1, len(traced_walls) + 1)
    stats = [spans.layer_stats(recorder.pass_spans(i)) for i in pass_ids]
    per_pass = [
        layers.pass_metrics(s, recorder.counters[i], wall, workload.dist_workers or 1)
        for s, i, wall in zip(stats, pass_ids, traced_walls)
    ]
    metrics, problems = layers.summarize(per_pass, statistics.median(walls))

    OUT.mkdir(exist_ok=True)
    spans.write_chrome_trace(str(OUT / f"{label}-trace.json"), recorder.spans, info)
    middle = traced_walls.index(statistics.median_low(traced_walls))
    header = (
        f"# {json.dumps(info)}\n# spans of traced pass {middle + 1} of "
        f"{len(traced_walls)}; metrics are medians over the traced passes"
    )
    table = layers.layer_table(stats[middle], traced_walls[middle], metrics, header)
    (OUT / f"{label}-layers.txt").write_text(table)
    print(table)
    return metrics, outcomes + traced_outcomes, problems


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child, in MiB.

    Distributed workers are forked copies of this process, so their peak
    counts pages the two share: the sum bounds the true peak from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds() -> float:
    """Median CPU time for a fresh interpreter to import ``repro`` and its drivers.

    Each time is at the reference CPU speed, and each interpreter runs on
    the CPU that is fastest when it starts.
    """
    env = dict(os.environ)
    path = (str(SRC), str(HERE), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    cpus = os.sched_getaffinity(0)
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        if len(cpus) > 1:
            pin_to_fastest_cpu(cpus)
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        if index:  # the warm-up may still be writing bytecode caches
            samples.append(float(probe.stdout.split()[-1]))
    os.sched_setaffinity(0, cpus)
    return statistics.median(samples)


def git_commit():
    """The checkout's HEAD commit, or ``None`` outside a git work tree.

    Read from ``.git`` rather than by running git, so that no child
    process counts in ``peak_rss_mb``.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def src_digest() -> str:
    """Hash of the library sources: names the code where git is absent."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(workload, seed: int, slot: int) -> dict:
    """What a result must be read with: machine, versions, code and engine."""
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "driver_seed": workload.driver_seed(slot),
        "backend": workload.backend,
        "dist_inner": workload.dist_inner,
        "dist_workers": workload.dist_workers,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_digest": src_digest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The benchmark's own modules import repro, so they load only now.
    import layers
    import workloads

    pin_allocator()
    if args.record:
        DIGESTS.write_text(json.dumps(workloads.record(), indent=1) + "\n")
        return 0
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = json.loads(DIGESTS.read_text())
    if reference["slots"] != workloads.SLOTS:
        raise SystemExit(f"perfbench: {DIGESTS} was recorded for another number of slots")
    slot = args.seed % workloads.SLOTS
    info = stamp(workload, args.seed, slot)
    print("stamp " + json.dumps(info))
    label = f"{workload.name}-seed{args.seed}"

    with workloads.pinned(workload):
        if args.trace:
            metrics, outcomes, problems = traced_run(
                workload, slot, reference, args.seconds, label, info
            )
        else:
            # Every set in each cycle, starting at the seed's.
            slots = [(slot + i) % workloads.SLOTS for i in range(workloads.SLOTS)]
            walls, scaled, outcomes = timed_passes(
                workload, slots, reference, args.seconds, 2 * len(slots)
            )
            metrics = {"wall_s": median_per_set(scaled, slots), "peak_rss_mb": peak_rss_mb()}
            problems = []
            print("pass wall times (s): " + " ".join(f"{w:.4f}" for w in walls))
            print("at reference speed (s): " + " ".join(f"{w:.4f}" for w in scaled))
    if not args.trace:
        # After the passes, so that the probes never count in peak_rss_mb.
        metrics["setup_s"] = setup_seconds()

    # Every pass, traced ones included, was compared with the recorded
    # digests, so tracing cannot change a value unnoticed.
    problems += [p for outcome in outcomes for p in outcome.problems]
    for problem in dict.fromkeys(problems):
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    units = layers.METRICS if args.trace else END_TO_END
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(outcome.attempted for outcome in outcomes),
                "failed": sum(outcome.failed for outcome in outcomes),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
