"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig9
    python -m repro.experiments fig3 --quick
    python -m repro.experiments all --quick --json results.json

The drivers' defaults are the full-size figure: a full run calls each
driver with no arguments. ``--quick`` runs it with the overrides in
:data:`QUICK` instead, which shrink shot counts and sweeps so each
experiment finishes in seconds (useful for smoke-checking an install).
``--workers N`` runs each batch's simulation units on N threads
(compilation stays serial) and ``--backend`` selects
the simulation engine (``vectorized`` batches all shots of a task through
whole-array NumPy ops; results are identical to ``trajectory`` for any
backend/worker choice, only the wall time changes). ``--json PATH`` writes every
requested experiment's result — including the full per-point Sweep
serialization — as one JSON document.

Results are values only: stdout carries just the report, and the
``--json`` file holds no backend, worker count or timing, so two runs
that differ only in ``--backend``/``--workers`` (or the ``distributed``
flags) write byte-identical files — compare them with ``cmp``. Each
figure's wall time and the ``wrote PATH`` line go to stderr; the per-run
backend, worker count and compile/exec split stay on
:class:`~repro.runtime.task.BatchResult`.

``--backend distributed`` shards each batch's realizations across a local
pool of worker *processes* that run ``vectorized``: ``--dist-workers N``
sets the pool size, and shards are sized from it. Results are bit-for-bit
identical to ``trajectory`` for every worker count.

Every flag maps onto one :func:`~repro.runtime.configure` setting. The
compile stage and the vectorized chunk size have no flags of their own:
compiling runs serially, once per task for deterministic pipelines, and
chunks are sized automatically and evolved one after another.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict

import numpy as np

from . import (
    run_fig3,
    run_fig4,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_table1,
)

#: Each driver's defaults are its full-size figure; it returns a result
#: object exposing ``rows()`` (text report) and ``to_json()`` (the Sweep
#: serialization behind ``--json``).
EXPERIMENTS: Dict[str, Callable] = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "table1": run_table1,
}

#: ``--quick``: the keyword overrides each driver runs with instead.
QUICK: Dict[str, Dict] = {
    "fig3": dict(depths=(0, 4, 8), shots=8, realizations=2),
    "fig4": dict(
        stark=dict(times=tuple(np.linspace(500.0, 20000.0, 40)), shots=8),
        parity=dict(times=tuple(np.linspace(0.0, 20000.0, 40)), shots=32),
        nnn=dict(depths=(0, 8), shots=16),
    ),
    "fig6": dict(steps=(0, 1, 2), shots=8, realizations=2),
    "fig7": dict(num_qubits=6, steps=(0, 1, 2), shots=6, realizations=3),
    "fig8": dict(depths=(1, 2), samples=2, shots=6),
    "fig9": dict(estimates=list(np.linspace(0.0, 3000.0, 5)), shots=40),
    "fig10": dict(steps=(0, 1, 2), shots=8, realizations=3),
    "table1": dict(depth=4, shots=24),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="which experiment to run ('list' to enumerate)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced statistics (seconds)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="threads that run each batch's simulation units; compilation "
        "is serial (deterministic for any N)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="simulation backend: vectorized (default; batched), "
        "trajectory (scalar reference, bit-identical), density (exact), "
        "or distributed (shards realizations across vectorized worker "
        "processes, bit-identical)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the full results (per-point Sweep serialization) as JSON",
    )
    parser.add_argument(
        "--dist-workers",
        type=int,
        default=None,
        metavar="N",
        help="distributed backend: worker-process count "
        "(default: the simulation --workers)",
    )
    args = parser.parse_args(argv)

    # One configure() call: it validates every setting before changing any,
    # so a rejected flag leaves all runtime defaults as they were.
    settings = {
        name: value
        for name, value in (
            ("workers", args.workers),
            ("backend", args.backend),
            ("dist_workers", args.dist_workers),
        )
        if value is not None
    }
    if settings:
        from ..runtime import configure

        try:
            configure(**settings)
        except ValueError as exc:
            parser.error(str(exc))

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    payloads: Dict[str, Dict] = {}
    for name in names:
        print(f"=== {name} ===")
        start = time.time()
        result = EXPERIMENTS[name](**(QUICK[name] if args.quick else {}))
        for line in result.rows():
            print(line)
        print(f"({time.time() - start:.1f} s)", file=sys.stderr)
        print()
        if args.json:
            payloads[name] = result.to_json()

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payloads, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
