"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig9
    python -m repro.experiments fig3 --quick
    python -m repro.experiments all --quick --json results.json

``--quick`` shrinks shot counts and sweeps so each experiment finishes in
seconds (useful for smoke-checking an install); default parameters match
the benchmark harness. ``--workers N`` fans each experiment's batched
simulations out over N threads and ``--backend`` selects the simulation
engine (``vectorized`` batches all shots of a task through whole-array
NumPy ops; results are identical to ``trajectory`` for any backend/worker
choice, only the wall time changes). ``--json PATH`` writes every
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
compiling fans out over the same ``--workers`` threads and caches
deterministic pipelines in memory, and chunks are sized automatically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from . import (
    run_fig3,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_nnn_walsh,
    run_parity,
    run_stark,
    run_table1,
)
from .fig4 import Fig4Result


def _fig3(quick: bool):
    return run_fig3(
        depths=(0, 4, 8) if quick else (0, 4, 8, 12, 16, 20),
        shots=8 if quick else 32,
        realizations=2 if quick else 6,
    )


def _fig4(quick: bool):
    return Fig4Result(
        stark=run_stark(
            times=tuple(
                np.linspace(500.0, 20000.0 if quick else 60000.0, 40 if quick else 100)
            ),
            shots=8 if quick else 16,
        ),
        parity=run_parity(
            times=tuple(np.linspace(0.0, 20000.0, 40 if quick else 120)),
            shots=32 if quick else 120,
        ),
        nnn=run_nnn_walsh(
            depths=(0, 8) if quick else (0, 8, 16, 24), shots=16 if quick else 32
        ),
    )


def _fig6(quick: bool):
    return run_fig6(
        steps=(0, 1, 2) if quick else (0, 1, 2, 3, 4, 5),
        shots=8 if quick else 20,
        realizations=2 if quick else 6,
    )


def _fig7(quick: bool):
    return run_fig7(
        num_qubits=6 if quick else 12,
        steps=(0, 1, 2) if quick else (0, 1, 2, 3, 4, 5),
        shots=6 if quick else 14,
        realizations=3 if quick else 10,
    )


def _fig8(quick: bool):
    return run_fig8(
        depths=(1, 2) if quick else (1, 2, 4, 6),
        samples=2 if quick else 6,
        shots=6 if quick else 12,
    )


def _fig9(quick: bool):
    return run_fig9(
        estimates=list(np.linspace(0.0, 3000.0, 5 if quick else 11)),
        shots=40 if quick else 140,
    )


def _fig10(quick: bool):
    return run_fig10(
        steps=(0, 1, 2) if quick else (0, 1, 2, 3, 4, 5),
        shots=8 if quick else 24,
        realizations=3 if quick else 10,
    )


def _table1(quick: bool):
    return run_table1(depth=4 if quick else 8, shots=24 if quick else 48)


#: Each runner returns a result object exposing ``rows()`` (text report;
#: ``formatted()`` is accepted as an alias) and ``to_json()`` (the Sweep
#: serialization behind ``--json``).
EXPERIMENTS: Dict[str, Callable] = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "table1": _table1,
}


def _render(result) -> List[str]:
    # Table1Result's ``rows`` is a data field; its report method is
    # ``formatted()``. Everything else exposes ``rows()``.
    for attr in ("rows", "formatted"):
        method = getattr(result, attr, None)
        if callable(method):
            return method()
    raise TypeError(f"{type(result).__name__} has no report method")


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
        help="compile and simulation threads per batched run "
        "(deterministic for any N)",
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
        result = EXPERIMENTS[name](args.quick)
        for line in _render(result):
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
