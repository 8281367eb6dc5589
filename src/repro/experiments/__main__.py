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
choice, only the wall time changes). ``--chunk-shots`` bounds the
vectorized engine's resident states per chunk (0 = auto-size). ``--json
PATH`` writes every requested experiment's result — including the full
per-point Sweep serialization — as one JSON document.

``--backend distributed`` shards each batch's realizations across worker
*processes*: ``--dist-workers N`` sets the fleet size, ``--dist-serve
HOST:PORT`` additionally serves the shard queue over TCP so other hosts
can join the run (``python -m repro.runtime.distributed worker --connect
HOST:PORT``), and ``--dist-connect HOST:PORT`` dials out to workers
started with ``worker --listen``. Results are bit-for-bit identical to
``trajectory`` for every worker count, shard size, and transport.

The compile stage has no flags of its own: it fans out over the same
``--workers`` threads and caches deterministic pipelines in memory.
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
        "or distributed (shards realizations across processes/hosts, "
        "bit-identical to its inner engine)",
    )
    parser.add_argument(
        "--chunk-shots",
        type=int,
        default=None,
        metavar="N",
        help="vectorized backend: max states resident per chunk "
        "(0 = auto-size to ~32 MiB; results never depend on this)",
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
    parser.add_argument(
        "--dist-shard-size",
        type=int,
        default=None,
        metavar="N",
        help="distributed backend: realizations per shard "
        "(default: auto-size; results never depend on this)",
    )
    parser.add_argument(
        "--dist-serve",
        default=None,
        metavar="HOST:PORT",
        help="distributed backend: serve the shard queue here so other "
        "hosts can join (python -m repro.runtime.distributed worker "
        "--connect HOST:PORT)",
    )
    parser.add_argument(
        "--dist-connect",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="distributed backend: dial out to a listening worker "
        "(python -m repro.runtime.distributed worker --listen ...); "
        "repeatable",
    )
    args = parser.parse_args(argv)

    # One configure() call: it validates every setting before changing any,
    # so a rejected flag leaves all runtime defaults as they were.
    settings = {
        name: value
        for name, value in (
            ("workers", args.workers),
            ("backend", args.backend),
            ("chunk_shots", args.chunk_shots),
            ("dist_workers", args.dist_workers),
            ("dist_shard_size", args.dist_shard_size),
            ("dist_serve", args.dist_serve),
            ("dist_connect", args.dist_connect),
        )
        if value is not None
    }
    if settings.get("chunk_shots") == 0:
        settings["chunk_shots"] = None  # --chunk-shots 0 restores auto-sizing
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
        print(f"({time.time() - start:.1f} s)\n")
        if args.json:
            payloads[name] = result.to_json()

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payloads, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
