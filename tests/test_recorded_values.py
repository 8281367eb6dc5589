"""Recorded-value guard for the figures the perfbench digests do not cover.

perfbench pins Figs. 3 and 7 by result digests; this test pins every other
figure the same way. Each figure runs at its ``QUICK`` size on the
``vectorized`` backend, every :class:`~repro.runtime.Sweep` it runs is
captured (including the sweeps behind fitted quantities, such as the Fig. 4a
Stark fringe), and each point's values, errors and shot count are hashed as
``perfbench/workloads.point_digest`` does. Fitted quantities are never
hashed. A change that moves any value must re-record the digests in the
open, with the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_recorded_values.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.__main__ import EXPERIMENTS, QUICK
from repro.runtime import Sweep, configure
from repro.runtime.run import default_backend

RECORD = Path(__file__).with_name("recorded_digests.json")
FIGURES = ("fig4", "fig6", "fig8", "fig9", "fig10", "table1")


def point_digest(point) -> str:
    """Hash of one point's values, errors and shots (perfbench's digest)."""
    fields = (
        sorted((key, float(value).hex()) for key, value in point.values.items()),
        sorted((key, float(value).hex()) for key, value in point.errors.items()),
        int(point.shots),
    )
    return hashlib.blake2b(repr(fields).encode(), digest_size=8).hexdigest()


def figure_digests(name):
    """Digest of every Sweep point ``name`` runs at its ``QUICK`` size on
    ``vectorized``, in the order the sweeps finish."""
    sweeps = []
    original = Sweep.run
    backend = default_backend()

    def capture(self, *args, **kwargs):
        sweeps.append(original(self, *args, **kwargs))
        return sweeps[-1]

    Sweep.run = capture
    configure(backend="vectorized")
    try:
        EXPERIMENTS[name](**QUICK[name])
    finally:
        Sweep.run = original
        configure(backend=backend)
    return [point_digest(point) for sweep in sweeps for _coord, point in sweep]


@pytest.mark.parametrize("name", FIGURES)
def test_values_match_the_record(name):
    recorded = json.loads(RECORD.read_text())[name]
    assert figure_digests(name) == recorded


if __name__ == "__main__":
    RECORD.write_text(
        json.dumps({name: figure_digests(name) for name in FIGURES}, indent=1) + "\n"
    )
    print(f"wrote {RECORD}")
