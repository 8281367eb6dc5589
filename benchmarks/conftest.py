"""Benchmark configuration.

The ``bench_fig*`` files assert the claims of the figures too slow for
tier-1 (Figs. 7, 8 and 10) on each driver's defaults, the full-size figure
``python -m repro.experiments`` prints; the cheaper figures' claims live in
``tests/test_claims.py``. Timing uses a single round (the experiments are
minutes-scale aggregates, not microbenchmarks).
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
