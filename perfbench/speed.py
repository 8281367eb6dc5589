"""The CPU's speed, sampled while a timed block runs, and times scaled by it.

On a shared virtual machine the CPU runs at a speed set by the host's load:
about 1.7 times slower when the host is busy than when it is not, for
spells of seconds to minutes. A wall time taken in one spell and compared
with one taken in another measures the host, not the program. While a block
runs, :func:`sampled` times a short pure-interpreter loop every
:data:`INTERVAL_S` seconds, and :func:`scale` converts the block's time to
what it would have been at the speed at which the loop takes
:data:`REFERENCE_PROBE_S`.

The loop runs in a signal handler in the main thread, so it interrupts the
block between bytecodes and costs about 0.4% of its time. Only this module
is imported by the fresh interpreters that time ``setup_s``, before the
library.
"""

from __future__ import annotations

import contextlib
import signal
import time
from typing import Iterator, List

#: Seconds between probes while a block runs.
INTERVAL_S = 0.05
#: Seconds :func:`probe` takes on a 2.1 GHz Xeon virtual CPU of an idle host,
#: the reference speed every scaled time is given at.
REFERENCE_PROBE_S = 160e-6


def probe() -> float:
    """Seconds taken by a fixed loop of interpreter work."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - start


@contextlib.contextmanager
def sampled() -> Iterator[List[float]]:
    """Probe the CPU's speed while the block runs; yields the list of probe times.

    One probe also runs just before the block and one just after, so that
    the list is never empty.
    """
    samples = [probe()]

    def on_alarm(signum, frame):
        samples.append(probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.append(probe())


def scale(seconds: float, samples: List[float]) -> float:
    """``seconds`` measured at the speed ``samples`` show, at the reference speed.

    A probe taking ``p`` seconds shows the speed ``1 / p``. The samples are
    evenly spaced in time, so the block's mean speed is the mean of
    ``1 / p``, and its time is scaled by the harmonic mean of the samples.
    A probe that an interrupt lengthened barely moves that mean.
    """
    # Imported here: the interpreters timed for ``setup_s`` import this
    # module first, and must not have loaded what ``repro`` imports.
    import statistics

    return seconds * REFERENCE_PROBE_S / statistics.harmonic_mean(samples)
