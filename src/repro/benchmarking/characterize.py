"""Crosstalk characterization from simulated experiments.

The paper infers the magnitudes of the static coherent errors "from the
reported backend information" (Sec. II D); that backend information is
itself produced by Ramsey-style characterization. This module closes the
loop inside the simulator: it *measures* ZZ rates with the same
experiment a calibration pipeline would run, and builds a
calibration-estimated :class:`~repro.device.calibration.Device` whose rates
feed CA-EC — so the compiler can be tested against measured rather than
oracle calibration data.

The ZZ rate comes from a conditional Ramsey experiment: prepare the probe
in ``|+>``, the neighbor in ``|0>`` or ``|1>``, idle for time ``t``, and
read the probe's phase. Under ``H11`` (eq. 1) the neighbor-conditional phase
difference evolves at ``2 nu``, isolating the coupling from single-qubit
detunings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..device.calibration import Device, PairParams
from ..runtime import Sweep, Task
from ..sim.executor import SimOptions
from ..utils.units import TWO_PI

Edge = Tuple[int, int]


def _phase_observables(device: Device, probe: int) -> Dict[str, str]:
    n = device.num_qubits
    label_x = ["I"] * n
    label_y = ["I"] * n
    label_x[n - 1 - probe] = "X"
    label_y[n - 1 - probe] = "Y"
    return {"x": "".join(label_x), "y": "".join(label_y)}


def _phase(result) -> float:
    """Probe phase from <X> and <Y> after a Ramsey evolution (radians)."""
    return math.atan2(result.values["y"], result.values["x"])


def _conditional_ramsey(
    num_qubits: int, probe: int, neighbor: int, idle_time: float, excited: bool
) -> Circuit:
    circ = Circuit(num_qubits)
    circ.h(probe)
    if excited:
        circ.x(neighbor)
    circ.delay(idle_time, probe, new_moment=True)
    circ.delay(idle_time, neighbor)
    return circ


@dataclass
class ZZMeasurement:
    """Estimated ZZ rate with the residual fit error."""

    rate: float  # GHz
    phase_residual: float


def measure_zz_rate(
    device: Device,
    probe: int,
    neighbor: int,
    times: Sequence[float] = (200.0, 400.0, 600.0, 800.0),
    options: Optional[SimOptions] = None,
) -> ZZMeasurement:
    """Conditional-Ramsey estimate of the always-on ZZ rate.

    The phase difference between neighbor-excited and neighbor-ground
    evolutions is ``2 theta = 2 * 2 pi nu t`` (the ``|11>`` sector of eq. 1
    accumulates ``2 theta`` relative to ``|10>``), so a linear fit of the
    conditional phase against time yields ``nu``. Short times keep phases
    unwrapped.

    The experiment runs on a private copy of ``device`` without idle decay
    or gate errors (``t1 = t2 = inf``, ``p1 = p2 = 0``), as a calibration
    isolates the coupling; its coherent rates and slow detunings act.
    """
    options = options or SimOptions(shots=64, seed=17)
    quiet = device.with_params(t1=math.inf, t2=math.inf, p1=0.0, p2=0.0)
    observables = _phase_observables(device, probe)
    swept = Sweep(
        {"time": list(times), "excited": [False, True]},
        lambda time, excited: Task(
            _conditional_ramsey(device.num_qubits, probe, neighbor, time, excited),
            observables=observables,
        ),
        name="zz_conditional_ramsey",
    ).run(quiet, options=options)
    diffs = []
    for t in times:
        delta = _phase(swept[(t, True)]) - _phase(swept[(t, False)])
        while delta > math.pi:
            delta -= 2 * math.pi
        while delta < -math.pi:
            delta += 2 * math.pi
        diffs.append(delta)
    times_arr = np.asarray(times, dtype=float)
    slope = float(np.dot(times_arr, diffs) / np.dot(times_arr, times_arr))
    residual = float(
        np.sqrt(np.mean((np.asarray(diffs) - slope * times_arr) ** 2))
    )
    # Conditional phase velocity = -2 * 2 pi nu (both the ZZ and the flipped
    # local term contribute theta each, with our Rz sign convention).
    rate = abs(slope) / (2.0 * TWO_PI)
    return ZZMeasurement(rate=rate, phase_residual=residual)


def characterize_device(
    device: Device,
    edges: Optional[Sequence[Edge]] = None,
    times: Sequence[float] = (200.0, 400.0, 600.0, 800.0),
    options: Optional[SimOptions] = None,
) -> Device:
    """Rebuild a device whose pair ZZ rates come from *measurement*.

    Runs the conditional-Ramsey protocol on every (or the listed) coupled
    pair of ``device`` and returns a copy with the measured rates installed.
    Feeding this to :func:`~repro.compiler.ca_ec.apply_ca_ec` emulates the
    real workflow where compensation angles come from backend data.
    """
    edges = list(edges) if edges is not None else list(device.pairs)
    overrides: Dict[Edge, PairParams] = {}
    for a, b in edges:
        measurement = measure_zz_rate(device, a, b, times=times, options=options)
        overrides[(a, b)] = replace(
            device.pair(a, b), zz_rate=measurement.rate
        )
    return device.with_pair_overrides(overrides)
