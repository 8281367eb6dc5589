"""Coherent Z/ZZ phase accumulation per moment (paper eq. 1-3).

Between every crosstalk pair the always-on interaction

    ``H11 = nu/2 (-Z(x)I - I(x)Z + Z(x)Z)``

acts whenever the pair is not engaged in a common (calibrated) two-qubit
gate, producing the error ``U11 = Rzz(theta) [Rz(-theta) (x) Rz(-theta)]``
with ``theta = 2 pi nu tau`` (eq. 2). Two-qubit gate drives and readout
drives add AC Stark Z shifts on neighbors. Every term is modulated by the
qubits' sign trajectories, so echo pulses and DD sequences refocus exactly
the right contributions.

This is the static, shot-independent part of the error: the compiler
(CA-EC) predicts it, and the engines cache it per moment. The per-shot
detunings (quasi-static + charge parity) are added by the engines on top,
as ``2 pi * rate * duration * sign_integral(q)`` on each qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..device.calibration import Device
from ..utils.units import TWO_PI
from .timeline import Edge, MomentTimeline, _key


@dataclass
class CoherentAccumulation:
    """Rotation angles accumulated in one moment.

    ``z[q]`` is the ``Rz`` angle on qubit ``q``; ``zz[(a, b)]`` the ``Rzz``
    angle on the sorted pair. Both use the ``exp(-i theta Z/2)`` convention
    of the gate library, so applying ``Rz(-theta)`` cancels ``z = theta``.
    """

    z: Dict[int, float] = field(default_factory=dict)
    zz: Dict[Edge, float] = field(default_factory=dict)

    def add_z(self, qubit: int, angle: float) -> None:
        if angle != 0.0:
            self.z[qubit] = self.z.get(qubit, 0.0) + angle

    def add_zz(self, a: int, b: int, angle: float) -> None:
        if angle != 0.0:
            key = _key(a, b)
            self.zz[key] = self.zz.get(key, 0.0) + angle

    def is_negligible(self, atol: float = 1e-12) -> bool:
        return all(abs(v) < atol for v in self.z.values()) and all(
            abs(v) < atol for v in self.zz.values()
        )


def accumulate_coherent(timeline: MomentTimeline, device: Device) -> CoherentAccumulation:
    """Static coherent error angles of one moment.

    Args:
        timeline: the moment's timing context.
        device: calibration (ZZ rates, Stark shifts).
    """
    acc = CoherentAccumulation()
    duration = timeline.duration
    if duration <= 0.0:
        return acc

    for a, b in device.crosstalk_edges():
        if _key(a, b) in timeline.gate_pairs:
            continue  # calibrated into the gate itself
        nu = device.zz_rate(a, b)
        if nu == 0.0:
            continue
        theta = TWO_PI * nu * duration
        f_ab = timeline.pair_sign_integral(a, b)
        f_a = timeline.sign_integral(a)
        f_b = timeline.sign_integral(b)
        acc.add_zz(a, b, theta * f_ab)
        acc.add_z(a, -theta * f_a)
        acc.add_z(b, -theta * f_b)

    for p in timeline.driven:
        for q in device.topology.neighbors(p):
            if _key(p, q) in timeline.gate_pairs:
                continue
            rate = device.stark_shift(p, q)
            if rate == 0.0:
                continue
            acc.add_z(q, TWO_PI * rate * duration * timeline.sign_integral(q))
    # Readout drives Stark-shift the measured qubit's neighbors for the
    # whole measurement window (dominant in dynamic circuits, Fig. 9).
    for m in timeline.measured:
        rate = device.qubit(m).measure_stark
        if rate == 0.0:
            continue
        for q in device.topology.neighbors(m):
            acc.add_z(q, TWO_PI * rate * duration * timeline.sign_integral(q))
    return acc
