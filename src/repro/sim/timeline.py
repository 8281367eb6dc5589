"""Sign-trajectory timing model for coherent Z/ZZ error accumulation.

Every X-like pulse applied to a qubit during a moment — a dynamical-
decoupling pulse, the ECR control's echo pulse at ``tau_g/2``, or the ECR
target's rotary echoes at ``tau_g/4`` and ``3 tau_g/4`` — flips the sign with
which that qubit accumulates Z-type phase. The coherent error of a moment is
then exactly

    ``theta_Z(q)    ~ nu * T * sign_integral(q)``
    ``theta_ZZ(p,q) ~ nu * T * pair_sign_integral(p, q)``

which is the Walsh sign-balance picture of the paper's Fig. 5: aligned DD
leaves pair products constant (ZZ survives), staggered/Walsh sequences zero
them out, and gate echoes refocus spectator ZZ for free.

This module is shared by the noise simulator *and* by CA-EC: the compiler
predicts the known (static) part of the accumulated error with the same
integrals the simulator uses, which is what makes compensation exact for the
static component — mirroring the paper, where characterized backend data
feeds the compensation angles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from ..circuits.circuit import Moment

Edge = Tuple[int, int]


def _key(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def sign_integral(flips: Tuple[float, ...]) -> float:
    """``(1/T) * int_0^T s(t) dt`` for a trajectory starting at +1.

    ``flips`` are the (sorted) fractions of the moment at which the sign
    flips. Returns a value in ``[-1, 1]``; ``1.0`` means no refocusing.
    """
    total = 0.0
    sign = 1.0
    prev = 0.0
    for f in flips:
        total += sign * (f - prev)
        sign = -sign
        prev = f
    total += sign * (1.0 - prev)
    return total


def pair_sign_integral(
    flips_a: Tuple[float, ...], flips_b: Tuple[float, ...]
) -> float:
    """``(1/T) * int_0^T s_a(t) s_b(t) dt`` for two trajectories."""
    merged = sorted(set(flips_a) | set(flips_b))
    total = 0.0
    sign_a = 1.0
    sign_b = 1.0
    prev = 0.0
    set_a = set(flips_a)
    set_b = set(flips_b)
    for f in merged:
        total += sign_a * sign_b * (f - prev)
        if f in set_a:
            sign_a = -sign_a
        if f in set_b:
            sign_b = -sign_b
        prev = f
    total += sign_a * sign_b * (1.0 - prev)
    return total


@dataclass
class MomentTimeline:
    """Timing context of one moment, independent of the quantum state.

    Attributes:
        duration: moment duration in ns.
        flips: per-qubit sign-flip fractions (empty tuple = no flips).
        gate_pairs: qubit pairs engaged together in one 2q gate; their mutual
            ZZ is part of the calibrated gate and is not accumulated.
        driven: qubits actively driven by a 2q gate (sources of Stark shift
            on their neighbors).
        measured: qubits measured in this moment.
    """

    duration: float
    flips: Dict[int, Tuple[float, ...]]
    gate_pairs: Set[Edge] = field(default_factory=set)
    driven: Set[int] = field(default_factory=set)
    measured: Set[int] = field(default_factory=set)

    def flips_of(self, qubit: int) -> Tuple[float, ...]:
        return self.flips.get(qubit, ())

    def sign_integral(self, qubit: int) -> float:
        return sign_integral(self.flips_of(qubit))

    def pair_sign_integral(self, a: int, b: int) -> float:
        return pair_sign_integral(self.flips_of(a), self.flips_of(b))


def build_timeline(moment: Moment, num_qubits: int, duration: float) -> MomentTimeline:
    """Extract the :class:`MomentTimeline` of a moment.

    Flip fractions come from each gate's ``flip_fractions`` (per listed
    qubit): DD sequences contribute their pulse fractions, ECR contributes
    its echo and rotary pulses. Zero-duration moments carry no error, but a
    timeline is still returned for uniformity.
    """
    flips: Dict[int, Tuple[float, ...]] = {}
    gate_pairs: Set[Edge] = set()
    driven: Set[int] = set()
    measured: Set[int] = set()
    for inst in moment:
        gate = inst.gate
        if gate.is_measurement:
            measured.add(inst.qubits[0])
            continue
        if gate.num_qubits == 2:
            gate_pairs.add(_key(*inst.qubits))
            driven.update(inst.qubits)
        if gate.flip_fractions:
            for qubit, fractions in zip(inst.qubits, gate.flip_fractions):
                if fractions:
                    flips[qubit] = tuple(sorted(fractions))
    return MomentTimeline(
        duration=duration,
        flips=flips,
        gate_pairs=gate_pairs,
        driven=driven,
        measured=measured,
    )
