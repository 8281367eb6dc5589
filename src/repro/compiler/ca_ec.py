"""Context-Aware Error Compensation — the paper's Algorithm 2.

The pass predicts the known (static) coherent error of every scheduled
moment with the same sign-trajectory model the simulator uses, then cancels
it:

* **Z errors** are compensated in place: a virtual ``Rz(-theta)`` is
  inserted immediately adjacent to the error. Virtual Z rotations are frame
  updates with zero duration and zero error (paper Sec. IV B, Ref. [60]),
  so this is always free — the general case of "absorb into the Euler
  angles of a neighboring single-qubit gate".
* **ZZ errors** are moved through the circuit to an absorber. The inverse
  ``Rzz(-theta)`` commutes with Z-type single-qubit gates and with gates on
  other qubits, and anticommutes-with-sign through Pauli X/Y (twirl) gates
  — crossing one flips the compensation angle's sign (paper Fig. 1d). When
  a canonical (Heisenberg-type) or ``rzz`` gate on the same pair is reached,
  the compensation is absorbed into its ZZ angle at zero cost; otherwise an
  explicit pulse-stretched ``Rzz`` is inserted next to the error (cost
  proportional to the small angle). Pairs with no physical coupling (NNN
  crosstalk) cannot host a stretched pulse and are reported as blocked —
  Table I's "EC: not applicable" entries.

The compiler plans with *its* duration table (``durations`` argument), which
may differ from the true hardware timing — sweeping the planner's
feedforward-time estimate against a fixed true value reproduces the paper's
Fig. 9c calibration curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..circuits import gates as g
from ..circuits.circuit import Circuit, Instruction, Moment
from ..circuits.gates import VIRTUAL_GATES
from ..circuits.schedule import Durations, schedule
from ..device.calibration import Device
from ..sim.coherent import CoherentAccumulation, accumulate_coherent
from ..sim.timeline import build_timeline

Edge = Tuple[int, int]

_FLIP_1Q = {"x", "y"}
_ABSORBERS = {"can", "rzz"}

DEFAULT_MIN_ANGLE = 1e-6  # rad; ignore numerically-zero residuals


@dataclass
class CAECReport:
    """What the pass did: counts, angles, and anything it could not fix."""

    z_compensations: int = 0
    total_z_angle: float = 0.0
    zz_absorbed: int = 0
    zz_explicit: int = 0
    blocked: List[Tuple[int, Edge, float, str]] = field(default_factory=list)

    @property
    def zz_total(self) -> int:
        return self.zz_absorbed + self.zz_explicit + len(self.blocked)


@dataclass
class _Absorption:
    moment_index: int
    instruction: Instruction
    sign: int


def apply_ca_ec(
    circuit: Circuit,
    device: Device,
    durations: Optional[Durations] = None,
    skip_moments: Optional[frozenset] = None,
) -> Tuple[Circuit, CAECReport]:
    """Insert error compensation into ``circuit``; returns circuit + report.

    ``durations`` is the compiler's timing belief (defaults to the device
    table). Should be run *after* twirl sampling and DD insertion so the
    predicted accumulations match what will actually execute.
    ``skip_moments`` excludes the listed moment indices from compensation —
    used when a specialized scheme (e.g. conditional corrections around a
    measurement window, paper Fig. 9b) handles them instead. Residual
    angles below ``DEFAULT_MIN_ANGLE`` are left uncompensated.
    """
    out = circuit.copy()
    durations = durations or device.durations
    scheduled = schedule(out, durations)
    report = CAECReport()

    # Predicted static error per moment (same model as the simulator).
    accumulations: List[CoherentAccumulation] = [
        accumulate_coherent(
            build_timeline(sm.moment, out.num_qubits, sm.duration), device
        )
        for sm in scheduled
    ]

    # Compensations to insert immediately before each original moment:
    # virtual Rz instructions and (possibly several) explicit Rzz gates.
    z_inserts: Dict[int, List[Instruction]] = {}
    zz_inserts: Dict[int, List[Instruction]] = {}

    skipped = frozenset(skip_moments or ())
    for index, acc in enumerate(accumulations):
        if index in skipped:
            continue
        for qubit, theta in acc.z.items():
            if abs(theta) < DEFAULT_MIN_ANGLE:
                continue
            z_inserts.setdefault(index, []).append(
                Instruction(g.rz(-theta), (qubit,), tag="compensation")
            )
            report.z_compensations += 1
            report.total_z_angle += abs(theta)
        for edge, theta in acc.zz.items():
            if abs(theta) < DEFAULT_MIN_ANGLE:
                continue
            absorption = _find_absorber(out, index, edge)
            if absorption is not None:
                _absorb_zz(out, absorption, theta)
                report.zz_absorbed += 1
            elif edge in device.pairs:
                gate = g.stretched_rzz(-theta)
                zz_inserts.setdefault(index, []).append(
                    Instruction(gate, edge, tag="compensation")
                )
                report.zz_explicit += 1
            else:
                report.blocked.append(
                    (index, edge, theta, "no coupling for stretched pulse")
                )

    _materialize_inserts(out, z_inserts, zz_inserts)
    return out, report


def _find_absorber(
    circuit: Circuit, index: int, edge: Edge
) -> Optional[_Absorption]:
    """Search forward then backward for a gate that can host ``Rzz`` on edge.

    Returns the absorber with the accumulated crossing sign, or ``None``
    when the compensation is blocked before reaching one.
    """
    forward = _scan(circuit, index, edge, direction=+1)
    if forward is not None:
        return forward
    return _scan(circuit, index, edge, direction=-1)


def _scan(
    circuit: Circuit, index: int, edge: Edge, direction: int
) -> Optional[_Absorption]:
    a, b = edge
    sign = 1
    # The moment's error acts *before* its own unitaries, so a forward scan
    # must cross the error moment's own gates too; a backward scan starts at
    # the preceding moment.
    j = index if direction > 0 else index - 1
    while 0 <= j < len(circuit.moments):
        moment = circuit.moments[j]
        for inst in moment:
            touches = [q for q in inst.qubits if q in (a, b)]
            if not touches:
                continue
            gate = inst.gate
            if gate.num_qubits == 2 and tuple(sorted(inst.qubits)) == edge:
                if gate.name in _ABSORBERS and inst.condition is None:
                    return _Absorption(j, inst, sign)
                return None  # e.g. ECR on the pair: ZZ does not commute
            if inst.condition is not None:
                return None  # classical branch: sign is outcome-dependent
            if gate.is_measurement:
                return None
            if gate.is_delay:
                continue
            if gate.num_qubits == 2:
                return None  # entangles a or b with a third qubit
            name = gate.name
            if name in VIRTUAL_GATES:
                continue
            if name in _FLIP_1Q:
                sign = -sign
                continue
            if name == "dd":
                if len(gate.dd_fractions) % 2 == 1:
                    sign = -sign
                continue
            return None  # generic 1q gate: ZZ cannot cross
        j += direction
    return None


def _absorb_zz(circuit: Circuit, absorption: _Absorption, theta: float) -> None:
    """Fold ``Rzz(-sign*theta)`` into the absorber's ZZ angle.

    For ``can(alpha, beta, gamma) = exp[i(a XX + b YY + c ZZ)]`` the inverse
    error ``Rzz(-s theta) = exp(i s theta/2 ZZ)`` shifts ``gamma`` by
    ``+s theta / 2``; for ``rzz(phi)`` it shifts ``phi`` by ``-s theta``.
    """
    inst = absorption.instruction
    moment = circuit.moments[absorption.moment_index]
    s = absorption.sign
    if inst.gate.name == "can":
        alpha, beta, gamma = inst.gate.params
        new_gate = g.canonical(alpha, beta, gamma + s * theta / 2.0)
    else:  # rzz
        (phi,) = inst.gate.params
        new_gate = g.rzz(phi - s * theta)
    moment.replace(
        inst,
        Instruction(new_gate, inst.qubits, inst.clbits, inst.condition, inst.tag),
    )


def _materialize_inserts(
    circuit: Circuit,
    z_inserts: Dict[int, List[Instruction]],
    zz_inserts: Dict[int, List[Instruction]],
) -> None:
    """Insert compensation moments before their target moments.

    Virtual Rz compensations share one zero-duration moment; explicit Rzz
    gates are packed greedily into as few extra moments as overlap allows.
    """
    new_moments: List[Moment] = []
    for index, moment in enumerate(circuit.moments):
        if index in z_inserts:
            new_moments.append(Moment(z_inserts[index]))
        packs: List[List[Instruction]] = []
        for inst in zz_inserts.get(index, ()):
            for pack in packs:
                occupied = {q for i in pack for q in i.qubits}
                if not (set(inst.qubits) & occupied):
                    pack.append(inst)
                    break
            else:
                packs.append([inst])
        for pack in packs:
            new_moments.append(Moment(pack))
        new_moments.append(moment)
    circuit.moments = new_moments
