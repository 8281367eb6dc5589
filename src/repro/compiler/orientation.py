"""Context-avoiding gate orientation (the paper's Conclusion/outlook).

"One could ask a compiler to not schedule circuits with these undesirable
contexts" — the worst such context is two ECR gates whose *controls* (or
*targets*) sit next to each other in the same layer: their echo patterns
align and the mutual ZZ survives (case IV), where DD cannot act. Because
an ECR's direction can be reversed with single-qubit dressing,

    ``ECR(c, t) = (H_c H_t) . ECR(t, c) . (Ry(+pi/2)_c Ry(-pi/2)_t)``

the compiler is free to choose each gate's physical orientation. This pass
greedily orients the gates of every 2q layer to minimize same-role
adjacencies on the crosstalk graph, folding the dressing gates into the
neighboring 1q layers at zero wall-clock cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..circuits import gates as g
from ..circuits.circuit import Circuit, Instruction, layer_kind
from ..circuits.euler import euler_angles
from ..device.calibration import Device
from ..device.crosstalk import build_crosstalk_graph
from ..device.topology import Topology

# Dressing for ECR(c,t) -> physical ECR(t,c), verified in tests:
# pre (earlier in time): Ry(+pi/2) on c, Ry(-pi/2) on t; post: H on both.
_PRE_ON_CONTROL = g.ry_matrix(math.pi / 2.0)
_PRE_ON_TARGET = g.ry_matrix(-math.pi / 2.0)
_POST = g.H_MAT

_ORIENTABLE = {"ecr", "cx"}


@dataclass
class OrientationReport:
    """Per-layer conflict counts before/after orienting."""

    flipped: int = 0
    conflicts_before: int = 0
    conflicts_after: int = 0
    layers: Dict[int, Tuple[int, int]] = field(default_factory=dict)


def _role_conflicts(
    gates: List[Tuple[int, int]], crosstalk: Topology, flips: List[bool]
) -> int:
    """Count crosstalk-adjacent same-role qubit pairs for given flips."""
    roles: Dict[int, str] = {}
    for (control, target), flip in zip(gates, flips):
        if flip:
            control, target = target, control
        roles[control] = "c"
        roles[target] = "t"
    count = 0
    for a, b in crosstalk.edges:
        if roles.get(a) is not None and roles.get(a) == roles.get(b):
            count += 1
    return count


def choose_orientations(
    gates: List[Tuple[int, int]], crosstalk: Topology
) -> List[bool]:
    """Greedy orientation: flip each gate iff it reduces conflicts so far.

    Gates are processed in order; each decision counts conflicts against the
    union of already-decided gates, then a second refinement sweep lets each
    gate reconsider against the complete assignment.
    """
    flips = [False] * len(gates)
    for _sweep in range(2):
        for i in range(len(gates)):
            keep = list(flips)
            keep[i] = False
            flip = list(flips)
            flip[i] = True
            if _role_conflicts(gates, crosstalk, flip) < _role_conflicts(
                gates, crosstalk, keep
            ):
                flips[i] = True
            else:
                flips[i] = False
    return flips


def apply_orientation(
    circuit: Circuit, device: Device
) -> Tuple[Circuit, OrientationReport]:
    """Re-orient ECR/CX gates to avoid same-role adjacencies.

    Requires stratified form (1q layers around every 2q layer, like the
    twirling pass). Dressing single-qubit gates are fused into the adjacent
    1q layers; the circuit's unitary is unchanged up to global phase.
    """
    crosstalk = build_crosstalk_graph(device)
    out = circuit.copy()
    report = OrientationReport()

    for index, moment in enumerate(out.moments):
        if layer_kind(moment) != "2q":
            continue
        orientable = [
            inst for inst in moment if inst.gate.name in _ORIENTABLE
        ]
        if not orientable:
            continue
        gates = [tuple(inst.qubits) for inst in orientable]
        before = _role_conflicts(gates, crosstalk, [False] * len(gates))
        flips = choose_orientations(gates, crosstalk)
        after = _role_conflicts(gates, crosstalk, flips)
        report.conflicts_before += before
        report.conflicts_after += after
        report.layers[index] = (before, after)
        for inst, flip in zip(orientable, flips):
            if not flip:
                continue
            _flip_gate(out, index, inst)
            report.flipped += 1
    return out, report


def _flip_gate(circuit: Circuit, index: int, inst: Instruction) -> None:
    control, target = inst.qubits
    moment = circuit.moments[index]
    moment.replace(
        inst,
        Instruction(
            inst.gate, (target, control), inst.clbits, inst.condition, inst.tag
        ),
    )
    if inst.gate.name == "ecr":
        pre_control, pre_target = _PRE_ON_CONTROL, _PRE_ON_TARGET
    else:  # cx: the textbook H-conjugation reversal
        pre_control = pre_target = g.H_MAT
    compose_1q(circuit, index - 1, control, pre_control, position="pre")
    compose_1q(circuit, index - 1, target, pre_target, position="pre")
    compose_1q(circuit, index + 1, control, _POST, position="post")
    compose_1q(circuit, index + 1, target, _POST, position="post")


def compose_1q(
    circuit: Circuit,
    index: int,
    qubit: int,
    matrix: np.ndarray,
    position: str,
    tag: str = "orientation",
) -> None:
    """Fuse a single-qubit matrix into the 1q layer at ``index``.

    ``position="pre"`` executes at the end of that layer (just before the
    following 2q layer); ``"post"`` at its start.
    """
    if not 0 <= index < len(circuit.moments):
        raise ValueError(f"no layer at index {index} to host a dressing gate")
    moment = circuit.moments[index]
    if layer_kind(moment) != "1q":
        raise ValueError(
            f"moment {index} ({layer_kind(moment)}) cannot host a dressing gate"
        )
    existing = moment.instruction_on(qubit)
    if existing is None:
        angles = euler_angles(matrix)
        moment.add(
            Instruction(
                g.u(angles.theta, angles.phi, angles.lam), (qubit,), tag=tag
            )
        )
        return
    if existing.gate.matrix is None:
        raise ValueError(f"cannot fuse dressing into {existing.gate.name}")
    if position == "pre":
        fused = matrix @ existing.gate.matrix
    else:
        fused = existing.gate.matrix @ matrix
    angles = euler_angles(fused)
    moment.replace(
        existing,
        Instruction(
            g.u(angles.theta, angles.phi, angles.lam),
            (qubit,),
            condition=existing.condition,
            tag=tag,
        ),
    )
