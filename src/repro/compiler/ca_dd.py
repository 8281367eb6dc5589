"""Context-Aware Dynamical Decoupling — the paper's Algorithm 1.

Four phases:

1. ``BuildInteractionGraph`` — crosstalk graph from device calibration
   (coupling edges plus collision-enhanced NNN pairs).
2. ``CollectJointDelays`` — idle periods long enough to dress. With the
   library's layer-aligned scheduler every moment is already a maximal
   aligned window, so each moment at least ``DEFAULT_MIN_DURATION`` long is
   one joint delay group.
3. ``ColorGraph`` — greedy coloring of each group with ECR-imposed pins:
   controls are sequency 1 (their echo), targets sequency 2 (their rotary),
   so a control's spectator never shares the control's pattern and a
   target's spectator never undoes the rotary refocusing (paper Sec. IV A).
4. ``ApplyDDSeqByColor`` — Walsh sequences from a pre-built dictionary,
   indexed by color.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..circuits.circuit import Circuit, Moment
from ..circuits.schedule import schedule
from ..device.calibration import Device
from ..device.crosstalk import build_crosstalk_graph
from .coloring import CONTROL_COLOR, TARGET_COLOR, ColoringResult, color_idle_group
from .dd import DEFAULT_MIN_DURATION, _idle_qubits, _insert_dd
from .walsh import walsh_fractions


@dataclass
class CADDReport:
    """Diagnostics: per-moment coloring results and unresolved conflicts."""

    colorings: Dict[int, ColoringResult] = field(default_factory=dict)

    @property
    def conflicts(self) -> List[Tuple[int, int, int]]:
        """All ``(moment, a, b)`` crosstalk pairs DD could not separate."""
        out = []
        for index, coloring in self.colorings.items():
            for a, b in coloring.conflicts:
                out.append((index, a, b))
        return out

    def colors_in_moment(self, index: int) -> Dict[int, int]:
        return dict(self.colorings.get(index, ColoringResult()).colors)


def pinned_colors(moment: Moment) -> Dict[int, int]:
    """Intrinsic colors of active qubits in a moment.

    ECR, CX, and canonical gates (whose hardware synthesis leads with the
    same echo pattern) pin their first qubit to sequency 1 and second to
    sequency 2. Other two-qubit gates and measured qubits have no echo
    structure: pinned to 0 (undressed).
    """
    pins: Dict[int, int] = {}
    for inst in moment:
        gate = inst.gate
        if gate.num_qubits == 2 and gate.name in ("ecr", "cx", "can"):
            control, target = inst.qubits
            pins[control] = CONTROL_COLOR
            pins[target] = TARGET_COLOR
        elif gate.num_qubits == 2:
            pins[inst.qubits[0]] = 0
            pins[inst.qubits[1]] = 0
        elif gate.is_measurement:
            pins[inst.qubits[0]] = 0
    return pins


def apply_ca_dd(circuit: Circuit, device: Device) -> Tuple[Circuit, CADDReport]:
    """Dress ``circuit`` with context-aware DD; returns circuit + report."""
    crosstalk = build_crosstalk_graph(device)
    out = circuit.copy()
    scheduled = schedule(out, device.durations)
    report = CADDReport()

    for sm in scheduled:
        if sm.duration < DEFAULT_MIN_DURATION:
            continue
        moment = sm.moment
        # Every idle qubit is dressed: crosstalk neighbors constrain colors,
        # and isolated qubits still gain Z refocusing from the lowest color.
        # Even with no idle qubits the coloring runs on the pinned active
        # qubits alone, so unavoidable conflicts (adjacent ECR controls,
        # the paper's case IV) are still reported.
        idle = list(_idle_qubits(moment, out.num_qubits))
        pins = pinned_colors(moment)
        coloring = color_idle_group(idle, crosstalk, pinned=pins)
        report.colorings[sm.index] = coloring
        for qubit in coloring.assigned:
            fractions = walsh_fractions(coloring.colors[qubit])
            if fractions:
                _insert_dd(moment, qubit, fractions)
    return out, report
