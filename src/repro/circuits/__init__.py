"""Circuit IR: gates, moment-based circuits, Euler angles, and scheduling."""

from . import gates
from .circuit import Circuit, Instruction, Moment, layer_kind
from .draw import draw, summary
from .euler import EulerAngles, euler_angles
from .schedule import Durations, ScheduledCircuit, ScheduledMoment, schedule

__all__ = [
    "gates",
    "Circuit",
    "draw",
    "summary",
    "Instruction",
    "Moment",
    "layer_kind",
    "EulerAngles",
    "euler_angles",
    "Durations",
    "ScheduledCircuit",
    "ScheduledMoment",
    "schedule",
]
