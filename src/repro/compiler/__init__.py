"""Context-aware compiler: CA-DD (Algorithm 1), CA-EC (Algorithm 2), baselines."""

from .ca_dd import CADDReport, IdleInterval, apply_ca_dd, pinned_colors, select_joint_windows
from .ca_ec import CAECReport, apply_ca_ec
from .coloring import CONTROL_COLOR, TARGET_COLOR, ColoringResult, color_idle_group, colors_used
from .dd import (
    DEFAULT_MIN_DURATION,
    apply_aligned_dd,
    apply_dd_by_rule,
    apply_staggered_dd,
    dd_pulse_count,
)
from .orientation import OrientationReport, apply_orientation, choose_orientations
from .strategies import STRATEGIES, Strategy, get_strategy
from .walsh import max_sequency, orthogonal, pulse_count, walsh_fractions, walsh_signs

__all__ = [
    "CADDReport",
    "IdleInterval",
    "apply_ca_dd",
    "pinned_colors",
    "select_joint_windows",
    "CAECReport",
    "apply_ca_ec",
    "CONTROL_COLOR",
    "TARGET_COLOR",
    "ColoringResult",
    "color_idle_group",
    "colors_used",
    "DEFAULT_MIN_DURATION",
    "apply_aligned_dd",
    "apply_dd_by_rule",
    "apply_staggered_dd",
    "dd_pulse_count",
    "OrientationReport",
    "apply_orientation",
    "choose_orientations",
    "STRATEGIES",
    "Strategy",
    "get_strategy",
    "max_sequency",
    "orthogonal",
    "pulse_count",
    "walsh_fractions",
    "walsh_signs",
]
