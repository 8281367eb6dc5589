"""Constrained greedy graph coloring for CA-DD (Algorithm 1, ColorGraph).

Colors are Walsh sequencies. Active gate qubits are pre-colored by their
intrinsic echo structure — ECR controls behave like sequency 1 (midpoint
echo), ECR targets like sequency 2 (rotary echoes) — and cannot be changed.
Idle qubits are then greedily assigned the lowest sequency >= 1 that differs
from every crosstalk-graph neighbor's color, which heuristically minimizes
pulse count while guaranteeing pairwise ZZ refocusing (distinct Walsh rows
are orthogonal).

Conflicts that cannot be avoided (e.g. two adjacent ECR controls are both
pinned to color 1 — the paper's case IV) are reported rather than resolved;
those pairs are exactly what CA-EC compensates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..device.topology import Topology
from .walsh import max_sequency

CONTROL_COLOR = 1
TARGET_COLOR = 2


@dataclass
class ColoringResult:
    """Outcome of coloring one delay group / moment.

    ``colors`` covers both pre-colored active qubits and idle qubits;
    ``assigned`` lists only the idle qubits that received a DD sequence;
    ``conflicts`` lists crosstalk edges whose endpoints share a color (not
    suppressible by DD in this context).
    """

    colors: Dict[int, int] = field(default_factory=dict)
    assigned: List[int] = field(default_factory=list)
    conflicts: List[Tuple[int, int]] = field(default_factory=list)


def color_idle_group(
    idle_qubits: Iterable[int],
    crosstalk: Topology,
    pinned: Optional[Dict[int, int]] = None,
    bins: int = 8,
) -> ColoringResult:
    """Color ``idle_qubits`` subject to ``pinned`` active-qubit colors.

    ``pinned`` maps active qubits to their intrinsic colors (0 for gates
    with no echo structure, 1 for ECR controls, 2 for ECR targets). The
    greedy order starts with the idle qubits most constrained by pinned
    neighbors, mirroring Algorithm 1's "begin with those already constrained
    by the coloring of adjacent ECR gates".
    """
    pinned = dict(pinned or {})
    idle = [q for q in idle_qubits if 0 <= q < crosstalk.num_qubits]
    result = ColoringResult(colors=dict(pinned))

    def constraint_level(q: int) -> Tuple[int, int]:
        neighbors = crosstalk.neighbors(q)
        pinned_nbrs = sum(1 for nb in neighbors if nb in pinned)
        return (-pinned_nbrs, -len(neighbors))

    top = max_sequency(bins)
    for qubit in sorted(idle, key=constraint_level):
        taken: Set[int] = set()
        for nb in crosstalk.neighbors(qubit):
            if nb in result.colors:
                taken.add(result.colors[nb])
        color = next((c for c in range(1, top + 1) if c not in taken), None)
        if color is None:
            # Out of Walsh resolution: fall back to the lowest color and
            # record the conflicts it causes.
            color = 1
        result.colors[qubit] = color
        result.assigned.append(qubit)

    for a, b in crosstalk.edges:
        ca = result.colors.get(a)
        cb = result.colors.get(b)
        if ca is not None and ca == cb:
            result.conflicts.append((a, b) if a < b else (b, a))
    return result


def colors_used(result: ColoringResult) -> int:
    """Number of distinct colors assigned to idle qubits."""
    return len({result.colors[q] for q in result.assigned})
