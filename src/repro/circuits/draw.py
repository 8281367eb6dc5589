"""ASCII circuit drawing.

Renders a circuit moment by moment, one row per qubit, so compiled output
(twirl Paulis, DD sequences, compensation insertions) can be inspected at a
glance::

    q0: -H--C--rz(-0.31)--C--H-
    q1: -H--T------------T--H-
    q2: -H--DD(2)---------DD(2)--H-

Two-qubit gates mark their first qubit ``C`` and second ``T`` (control /
target for ECR and CX); DD sequences show their pulse count; compensation
and twirl instructions carry a ``*`` suffix so inserted content stands out.
"""

from __future__ import annotations

from typing import List, Optional

from .circuit import Circuit, Instruction


def _cell_for(inst: Instruction, qubit: int) -> str:
    gate = inst.gate
    suffix = "*" if inst.tag in ("compensation", "twirl", "orientation", "dd") else ""
    if gate.is_measurement:
        return f"M{suffix}"
    if gate.is_delay:
        return f"~{int(gate.params[0])}"
    if gate.name == "dd":
        return f"DD({len(gate.dd_fractions)}){suffix}"
    if gate.num_qubits == 2:
        role = "C" if inst.qubits[0] == qubit else "T"
        label = gate.name if gate.name not in ("ecr", "cx") else ""
        body = f"{label}{role}" if label else role
        return f"{body}{suffix}"
    if gate.params:
        args = ",".join(f"{p:.2f}" for p in gate.params[:1])
        return f"{gate.name}({args}){suffix}"
    return f"{gate.name}{suffix}"


def draw(circuit: Circuit, max_width: Optional[int] = None) -> str:
    """Render ``circuit`` as aligned ASCII art.

    ``max_width`` truncates the output (with an ellipsis column) for very
    deep circuits.
    """
    columns: List[List[str]] = []
    for moment in circuit.moments:
        column = []
        for q in range(circuit.num_qubits):
            inst = moment.instruction_on(q)
            column.append("" if inst is None else _cell_for(inst, q))
        columns.append(column)

    widths = [max((len(c) for c in col), default=0) for col in columns]
    rows = []
    for q in range(circuit.num_qubits):
        cells = []
        for col, width in zip(columns, widths):
            if width == 0:
                continue
            cells.append(col[q].center(width, "-"))
        line = f"q{q}: -" + "--".join(cells) + "-"
        rows.append(line)
    if max_width is not None:
        rows = [
            row if len(row) <= max_width else row[: max_width - 3] + "..."
            for row in rows
        ]
    return "\n".join(rows)


def summary(circuit: Circuit) -> str:
    """One-line inventory: depth, gate counts, inserted content."""
    counts = {}
    for inst in circuit.instructions():
        counts[inst.gate.name] = counts.get(inst.gate.name, 0) + 1
    inserted = circuit.count_gates(tag="compensation") + circuit.count_gates(
        tag="dd"
    )
    parts = [f"{circuit.num_qubits}q", f"depth {len(circuit.moments)}"]
    parts.extend(f"{name}:{n}" for name, n in sorted(counts.items()))
    parts.append(f"inserted:{inserted}")
    return " ".join(parts)
