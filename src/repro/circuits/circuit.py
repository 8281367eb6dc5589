"""Moment-based circuit IR.

A :class:`Circuit` is a sequence of :class:`Moment` objects; each moment is a
set of instructions acting on disjoint qubits that execute concurrently. The
layer-centric structure mirrors the stratified circuits that the paper's
error-mitigation workflow operates on (paper Fig. 2), and is the natural
substrate for the context-aware passes: both CA-DD and CA-EC reason about
"what else is happening in this layer".

Classical control (for dynamic circuits, paper Sec. V D) is expressed with
measurement instructions writing to classical bits and conditioned
instructions that execute only when a classical bit holds a given value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import gates as g
from .gates import Gate


@dataclass(frozen=True)
class Instruction:
    """A gate applied to specific qubits, with optional classical control.

    Attributes:
        gate: the operation.
        qubits: target qubits, in gate order.
        clbits: classical bits (measurement results are written to these).
        condition: optional ``(clbit, value)``; the instruction executes only
            when the classical bit equals ``value``.
        tag: provenance label (``"twirl"``, ``"dd"``, ``"compensation"``, ...)
            used by compiler passes and by cost accounting.
    """

    gate: Gate
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = ()
    condition: Optional[Tuple[int, int]] = None
    tag: str = ""

    def __post_init__(self):
        if len(self.qubits) != self.gate.num_qubits:
            raise ValueError(
                f"gate {self.gate.name} expects {self.gate.num_qubits} qubits,"
                f" got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in {self.qubits}")
        if self.gate.is_measurement and len(self.clbits) != 1:
            raise ValueError("measurement needs exactly one classical bit")

    def with_tag(self, tag: str) -> "Instruction":
        return replace(self, tag=tag)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cond = f" if c{self.condition[0]}=={self.condition[1]}" if self.condition else ""
        return f"{self.gate!r}@{list(self.qubits)}{cond}"


class Moment:
    """Instructions executing concurrently on disjoint qubits."""

    def __init__(self, instructions: Iterable[Instruction] = ()):
        self._instructions: List[Instruction] = list(instructions)
        self._validate()

    def _validate(self) -> None:
        seen = set()
        for inst in self._instructions:
            for q in inst.qubits:
                if q in seen:
                    raise ValueError(f"qubit {q} used twice in one moment")
                seen.add(q)

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return tuple(self._instructions)

    @property
    def qubits(self) -> frozenset:
        return frozenset(q for i in self._instructions for q in i.qubits)

    def instruction_on(self, qubit: int) -> Optional[Instruction]:
        """The instruction occupying ``qubit``, or ``None`` if idle here."""
        for inst in self._instructions:
            if qubit in inst.qubits:
                return inst
        return None

    def add(self, inst: Instruction) -> None:
        """Add an instruction; raises if its qubits are already occupied."""
        self._instructions.append(inst)
        try:
            self._validate()
        except ValueError:
            self._instructions.pop()
            raise

    def remove(self, inst: Instruction) -> None:
        self._instructions.remove(inst)

    def replace(self, old: Instruction, new: Instruction) -> None:
        idx = self._instructions.index(old)
        self._instructions[idx] = new
        self._validate()

    @property
    def has_two_qubit_gate(self) -> bool:
        return any(i.gate.num_qubits == 2 for i in self._instructions)

    @property
    def has_measurement(self) -> bool:
        return any(i.gate.is_measurement for i in self._instructions)

    def copy(self) -> "Moment":
        return Moment(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Moment({self._instructions})"


def layer_kind(moment: Moment) -> str:
    """Classify a moment: ``"2q"``, ``"measure"``, ``"delay"``, or ``"1q"``."""
    if moment.has_two_qubit_gate:
        return "2q"
    if moment.has_measurement:
        return "measure"
    if any(i.gate.is_delay for i in moment):
        return "delay"
    return "1q"


class Circuit:
    """A quantum circuit over ``num_qubits`` qubits and ``num_clbits`` bits."""

    def __init__(self, num_qubits: int, num_clbits: int = 0):
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self.moments: List[Moment] = []

    # -- construction -------------------------------------------------------

    def append(
        self,
        gate: Gate,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
        condition: Optional[Tuple[int, int]] = None,
        tag: str = "",
        new_moment: bool = False,
    ) -> Instruction:
        """Append an instruction, packing into the last moment if possible.

        An instruction goes into the final moment when none of its qubits are
        occupied there and no measurement ordering is violated; otherwise a
        new moment is started. Pass ``new_moment=True`` to force a fresh
        moment (used to build explicit layers).
        """
        self._check_bounds(qubits, clbits, condition)
        inst = Instruction(gate, tuple(qubits), tuple(clbits), condition, tag)
        if new_moment or not self.moments:
            self.moments.append(Moment([inst]))
            return inst
        last = self.moments[-1]
        blocked = bool(last.qubits & set(qubits))
        # Keep measurements and conditioned gates in their own ordering:
        # a conditioned gate must come strictly after the moment measuring
        # its classical bit.
        if condition is not None and last.has_measurement:
            blocked = True
        if gate.is_measurement and any(i.condition for i in last):
            blocked = True
        if blocked:
            self.moments.append(Moment([inst]))
        else:
            last.add(inst)
        return inst

    def append_moment(self, instructions: Iterable[Instruction]) -> Moment:
        """Append a fully formed moment."""
        moment = Moment(instructions)
        for inst in moment:
            self._check_bounds(inst.qubits, inst.clbits, inst.condition)
        self.moments.append(moment)
        return moment

    def _check_bounds(self, qubits, clbits, condition) -> None:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range [0, {self.num_qubits})")
        for c in clbits:
            if not 0 <= c < self.num_clbits:
                raise ValueError(f"clbit {c} out of range [0, {self.num_clbits})")
        if condition is not None and not 0 <= condition[0] < self.num_clbits:
            raise ValueError(f"condition clbit {condition[0]} out of range")

    # -- convenience gate appenders -----------------------------------------

    def h(self, q: int, **kw) -> None:
        self.append(g.H, [q], **kw)

    def x(self, q: int, **kw) -> None:
        self.append(g.X, [q], **kw)

    def y(self, q: int, **kw) -> None:
        self.append(g.Y, [q], **kw)

    def s(self, q: int, **kw) -> None:
        self.append(g.S, [q], **kw)

    def rz(self, theta: float, q: int, **kw) -> None:
        self.append(g.rz(theta), [q], **kw)

    def cx(self, control: int, target: int, **kw) -> None:
        self.append(g.CX, [control, target], **kw)

    def ecr(self, control: int, target: int, **kw) -> None:
        self.append(g.ECR, [control, target], **kw)

    def rzz(self, theta: float, q0: int, q1: int, **kw) -> None:
        self.append(g.rzz(theta), [q0, q1], **kw)

    def can(self, alpha: float, beta: float, gamma: float, q0: int, q1: int, **kw) -> None:
        self.append(g.canonical(alpha, beta, gamma), [q0, q1], **kw)

    def measure(self, q: int, c: int, **kw) -> None:
        self.append(g.measure(), [q], clbits=[c], **kw)

    def delay(self, duration: float, q: int, **kw) -> None:
        self.append(g.delay(duration), [q], **kw)

    # -- inspection ----------------------------------------------------------

    def count_gates(self, name: Optional[str] = None, tag: Optional[str] = None) -> int:
        """Count instructions, optionally filtered by gate name and/or tag."""
        total = 0
        for moment in self.moments:
            for inst in moment:
                if name is not None and inst.gate.name != name:
                    continue
                if tag is not None and inst.tag != tag:
                    continue
                total += 1
        return total

    def instructions(self) -> Iterator[Instruction]:
        for moment in self.moments:
            yield from moment

    def has_dynamics(self) -> bool:
        """True when the circuit contains measurement or classical control."""
        return any(
            inst.gate.is_measurement or inst.condition is not None
            for inst in self.instructions()
        )

    def copy(self) -> "Circuit":
        out = Circuit(self.num_qubits, self.num_clbits)
        out.moments = [m.copy() for m in self.moments]
        return out

    def unitary(self) -> np.ndarray:
        """Full unitary of a measurement-free circuit (for testing).

        Qubit 0 is the least-significant bit of the basis-state index.
        """
        if self.has_dynamics():
            raise ValueError("circuit with measurements has no unitary")
        dim = 2**self.num_qubits
        total = np.eye(dim, dtype=complex)
        for moment in self.moments:
            for inst in moment:
                if inst.gate.matrix is None:
                    continue  # delays
                total = _embed(inst.gate.matrix, inst.qubits, self.num_qubits) @ total
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"Circuit({self.num_qubits} qubits, {len(self.moments)} moments)"]
        for i, moment in enumerate(self.moments):
            lines.append(f"  {i}: {list(moment)}")
        return "\n".join(lines)


def _embed(matrix: np.ndarray, qubits: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Embed a small-gate matrix into the full Hilbert space.

    Matrix convention: first listed qubit is the left Kronecker factor.
    State convention: qubit 0 is the least significant index bit.
    """
    k = len(qubits)
    dim = 2**num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    other = [q for q in range(num_qubits) if q not in qubits]
    for col in range(2**k):
        # Bits of `col`, first listed qubit = most significant within the gate.
        col_bits = [(col >> (k - 1 - i)) & 1 for i in range(k)]
        for rest in range(2 ** len(other)):
            base = 0
            for i, q in enumerate(other):
                base |= ((rest >> i) & 1) << q
            src = base
            for q, b in zip(qubits, col_bits):
                src |= b << q
            column = matrix[:, col]
            for row in range(2**k):
                row_bits = [(row >> (k - 1 - i)) & 1 for i in range(k)]
                dst = base
                for q, b in zip(qubits, row_bits):
                    dst |= b << q
                out[dst, src] += column[row]
    return out
