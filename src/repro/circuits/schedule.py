"""Scheduling: attach wall-clock timing to a layered circuit.

A :class:`ScheduledCircuit` pairs each moment with a start time and duration
(in ns). Durations come from a :class:`Durations` table (typically derived
from device calibration). This is the representation both the noise
simulator and the context-aware passes consume: idle windows are simply
moments (or portions of moments) in which a qubit has no instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .circuit import Circuit, Instruction, Moment
from .gates import VIRTUAL_GATES


@dataclass(frozen=True)
class Durations:
    """Gate durations in ns.

    Defaults follow typical IBM Eagle-class numbers: ~50 ns single-qubit
    layers, ~500 ns ECR (matching the tau = 500 ns idle intervals of the
    paper's Fig. 3c), 4 us readout (paper Sec. V D) and ~1.15 us classical
    feedforward (the value the paper's Fig. 9c calibrates).
    """

    oneq: float = 50.0
    twoq: float = 500.0
    measure: float = 4000.0
    feedforward: float = 1150.0
    canonical_factor: float = 3.0  # a can gate = three CNOT/ECR pulses

    def of_instruction(self, inst: Instruction) -> float:
        gate = inst.gate
        if gate.duration_override is not None:
            return float(gate.duration_override)
        if gate.is_delay:
            return float(gate.params[0])
        if gate.is_measurement:
            return self.measure
        if gate.name in VIRTUAL_GATES:
            # Virtual frame updates are free even when classically
            # conditioned: the controller folds them into later pulses.
            return 0.0
        if inst.condition is not None:
            return self.feedforward
        if gate.name == "dd":
            return 0.0  # pulses live inside an idle window
        if gate.name == "can":
            return self.twoq * self.canonical_factor
        if gate.num_qubits == 2:
            return self.twoq
        return self.oneq

    def of_moment(self, moment: Moment) -> float:
        if len(moment) == 0:
            return 0.0
        return max(self.of_instruction(inst) for inst in moment)


@dataclass(frozen=True)
class ScheduledMoment:
    """A moment with absolute start time and duration (ns)."""

    index: int
    moment: Moment
    start: float
    duration: float


class ScheduledCircuit:
    """A circuit with per-moment timing."""

    def __init__(self, circuit: Circuit, durations: Optional[Durations] = None):
        self.circuit = circuit
        self.durations = durations or Durations()
        self._rebuild()

    def _rebuild(self) -> None:
        self.scheduled: List[ScheduledMoment] = []
        t = 0.0
        for i, moment in enumerate(self.circuit.moments):
            d = self.durations.of_moment(moment)
            self.scheduled.append(ScheduledMoment(i, moment, t, d))
            t += d
        self.total_duration = t

    def refresh(self) -> None:
        """Recompute timing after in-place circuit edits."""
        self._rebuild()

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    def __iter__(self) -> Iterator[ScheduledMoment]:
        return iter(self.scheduled)

    def __len__(self) -> int:
        return len(self.scheduled)

    def __getitem__(self, idx: int) -> ScheduledMoment:
        return self.scheduled[idx]

    def idle_qubits(self, index: int) -> frozenset:
        """Qubits with no instruction in moment ``index``."""
        occupied = self.scheduled[index].moment.qubits
        return frozenset(q for q in range(self.num_qubits) if q not in occupied)

    def idle_windows(self, min_duration: float = 0.0) -> List[Tuple[int, int, float]]:
        """All per-qubit idle windows as ``(moment_index, qubit, duration)``.

        A qubit is idle in a moment when it has no instruction there (or only
        an explicit delay); only windows of positive duration at least
        ``min_duration`` are reported.
        """
        windows = []
        for sm in self.scheduled:
            if sm.duration <= 0.0:
                continue
            occupied = sm.moment.qubits
            for q in range(self.num_qubits):
                inst = sm.moment.instruction_on(q)
                is_idle = q not in occupied or (inst is not None and inst.gate.is_delay)
                if is_idle and sm.duration >= min_duration:
                    windows.append((sm.index, q, sm.duration))
        return windows


def schedule(circuit: Circuit, durations: Optional[Durations] = None) -> ScheduledCircuit:
    """Schedule ``circuit`` with the given (or default) durations."""
    return ScheduledCircuit(circuit, durations)
