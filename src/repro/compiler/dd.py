"""Dynamical-decoupling insertion passes.

Provides the context-unaware baselines the paper compares against:

* ``aligned`` — the conventional X2 sequence (pulses at 1/4 and 3/4) applied
  identically to every idle qubit. Cancels single-qubit Z but leaves every
  idle-idle ZZ untouched (pair sign products never flip) — the failing
  baseline of Fig. 3c.
* ``staggered`` — alternating two sequencies by a 2-coloring of the coupling
  graph, ignoring gate context. Fixes idle-idle pairs but can align with
  (and undo) the implicit echoes of neighboring ECR gates.
* ``uniform`` — an alias of ``aligned``; the "DD" rows of Figs. 7 and 8.

All passes insert :func:`~repro.circuits.gates.dd_sequence` instructions on
idle qubits of moments at least ``DEFAULT_MIN_DURATION`` long (only
:func:`apply_dd_by_rule` takes another cutoff). A qubit holding an explicit
``delay`` has its delay replaced by a DD sequence with the same duration.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from ..circuits import gates as g
from ..circuits.circuit import Circuit, Instruction, Moment
from ..circuits.schedule import schedule
from ..device.calibration import Device
from .walsh import walsh_fractions

DEFAULT_MIN_DURATION = 150.0  # ns; skip 1q layers, dress 2q/delay/measure windows

ALIGNED_FRACTIONS = (0.25, 0.75)


def _insert_dd(
    moment: Moment, qubit: int, fractions: Iterable[float]
) -> None:
    """Place a DD sequence on ``qubit``; replaces an explicit delay if any."""
    fractions = tuple(fractions)
    if not fractions:
        return
    existing = moment.instruction_on(qubit)
    if existing is None:
        moment.add(Instruction(g.dd_sequence(fractions), (qubit,), tag="dd"))
    elif existing.gate.is_delay:
        duration = float(existing.gate.params[0])
        moment.replace(
            existing,
            Instruction(g.dd_sequence(fractions, duration=duration), (qubit,), tag="dd"),
        )
    else:
        raise ValueError(f"qubit {qubit} is not idle in this moment")


def _idle_qubits(moment: Moment, num_qubits: int) -> Iterable[int]:
    for q in range(num_qubits):
        inst = moment.instruction_on(q)
        if inst is None or inst.gate.is_delay:
            yield q


def apply_dd_by_rule(
    circuit: Circuit,
    device: Device,
    rule: Callable[[Moment, int], Optional[Iterable[float]]],
    min_duration: float = DEFAULT_MIN_DURATION,
) -> Circuit:
    """Generic DD pass: ``rule(moment, qubit)`` returns pulse fractions.

    The rule is consulted for every idle qubit of every moment whose
    scheduled duration is at least ``min_duration``; returning ``None``
    skips the qubit. Moments containing measurements are skipped for the
    measured qubits automatically.
    """
    out = circuit.copy()
    scheduled = schedule(out, device.durations)
    for sm in scheduled:
        if sm.duration < min_duration:
            continue
        for qubit in list(_idle_qubits(sm.moment, out.num_qubits)):
            fractions = rule(sm.moment, qubit)
            if fractions:
                _insert_dd(sm.moment, qubit, fractions)
    return out


def apply_aligned_dd(circuit: Circuit, device: Device) -> Circuit:
    """Uniform context-unaware X2 DD on every idle qubit."""
    return apply_dd_by_rule(circuit, device, lambda _m, _q: ALIGNED_FRACTIONS)


def apply_staggered_dd(circuit: Circuit, device: Device) -> Circuit:
    """Two-coloring staggered DD, ignoring gate context.

    Idle qubits get Walsh sequency 1 or 2 according to a fixed 2-coloring of
    the coupling graph (bipartite for chains/heavy-hex; odd cycles fall back
    to a greedy assignment that may leave one conflicting pair).
    """
    coloring = _two_coloring(device)

    def rule(_moment: Moment, qubit: int):
        return walsh_fractions(1 + coloring.get(qubit, 0))

    return apply_dd_by_rule(circuit, device, rule)


def _two_coloring(device: Device) -> Dict[int, int]:
    # A qubit's color depends only on its already-colored neighbors, which
    # share its connected component, so one ascending sweep over all qubits
    # colors each component as if it were swept alone.
    topology = device.topology
    colors: Dict[int, int] = {}
    for node in range(topology.num_qubits):
        used = {colors[nb] for nb in topology.neighbors(node) if nb in colors}
        colors[node] = 0 if 0 not in used else 1
    return colors


def dd_pulse_count(circuit: Circuit) -> int:
    """Total physical DD pulses inserted in ``circuit``."""
    return sum(
        len(inst.gate.dd_fractions)
        for inst in circuit.instructions()
        if inst.gate.name == "dd"
    )
