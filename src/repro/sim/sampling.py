"""Shared stochastic-noise sampling for the trajectory engines.

The Monte-Carlo engines consume their RNG stream in a fixed,
state-independent order: which draws happen (and how many) depends only on
the device and the schedule — never on the quantum state, and a noise
source whose device parameters are zero draws nothing. The state only
enters through *comparisons* against already-drawn uniforms (measurement
collapse, amplitude-damping jumps), each of which consumes exactly one
draw.

That property is what makes a batched engine bit-for-bit reproducible: the
draws of every shot can be materialized up front, in the exact stream order
of one sequential per-shot loop, and the state evolution can then be
applied to all shots at once.

This module is the single source of truth for that stream order:

* :func:`build_noise_plan` precomputes, per moment, every draw site and its
  static probability, and gives each uniform draw after the per-shot
  detunings a *column* in stream order: per moment the measurement
  collapses, then the per-qubit dephasing flip / damping window interleave,
  then one column per gate-error repeat;
* :class:`NoiseBatch` holds the draws of a block of shots as arrays: the
  detunings ``(size, n)``, the uniforms ``(size, U)`` by column, and the
  sampled Pauli codes ``(size, G)`` per gate-error repeat (``-1``: no
  error);
* :func:`sample_shot` fills one row of a batch.

Stream order per shot: the detunings (per qubit, a ``normal`` draw and a
parity-sign uniform), then the ``U`` column uniforms in column order, with
one ``integers(high)`` draw immediately after each gate-error uniform that
falls below its probability. :func:`sample_shot` draws the detunings one by
one (``normal`` uses a variable number of words) and the columns in bulk:
it snapshots ``rng.bit_generator.state``, draws every remaining column with
one ``rng.random(k)`` call and finds the first triggered gate-error column
with one comparison. On a trigger it restores the snapshot, redraws up to
and including the triggering uniform, draws the Pauli index and continues
from the next column. This is exact for every NumPy bit generator:
``Generator.random(k)`` runs the same ``next_double`` as ``k`` scalar
``random()`` calls, and the state dict includes any buffered 32-bit half
that ``integers`` consumes, so the values and the generator's final state
equal those of the per-draw loop.

Both the scalar :class:`~repro.sim.executor.Executor` (one-row batches) and
the batched :class:`~repro.sim.vectorized.VectorizedExecutor` sample through
:func:`sample_shot` and read the same columns, so ``trajectory`` and
``vectorized`` results coincide seed for seed. The stream order itself is
pinned by recorded result digests, not by engine parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..circuits.gates import VIRTUAL_GATES
from ..circuits.schedule import ScheduledCircuit
from ..device.calibration import Device

_PAULI_1Q = ("X", "Y", "Z")
_PAULI_2Q = [
    (a, b) for a in ("I", "X", "Y", "Z") for b in ("I", "X", "Y", "Z")
][1:]


def _dephasing_prob(t2: float, t1: float, duration: float) -> float:
    """Z-flip probability over ``duration`` from pure dephasing."""
    if duration <= 0.0 or not math.isfinite(t2):
        return 0.0
    inv_tphi = 1.0 / t2 - 1.0 / (2.0 * t1) if math.isfinite(t1) else 1.0 / t2
    inv_tphi = max(inv_tphi, 0.0)
    return 0.5 * (1.0 - math.exp(-duration * inv_tphi))


@dataclass(frozen=True)
class GateErrorSite:
    """One gate-error draw site: ``repeats`` (uniform, maybe Pauli) draws.

    ``slot`` is the index of the first repeat in :attr:`NoisePlan.gate_cols`
    and in the columns of :attr:`NoiseBatch.paulis`; the repeats occupy
    consecutive slots.
    """

    qubits: Tuple[int, ...]
    prob: float
    two_qubit: bool
    repeats: int = 1
    slot: int = 0


@dataclass(frozen=True)
class MomentNoisePlan:
    """Every draw of one moment, in stream order.

    Attributes:
        measured: ``(qubit, clbit, column)`` per measurement instruction, in
            moment order; ``column`` is the collapse uniform.
        idles: ``(qubit, p_z, gamma, flip_col, damp_col)`` per qubit with
            any idle noise, in qubit order. ``p_z > 0`` draws the dephasing
            flip uniform at ``flip_col``, then ``gamma > 0`` the damping
            jump uniform at ``damp_col``; an undrawn column is ``-1``.
        gate_errors: draw sites for step 5, in instruction order.
    """

    measured: Tuple[Tuple[int, int, int], ...]
    idles: Tuple[Tuple[int, float, float, int, int], ...]
    gate_errors: Tuple[GateErrorSite, ...]


@dataclass(frozen=True, eq=False)
class NoisePlan:
    """All draw sites of one scheduled circuit on one device.

    ``uniforms`` counts the column uniforms of one shot. ``gate_cols``,
    ``gate_probs`` and ``gate_highs`` list, per gate-error repeat in stream
    order, its uniform column, its error probability and the number of
    Paulis its index is drawn from.
    """

    num_qubits: int
    #: per-qubit ``(quasistatic_sigma, parity_delta)``; a zero entry draws
    #: nothing.
    detunings: Tuple[Tuple[float, float], ...]
    moments: Tuple[MomentNoisePlan, ...]
    uniforms: int
    gate_cols: np.ndarray
    gate_probs: np.ndarray
    gate_highs: np.ndarray


@dataclass
class NoiseBatch:
    """The draws of ``size`` shots, one row per shot.

    Attributes:
        detunings: ``(size, n)`` per-shot detunings (zero where the device
            has no slow noise).
        uniforms: ``(size, plan.uniforms)`` column uniforms.
        paulis: ``(size, len(plan.gate_cols))`` sampled Pauli index per
            gate-error repeat (into ``_PAULI_2Q`` for two-qubit sites,
            ``_PAULI_1Q`` otherwise), ``-1`` for no error.
    """

    detunings: np.ndarray
    uniforms: np.ndarray
    paulis: np.ndarray

    @classmethod
    def empty(cls, plan: NoisePlan, size: int) -> "NoiseBatch":
        """An unsampled batch of ``size`` rows for :func:`sample_shot`."""
        return cls(
            np.zeros((size, plan.num_qubits)),
            np.empty((size, plan.uniforms)),
            np.full((size, plan.gate_cols.size), -1, dtype=np.int64),
        )

    @property
    def size(self) -> int:
        """Number of shots (rows)."""
        return self.uniforms.shape[0]


def build_noise_plan(scheduled: ScheduledCircuit, device: Device) -> NoisePlan:
    """Precompute every draw site of ``scheduled`` on ``device``.

    The device is the whole noise model: a source with zero parameters
    (``p1``/``p2``, infinite ``t1``/``t2``, zero ``quasistatic_sigma`` and
    ``parity_delta``) gets no site and no column. The plan is state-free
    and shot-independent, so one plan serves every trajectory of an
    executor (and every chunk of a batched engine).
    """
    n = scheduled.num_qubits
    detunings = tuple(
        (device.qubit(q).quasistatic_sigma, device.qubit(q).parity_delta)
        for q in range(n)
    )
    column = 0

    def take() -> int:
        """The next column; sites call it in stream order."""
        nonlocal column
        column += 1
        return column - 1

    gate_cols: List[int] = []
    gate_probs: List[float] = []
    gate_highs: List[int] = []

    def gate_site(qubits, prob, two_qubit, repeats=1) -> GateErrorSite:
        site = GateErrorSite(tuple(qubits), prob, two_qubit, repeats, len(gate_cols))
        for _ in range(repeats):
            gate_cols.append(take())
            gate_probs.append(prob)
            gate_highs.append(len(_PAULI_2Q) if two_qubit else len(_PAULI_1Q))
        return site

    moments = []
    for sm in scheduled:
        moment = sm.moment
        measured = tuple(
            (inst.qubits[0], inst.clbits[0], take())
            for inst in moment
            if inst.gate.is_measurement
        )
        idles: List[Tuple[int, float, float, int, int]] = []
        if sm.duration > 0.0:
            for q in range(n):
                params = device.qubit(q)
                p_z = _dephasing_prob(params.t2, params.t1, sm.duration)
                gamma = 0.0
                if math.isfinite(params.t1):
                    gamma = 1.0 - math.exp(-sm.duration / params.t1)
                if p_z > 0.0 or gamma > 0.0:
                    flip_col = take() if p_z > 0.0 else -1
                    damp_col = take() if gamma > 0.0 else -1
                    idles.append((q, p_z, gamma, flip_col, damp_col))
        sites: List[GateErrorSite] = []
        for inst in moment:
            gate = inst.gate
            if gate.is_measurement or gate.is_delay:
                continue
            if gate.num_qubits == 2:
                p2 = device.pair_error(*inst.qubits) * gate.error_scale
                if p2 > 0.0:
                    sites.append(gate_site(inst.qubits, p2, True))
            elif gate.name == "dd":
                p1 = device.qubit(inst.qubits[0]).p1
                if p1 > 0.0 and gate.dd_fractions:
                    sites.append(
                        gate_site(
                            inst.qubits[:1], p1, False,
                            repeats=len(gate.dd_fractions),
                        )
                    )
            elif gate.name not in VIRTUAL_GATES:
                p1 = device.qubit(inst.qubits[0]).p1
                if p1 > 0.0:
                    sites.append(gate_site(inst.qubits[:1], p1, False))
        moments.append(MomentNoisePlan(measured, tuple(idles), tuple(sites)))
    arrays = (
        np.array(gate_cols, dtype=np.int64),
        np.array(gate_probs, dtype=np.float64),
        np.array(gate_highs, dtype=np.int64),
    )
    for arr in arrays:
        arr.setflags(write=False)  # one plan serves every unit thread
    return NoisePlan(n, detunings, tuple(moments), column, *arrays)


def sample_shot(
    plan: NoisePlan, rng: np.random.Generator, batch: NoiseBatch, row: int
) -> None:
    """Draw one trajectory's noise into ``batch`` row ``row``, in stream order.

    ``batch.paulis[row]`` must still hold ``-1`` everywhere (as
    :meth:`NoiseBatch.empty` leaves it). See the module docstring for the
    stream order and why the bulk draw with rewind reproduces it exactly.
    """
    detunings = batch.detunings[row]
    for q, (sigma, delta) in enumerate(plan.detunings):
        value = 0.0
        if sigma > 0.0:
            value += rng.normal(0.0, sigma)
        if delta > 0.0:
            value += delta * (1 if rng.random() < 0.5 else -1)
        detunings[q] = value
    uniforms = batch.uniforms[row]
    paulis = batch.paulis[row]
    cols, probs = plan.gate_cols, plan.gate_probs
    bit_generator = rng.bit_generator
    start = 0  # first column not drawn yet
    slot = 0  # first gate-error repeat at or after ``start``
    while slot < cols.size:
        snapshot = bit_generator.state
        rng.random(out=uniforms[start:])
        hits = (uniforms[cols[slot:]] < probs[slot:]).nonzero()[0]
        if not hits.size:
            return
        slot += int(hits[0])
        stop = int(cols[slot]) + 1
        bit_generator.state = snapshot
        rng.random(out=uniforms[start:stop])
        paulis[slot] = rng.integers(int(plan.gate_highs[slot]))
        start = stop
        slot += 1
    if start < plan.uniforms:
        rng.random(out=uniforms[start:])
