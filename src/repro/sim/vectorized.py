"""Vectorized batched-trajectory engine.

Stacks all shots of a run along the leading axis of one ``(shots, 2**n)``
complex array and applies every evolution step as a whole-batch NumPy
operation: diagonal coherent phases as one broadcast multiply, moment
unitaries as stacked ``matmul`` calls over the shot axis, sampled jump masks
as row-subset updates, and expectation contractions per shot at the end.
The per-shot Python loop of :class:`~repro.sim.executor.Executor` survives
only in the state-free noise-sampling pass, which writes each shot's draws
straight into one row of a columnar :class:`~repro.sim.sampling.NoiseBatch`
with one bulk uniform draw per shot.

Bit-for-bit reproducibility with the scalar ``trajectory`` backend is a
design invariant, not an accident:

* all draws come from :func:`repro.sim.sampling.sample_shot`, the same
  sampler the scalar engine uses, and every step reads the same columns;
* every floating-point reduction uses a form whose row-wise application to
  a C-contiguous batch is bit-identical to the scalar call (pairwise
  ``np.sum`` along the last axis, broadcast ``np.matmul`` over stacked
  slices, per-shot ``np.vdot`` for the final contraction);
* per-shot coherent phase angles accumulate in the scalar executor's exact
  dict order, so the same additions happen in the same sequence;
* both engines renormalize a no-jump branch through
  :func:`~repro.sim.statevector.renormalize` (``x * (1 / norm)`` on the
  ``float64`` view), so the renormalized amplitudes agree bit for bit.

Two steps do less arithmetic than the scalar engine and rest on one NumPy
property each, pinned by ``tests/test_vectorized.py``:

* **Support-reduced phases.** A moment's phase exponent depends only on the
  ``m`` qubits its Z/ZZ terms and detunings touch. It is accumulated in the
  scalar term order over the ``2**m`` bit patterns of that support, ``exp``
  runs on those, and an index map cached per ``(n, support)`` gathers the
  result onto the ``2**n`` amplitudes. This rests on ``exp`` being
  elementwise: each amplitude gets the bits of the full-dimension call.
* **One gate-layout chain per moment.** Consecutive unconditioned gates
  copy the state once into each gate's layout (its qubits' tensor axes
  first), ``matmul`` into a second buffer, and return to canonical order
  only after the last gate. This rests on ``np.matmul`` giving an output
  column the same bits wherever that column sits in a contiguous operand.
  A conditioned gate runs alone on its row subset.

Both engines skip the arithmetic of steps whose result is exact:

* **Exact gates.** At engine build (``Executor._gates``), an unconditioned
  gate whose matrix is exactly I, X, Y or Z (twirl Paulis, DD nets, fused
  twirls that cancel) is classified once, memoized on its matrix bytes.
  Identities are dropped. A Pauli is a
  :func:`~repro.sim.statevector.flip_pauli` at its place in the chain, in
  whatever layout the state is in: X swaps its qubit's halves, Z negates
  the ``|1>`` half, Y swaps them with ``|1> * -1j`` and ``|0> * 1j``. Gate
  errors and observables flip through the same kernel.
* **Contiguous no-jump scale.** The no-jump branch of idle damping
  multiplies the batch's ``float64`` view by a ``(2 * 2**n,)`` diagonal of
  1.0 and ``sqrt(1 - gamma)``, built once per engine and ``(qubit, gamma)``,
  instead of scaling a strided complex view of the ``|1>`` half.

A dense product, or a complex scaling, gives the same values up to the
sign of an exact zero (pinned against ``apply_gate`` by
``tests/test_vectorized.py``); the scalar engine takes the same paths, so
the two stay bit-identical.

Idle amplitude damping works in place. The no-jump branch scales and
renormalizes the rows without a copy, and ``P(q = 1)`` sums ``|psi|**2``
of the strided view ``psi.reshape(rows, -1, 2, 2**q)[:, :, 1, :]`` of the
amplitudes where qubit ``q`` is 1, written into contiguous scratch in
basis-index order like the scalar engine's boolean mask. The draws come
first: a row jumps only if its draw ``u < gamma * P(q = 1)``, and the
computed ``P`` of a unit-norm row is below 2, so ``P`` is computed only for
rows with ``u < 2 * gamma``; a step where no row qualifies goes straight to
the no-jump branch. Only ``gamma == 1`` keeps a copy of the unscaled batch,
for rows whose whole weight is in ``|1>`` and which must jump from the
unscaled state as in the scalar engine. Idle dephasing negates the same
strided view in place, and each chunk reuses one set of scratch buffers for
``|psi|**2``, ``P(q = 1)``, gathered phases and the gate chain.

The shot axis is cut into bounded-memory chunks of at most
``_CHUNK_AMPLITUDES`` amplitudes, evolved one after another; chunks are
independent row blocks, so any chunk size produces the same bits and only
changes wall time and peak memory.
"""

from __future__ import annotations

import logging
import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.schedule import ScheduledCircuit
from ..device.calibration import Device
from ..pauli.pauli import Pauli
from ..utils.rng import as_generator
from .executor import Executor, SimOptions, SimResult, _aggregate
from .sampling import _PAULI_1Q, _PAULI_2Q, NoiseBatch, sample_shot
from .statevector import _sz_arrays, flip_pauli, renormalize

#: Chunk budget: ~32 MiB of complex amplitudes per chunk.
_CHUNK_AMPLITUDES = 1 << 21

log = logging.getLogger("repro")


def _batch_norms(psi: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-wise :func:`repro.sim.statevector.vector_norm` (bit-identical).

    ``out`` is an optional ``float64`` scratch of ``psi``'s shape for the
    ``|psi|**2`` terms (``np.square`` is what ``** 2`` computes).
    """
    terms = np.abs(psi, out=out)
    np.square(terms, out=terms)
    return np.sqrt(np.sum(terms, axis=1))


def _one_half(psi: np.ndarray, qubit: int) -> np.ndarray:
    """Writable ``(rows, high, low)`` view of the amplitudes where ``qubit`` is 1.

    Basis index ``i = high * 2**(qubit+1) + bit * 2**qubit + low``, so on a
    C-contiguous ``(rows, dim)`` batch this is a strided view, never a copy.
    """
    return psi.reshape(psi.shape[0], -1, 2, 1 << qubit)[:, :, 1, :]


@lru_cache(maxsize=32)
def _basis_bits(num_qubits: int) -> Tuple[Tuple[np.ndarray, ...], ...]:
    """Per qubit: its bit of every basis index, the mask where that bit is 1,
    and the indices in that mask (read-only, shared by every engine)."""
    basis = np.arange(1 << num_qubits)
    bits = tuple((basis >> q) & 1 for q in range(num_qubits))
    masks = tuple(b == 1 for b in bits)
    indices = tuple(np.nonzero(m)[0] for m in masks)
    for array in bits + masks + indices:
        array.setflags(write=False)
    return bits, masks, indices


@lru_cache(maxsize=1024)
def _support(
    num_qubits: int, support: Tuple[int, ...]
) -> Tuple[Dict[int, np.ndarray], Optional[np.ndarray]]:
    """Z eigenvalues over the bit patterns of ``support``, and the index map.

    Bit ``j`` of a pattern is qubit ``support[j]``'s bit. Returns each
    support qubit's Z eigenvalue per pattern, and ``index`` mapping each
    basis index to its pattern, so ``values[index]`` spreads per-pattern
    values over the full basis (``None`` when the support is every qubit
    and the map is the identity).
    """
    sz = dict(zip(support, _sz_arrays(len(support))))
    if len(support) == num_qubits:
        return sz, None
    basis = np.arange(1 << num_qubits)
    index = np.zeros(1 << num_qubits, dtype=np.intp)
    for j, q in enumerate(support):
        index |= ((basis >> q) & 1) << j
    index.setflags(write=False)
    return sz, index


@lru_cache(maxsize=4096)
def _chain_plan(
    num_qubits: int, ops: Tuple[Tuple[Tuple[int, ...], bool], ...]
) -> Tuple[Tuple[Tuple, ...], Optional[Tuple[int, ...]]]:
    """How to apply ``ops`` in order as one layout chain.

    Each op is ``(qubits, dense)``: a dense gate, or a Pauli flip on one
    qubit. A dense gate's layout puts its qubits' tensor axes first in listed
    order and the rest in canonical order (qubit ``n - 1`` first, as in a
    reshaped C-contiguous state); a flip works in whatever layout the state
    is in. Returns, per op, ``(transpose, 2**k)`` for a dense gate (the
    transpose takes a ``(rows, 2, ..., 2)`` batch from the previous gate's
    layout, canonical for the first, to this gate's) or ``(low,)`` for a
    flip (the amplitudes after its qubit's axis, see
    :func:`~repro.sim.statevector.flip_pauli`); and the transpose from the
    last dense gate's layout back to canonical order, ``None`` when there
    is no dense gate and the state never left it.
    """
    canonical = tuple(range(num_qubits - 1, -1, -1))
    layout = canonical
    steps: List[Tuple] = []
    moved = False
    for qubits, dense in ops:
        if not dense:
            steps.append((1 << (num_qubits - 1 - layout.index(qubits[0])),))
            continue
        target = qubits + tuple(q for q in canonical if q not in qubits)
        steps.append(((0,) + tuple(1 + layout.index(q) for q in target), 1 << len(qubits)))
        layout = target
        moved = True
    home = (0,) + tuple(1 + layout.index(q) for q in canonical) if moved else None
    return tuple(steps), home


class _Workspace:
    """Scratch arrays for one ``(rows, 2**n)`` batch, reused by every step.

    Each :meth:`VectorizedExecutor._evolve_chunk` call owns one. A step on a
    smaller row subset of the chunk (a conditioned gate, the no-jump rows of
    a mixed damping batch) gets a fresh one from
    :meth:`VectorizedExecutor._workspace`; ``P(q = 1)`` of a subset uses the
    leading rows of ``half_terms``.
    """

    def __init__(self, rows: int, num_qubits: int):
        dim = 1 << num_qubits
        self.rows = rows
        real = np.empty(rows * dim)
        #: ``|psi|**2`` of the whole batch, and of its ``|1>`` halves.
        self.norm_terms = real.reshape(rows, dim)
        self.half_terms = real[: rows * dim // 2].reshape(rows, dim // 2)
        #: The gate chain's two layouts, as ``(rows, 2, ..., 2)`` tensors.
        self.front = np.empty((rows,) + (2,) * num_qubits, dtype=complex)
        self.back = np.empty_like(self.front)
        #: Phase diagonals gathered onto the basis share the front buffer
        #: (never live during a gate).
        self.phases = self.front.reshape(rows, dim)


class VectorizedExecutor(Executor):
    """Batched many-shot evolution of one scheduled circuit.

    A drop-in peer of :class:`~repro.sim.executor.Executor` with the same
    constructor, entry points and result types. A chunk holds at most
    ~32 MiB of amplitudes (``_CHUNK_AMPLITUDES``).
    """

    def __init__(
        self,
        scheduled: ScheduledCircuit,
        device: Device,
        options: Optional[SimOptions] = None,
    ):
        super().__init__(scheduled, device, options)
        n = scheduled.num_qubits
        self._dim = 1 << n
        self._one_bit, self._one_mask, self._one_idx = _basis_bits(n)
        self._phase_programs = [
            self._build_phase_program(m) for m in range(len(self._timelines))
        ]
        self._unitaries = [self._gate_runs(gates) for gates in self._gates]

    def _gate_runs(self, gates: Sequence[Tuple]) -> List[Tuple]:
        """A moment's unitaries in order, as ``(condition, ops, chain)`` runs.

        ``gates`` is the moment's ``Executor._gates`` entry. Consecutive
        unconditioned gates share one run, which :meth:`_apply_gate_chain`
        applies without returning to canonical order in between; each
        conditioned gate is a run of its own. An op is a dense gate's matrix
        or an exact Pauli's label, and ``chain`` is the run's
        :func:`_chain_plan`.
        """
        runs: List[Tuple] = []  # (condition, ops, chain keys)
        for condition, label, matrix, qubits in gates:
            if condition is None and runs and runs[-1][0] is None:
                run = runs[-1]
            else:
                run = (condition, [], [])
                runs.append(run)
            run[1].append(np.asarray(matrix) if label is None else label)
            run[2].append((qubits, label is None))
        n = self.scheduled.num_qubits
        return [(cond, ops, _chain_plan(n, tuple(keys))) for cond, ops, keys in runs]

    # -- per-moment coherent-phase programs -----------------------------------

    def _build_phase_program(self, m: int):
        """Precompute moment ``m``'s diagonal-phase application.

        Returns ``None`` (no phases), ``("static", phase)`` with the full
        ``exp(-i H)`` diagonal when no per-shot term exists, or
        ``("dynamic", duration, width, index, ops)`` where ``ops`` replays
        the scalar executor's accumulation order: each entry adds either a
        fixed term or a per-shot detuning term for one qubit.

        Both evaluate the exponent only over the ``width`` bit patterns of
        the qubits the phase touches (its support), and spread the ``exp``
        through ``index`` (see :func:`_support`). ``exp`` is
        elementwise, so every amplitude gets the bits the full-dimension
        evaluation gives it.
        """
        acc = self._static_acc[m]
        sm = self.scheduled[m]
        timeline = self._timelines[m]
        n = self.scheduled.num_qubits
        # Qubits whose sampled detuning accumulates phase this moment: a
        # noise source exists and the sign trajectory doesn't refocus it.
        det_sites = []
        if sm.duration > 0.0:
            det_sites = [
                q
                for q, (sigma, delta) in enumerate(self._plan.detunings)
                if (sigma > 0.0 or delta > 0.0) and timeline.sign_integral(q) != 0.0
            ]
        if not (det_sites or acc.z or acc.zz):
            return None
        support = tuple(sorted(set(acc.z).union(det_sites, *acc.zz)))
        sz, index = _support(n, support)
        if not det_sites:
            # No per-shot term survives (no slow noise, zero duration, or every
            # detuning refocused — e.g. fully-decoupled DD moments): one
            # cached diagonal serves every shot, bit-identically.
            exponent = np.zeros(1 << len(support))
            for q, theta in acc.z.items():
                exponent += (theta / 2.0) * sz[q]
            for (a, b), theta in acc.zz.items():
                exponent += (theta / 2.0) * sz[a] * sz[b]
            phase = np.exp(-1j * exponent)
            return ("static", phase if index is None else phase[index])
        det_set = set(det_sites)
        ops: List[Tuple] = []
        for q, theta in acc.z.items():
            if q in det_set:
                ops.append(("det", q, theta, timeline.sign_integral(q), sz[q]))
            else:
                ops.append(("fix", (theta / 2.0) * sz[q]))
        for q in det_sites:
            if q not in acc.z:
                ops.append(("det", q, 0.0, timeline.sign_integral(q), sz[q]))
        for (a, b), theta in acc.zz.items():
            ops.append(("fix", (theta / 2.0) * sz[a] * sz[b]))
        return ("dynamic", sm.duration, 1 << len(support), index, ops)

    # -- whole-batch state updates --------------------------------------------

    def _workspace(self, work: Optional[_Workspace], rows: int) -> _Workspace:
        """``work`` when it is sized for ``rows`` rows, else a fresh workspace."""
        if work is not None and work.rows == rows:
            return work
        return _Workspace(rows, self.scheduled.num_qubits)

    def _apply_phases(
        self, psi: np.ndarray, program, batch: NoiseBatch, work: _Workspace
    ) -> None:
        """Multiply ``psi`` in place by a moment's phase diagonal."""
        if program[0] == "static":
            psi *= program[1]
            return
        _tag, duration, width, index, ops = program
        exponent = np.zeros((psi.shape[0], width))
        for op in ops:
            if op[0] == "fix":
                exponent += op[1]
            else:
                _kind, q, theta0, sign, sz_q = op
                angle = 2.0 * math.pi * batch.detunings[:, q] * duration * sign
                theta = theta0 + angle
                exponent += (theta / 2.0)[:, None] * sz_q
        phase = np.exp(-1j * exponent)
        if index is not None:
            phase = np.take(phase, index, axis=1, out=work.phases, mode="clip")
        psi *= phase

    def _apply_gate_chain(
        self,
        psi: np.ndarray,
        ops: Sequence,
        chain: Tuple,
        work: Optional[_Workspace] = None,
    ) -> None:
        """Apply one run of :meth:`_gate_runs` to the batch ``psi``, in place.

        Each dense gate copies the state once into its own layout (its
        qubits' tensor axes first) in the workspace's front buffer and
        multiplies into the back buffer; the state returns to canonical order
        only after the last gate. ``np.matmul`` gives each output column the
        same bits wherever the column sits, so this matches one gate at a
        time. A Pauli flips the state in place in its current layout, with
        the free front buffer as scratch.
        """
        rows = psi.shape[0]
        work = self._workspace(work, rows)
        front, back = work.front, work.back
        steps, home = chain
        state = psi.reshape(front.shape)
        for op, step in zip(ops, steps):
            if isinstance(op, str):
                flip_pauli(state, op, step[0], front)
                continue
            transpose, width = step
            np.copyto(front, state.transpose(transpose))
            np.matmul(op, front.reshape(rows, width, -1), out=back.reshape(rows, width, -1))
            state = back
        if home is not None:
            np.copyto(psi.reshape(front.shape), state.transpose(home))

    def _prob_one_rows(
        self, psi: np.ndarray, qubit: int, work: Optional[_Workspace] = None
    ) -> np.ndarray:
        # ``abs`` writes the strided view's |1> amplitudes in basis-index
        # order into contiguous terms, so each row's pairwise sum matches the
        # scalar ``probability_one``. A row subset of the chunk uses the
        # leading rows of the chunk's buffer.
        rows = psi.shape[0]
        if work is None or work.rows < rows:
            terms = np.empty((rows, self._dim // 2))
        else:
            terms = work.half_terms[:rows]
        ones = _one_half(psi, qubit)
        np.abs(ones, out=terms.reshape(ones.shape))
        np.square(terms, out=terms)
        return np.sum(terms, axis=1)

    def _decay_jump_rows(self, sub: np.ndarray, qubit: int) -> np.ndarray:
        """Row-wise twin of ``executor._apply_decay_jump``."""
        one = self._one_mask[qubit]
        amp = np.where(one[None, :], sub, 0.0)
        norms = _batch_norms(amp)
        ok = norms > 0.0
        out = np.array(sub)
        if ok.any():
            src = np.ascontiguousarray(amp[ok][:, one])
            lowered = np.zeros((int(ok.sum()), self._dim), dtype=complex)
            lowered[:, self._one_idx[qubit] ^ (1 << qubit)] = src
            out[ok] = lowered / norms[ok][:, None]
        bad = ~ok
        if bad.any():
            unjumped = np.array(sub[bad])
            totals = _batch_norms(unjumped)
            pos = totals > 0.0
            if pos.any():
                unjumped[pos] = unjumped[pos] / totals[pos][:, None]
            out[bad] = unjumped
        return out

    def _no_jump_rows(
        self,
        psi: np.ndarray,
        qubit: int,
        gamma: float,
        work: Optional[_Workspace] = None,
    ) -> np.ndarray:
        """Row-wise twin of ``executor._apply_no_jump``, in place on ``psi``.

        ``psi`` must be a C-contiguous ``(rows, dim)`` array the caller owns;
        it is scaled, renormalized and returned.
        """
        # Below gamma == 1 the scale factor is positive and a unit-norm row
        # cannot vanish: no copy, and no zero-norm rows to look for. At 1 a
        # row with all its weight in |1> scales to zero, and the scalar
        # engine then jumps from the *unscaled* row: keep a copy.
        work = self._workspace(work, psi.shape[0])
        unscaled = psi.copy() if gamma >= 1.0 else None
        flat = psi.view(np.float64)
        flat *= self._no_jump_diagonal(qubit, gamma)
        norms = _batch_norms(psi, out=work.norm_terms)
        if unscaled is None:
            renormalize(psi, norms)
            return psi
        bad = np.flatnonzero(norms <= 0.0)
        if bad.size:
            norms[bad] = 1.0  # these rows take the decay jump below
        renormalize(psi, norms)
        if bad.size:
            psi[bad] = self._decay_jump_rows(unscaled[bad], qubit)
        return psi

    # -- chunk evolution -------------------------------------------------------

    def _evolve_chunk(self, batch: NoiseBatch) -> Tuple[np.ndarray, np.ndarray]:
        """Evolve one chunk; returns final states and classical bits."""
        size = batch.size
        u = batch.uniforms
        # Gate-error repeats with at least one error in this chunk; the
        # rest (nearly all, at realistic error rates) are skipped outright.
        hit = (batch.paulis >= 0).any(axis=0).tolist()
        psi = np.zeros((size, self._dim), dtype=complex)
        psi[:, 0] = 1.0
        clbits = np.zeros(
            (size, self.scheduled.circuit.num_clbits), dtype=np.int64
        )
        work = _Workspace(size, self.scheduled.num_qubits)
        for m, plan in enumerate(self._plan.moments):
            # 1. measurements
            for qubit, clbit, col in plan.measured:
                p1 = self._prob_one_rows(psi, qubit, work)
                outcome = (u[:, col] < p1).astype(np.int64)
                keep = self._one_bit[qubit][None, :] == outcome[:, None]
                psi = np.where(keep, psi, 0.0)
                norms = _batch_norms(psi, out=work.norm_terms)
                if np.any(norms < 1e-15):
                    raise RuntimeError("measurement collapsed to zero norm")
                psi /= norms[:, None]
                clbits[:, clbit] = outcome

            # 2. coherent phases
            program = self._phase_programs[m]
            if program is not None:
                self._apply_phases(psi, program, batch, work)

            # 3. stochastic dephasing / damping (per-qubit interleave)
            for q, p_z, gamma, flip_col, damp_col in plan.idles:
                if p_z > 0.0:
                    # Z negates the |1> half: flip it in place.
                    flipped = u[:, flip_col] < p_z
                    if flipped.any():
                        ones = _one_half(psi, q)
                        if flipped.all():
                            ones *= -1
                        else:
                            ones[flipped] *= -1
                if gamma > 0.0:
                    # Draws first: a row jumps only if u < gamma * P(q=1), and
                    # the computed P is a pairwise sum of non-negative terms,
                    # at most |psi|**2 * (1 + 2**-40). Every step keeps
                    # |psi|**2 within ~1e-13 of 1 (unitary gates, unit-modulus
                    # phases, Paulis, renormalized measurement, damping and
                    # jumps), so gamma * P < 2 * gamma and a row drawing
                    # u >= 2 * gamma takes the no-jump branch whatever its
                    # state. Only the other rows need P(q=1); at gamma >= 0.5
                    # that is every row, as 2 * gamma >= 1 > u.
                    can = np.flatnonzero(u[:, damp_col] < 2.0 * gamma)
                    jump = np.zeros(size, dtype=bool)
                    if can.size:
                        near = psi if can.size == size else psi[can]
                        p1 = self._prob_one_rows(near, q, work)
                        jump[can] = u[can, damp_col] < gamma * p1
                    # Uniform batches (the common case: jump probabilities
                    # are small) damp `psi` itself in place, which this loop
                    # owns; a mixed batch damps its `psi[stay]` copy.
                    if not jump.any():
                        psi = self._no_jump_rows(psi, q, gamma, work)
                    elif jump.all():
                        psi = self._decay_jump_rows(psi, q)
                    else:
                        psi[jump] = self._decay_jump_rows(psi[jump], q)
                        stay = ~jump
                        psi[stay] = self._no_jump_rows(psi[stay], q, gamma, work)

            # 4. ideal unitaries, exact Paulis as in-place flips
            for condition, ops, chain in self._unitaries[m]:
                if condition is None:
                    self._apply_gate_chain(psi, ops, chain, work)
                else:
                    clbit, value = condition
                    rows = clbits[:, clbit] == value
                    if rows.any():
                        sub = psi[rows]
                        self._apply_gate_chain(sub, ops, chain, work)
                        psi[rows] = sub

            # 5. gate errors
            for site in plan.gate_errors:
                for slot in range(site.slot, site.slot + site.repeats):
                    if not hit[slot]:
                        continue
                    column = batch.paulis[:, slot]
                    for code in np.unique(column):
                        if code < 0:
                            continue
                        rows = column == code
                        labels = _PAULI_2Q[code] if site.two_qubit else (_PAULI_1Q[code],)
                        sub = psi[rows]
                        for label, qubit in zip(labels, site.qubits):
                            flip_pauli(sub, label, 1 << qubit, work.front)
                        psi[rows] = sub
        return psi, clbits

    # -- per-shot payload contraction ------------------------------------------

    def _expectation_rows(self, psi: np.ndarray, pauli: Pauli) -> np.ndarray:
        work = psi.copy()
        for qubit in range(self.scheduled.num_qubits):
            flip_pauli(work, pauli.factor(qubit), 1 << qubit)
        phase = 1j ** pauli.phase
        values = np.empty(psi.shape[0])
        for b in range(psi.shape[0]):
            values[b] = (np.vdot(psi[b], work[b]) * phase).real
        return values

    def _bitstring_prob_rows(
        self, psi: np.ndarray, bits: Dict[int, int]
    ) -> np.ndarray:
        mask = np.ones(self._dim, dtype=bool)
        for qubit, value in bits.items():
            mask &= self._one_bit[qubit] == value
        sel = np.ascontiguousarray(psi[:, mask])
        return np.sum(np.abs(sel) ** 2, axis=1)

    # -- chunked entry points --------------------------------------------------

    def _chunk_sizes(self, count: int) -> List[int]:
        size = max(1, _CHUNK_AMPLITUDES // self._dim)
        sizes = []
        left = count
        while left > 0:
            take = min(size, left)
            sizes.append(take)
            left -= take
        return sizes

    def _run_batched(self, contract) -> SimResult:
        """Sample, evolve and contract chunk by chunk, then aggregate.

        ``contract(psi) -> {key: (rows,) values}`` computes the per-shot
        samples of one evolved chunk.
        """
        rng = as_generator(self.options.seed)
        count = self.options.shots
        sizes = self._chunk_sizes(count)
        log.debug(
            "vectorized run: %d shots in %d chunk(s) of up to %d rows",
            count, len(sizes), max(sizes, default=0),
        )
        # Sampling replays the exact RNG stream of `count` sequential scalar
        # trajectories, one row of a chunk's columnar batch per shot.
        results = []
        for size in sizes:
            batch = NoiseBatch.empty(self._plan, size)
            for row in range(size):
                sample_shot(self._plan, rng, batch, row)
            psi, _clbits = self._evolve_chunk(batch)
            results.append(contract(psi))
        samples = {
            key: np.concatenate([r[key] for r in results])
            for key in results[0]
        }
        return _aggregate(samples, count)

    def expectations(self, observables: Dict[str, Pauli]) -> SimResult:
        """Batched, bit-identical twin of ``Executor.expectations``."""

        def contract(psi: np.ndarray) -> Dict[str, np.ndarray]:
            return {
                key: self._expectation_rows(psi, pauli)
                for key, pauli in observables.items()
            }

        return self._run_batched(contract)

    def probabilities(self, targets: Dict[str, Dict[int, int]]) -> SimResult:
        """Batched, bit-identical twin of ``Executor.probabilities``."""

        def contract(psi: np.ndarray) -> Dict[str, np.ndarray]:
            return {
                key: self._bitstring_prob_rows(psi, bits)
                for key, bits in targets.items()
            }

        return self._run_batched(contract)
