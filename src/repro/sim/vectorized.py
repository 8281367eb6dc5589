"""Vectorized batched-trajectory engine.

Stacks all shots of a run along the leading axis of one ``(shots, 2**n)``
complex array and applies every evolution step as a whole-batch NumPy
operation: diagonal coherent phases as one broadcast multiply, moment
unitaries as one stacked ``matmul`` over the shot axis, sampled jump masks
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

Idle amplitude damping works in place. The amplitudes where qubit ``q`` is
1 form a strided view ``psi.reshape(rows, -1, 2, 2**q)[:, :, 1, :]`` of the
C-contiguous batch: the no-jump branch scales that view and renormalizes
the rows without a copy, and ``P(q = 1)`` sums a contiguous copy of the same
view, which lists the amplitudes in basis-index order like the scalar
engine's boolean mask. Only ``gamma == 1`` keeps a copy of the unscaled
batch, for rows whose whole weight is in ``|1>`` and which must jump from
the unscaled state as in the scalar engine.

The shot axis is sharded into bounded-memory chunks; chunks are independent
row blocks, so any ``chunk_shots`` / ``workers`` configuration produces the
same bits and only changes wall time and peak memory.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.schedule import ScheduledCircuit
from ..device.calibration import Device
from ..pauli.pauli import Pauli
from ..utils.rng import SeedLike, as_generator
from .executor import Executor, SimOptions, SimResult, _aggregate
from .sampling import _PAULI_1Q, _PAULI_2Q, NoiseBatch, sample_shot
from .statevector import _sz_arrays, renormalize

#: Default chunk budget: ~32 MiB of complex amplitudes per chunk.
_CHUNK_AMPLITUDES = 1 << 21


def _batch_norms(psi: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.sim.statevector.vector_norm` (bit-identical)."""
    return np.sqrt(np.sum(np.abs(psi) ** 2, axis=1))


def _one_half(psi: np.ndarray, qubit: int) -> np.ndarray:
    """Writable ``(rows, high, low)`` view of the amplitudes where ``qubit`` is 1.

    Basis index ``i = high * 2**(qubit+1) + bit * 2**qubit + low``, so on a
    C-contiguous ``(rows, dim)`` batch this is a strided view, never a copy.
    """
    return psi.reshape(psi.shape[0], -1, 2, 1 << qubit)[:, :, 1, :]


@lru_cache(maxsize=1024)
def _gate_axis_perms(
    num_qubits: int, qubits: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Transposes that bring ``qubits``' tensor axes to the front, and back.

    The same axis orders ``np.moveaxis`` computes for a batch reshaped to
    ``(rows,) + (2,) * num_qubits`` (axis 0 is the shot axis).
    """
    source = [1 + (num_qubits - 1 - q) for q in qubits]
    forward = [a for a in range(num_qubits + 1) if a not in source]
    for dest, src in sorted(zip(range(1, len(qubits) + 1), source)):
        forward.insert(dest, src)
    inverse = tuple(int(a) for a in np.argsort(forward))
    return tuple(forward), inverse


class VectorizedExecutor(Executor):
    """Batched many-shot evolution of one scheduled circuit.

    A drop-in peer of :class:`~repro.sim.executor.Executor` with the same
    constructor and result types; ``expectations`` / ``probabilities``
    additionally accept ``workers`` to shard the shot axis across threads.
    ``chunk_shots`` bounds how many states are ever resident at once
    (``None`` auto-sizes to ~32 MiB of amplitudes per chunk).
    """

    def __init__(
        self,
        scheduled: ScheduledCircuit,
        device: Device,
        options: Optional[SimOptions] = None,
        chunk_shots: Optional[int] = None,
    ):
        super().__init__(scheduled, device, options)
        if chunk_shots is not None and chunk_shots < 1:
            raise ValueError("chunk_shots must be >= 1 (or None for auto)")
        self.chunk_shots = chunk_shots
        n = scheduled.num_qubits
        dim = 1 << n
        self._dim = dim
        idx = np.arange(dim)
        self._one_bit = [(idx >> q) & 1 for q in range(n)]
        self._one_mask = [b == 1 for b in self._one_bit]
        self._one_idx = [np.nonzero(m)[0] for m in self._one_mask]
        self._phase_programs = [
            self._build_phase_program(m) for m in range(len(self._timelines))
        ]
        self._unitaries = [
            [
                (inst.condition, np.asarray(inst.gate.matrix), inst.qubits)
                for inst in sm.moment
                if not (inst.gate.is_measurement or inst.gate.is_delay)
                and inst.gate.matrix is not None
            ]
            for sm in scheduled
        ]

    # -- per-moment coherent-phase programs -----------------------------------

    def _build_phase_program(self, m: int):
        """Precompute moment ``m``'s diagonal-phase application.

        Returns ``None`` (no phases), ``("static", phase)`` with the full
        ``exp(-i H)`` diagonal when no per-shot term exists, or
        ``("dynamic", ops)`` where ``ops`` replays the scalar executor's
        accumulation order: each entry adds either a fixed ``(dim,)`` term
        or a per-shot detuning term for one qubit.
        """
        if not self.options.coherent:
            return None
        acc = self._static_acc[m]
        sm = self.scheduled[m]
        timeline = self._timelines[m]
        sz = _sz_arrays(self.scheduled.num_qubits)
        # Qubits whose sampled detuning accumulates phase this moment: a
        # noise source exists and the sign trajectory doesn't refocus it.
        det_sites = []
        if self._plan.detunings is not None and sm.duration > 0.0:
            det_sites = [
                q
                for q in range(self.scheduled.num_qubits)
                if (
                    self._plan.detunings[q][0] > 0.0
                    or self._plan.detunings[q][1] > 0.0
                )
                and timeline.sign_integral(q) != 0.0
            ]
        if not det_sites:
            # No per-shot term survives (noise off, zero duration, or every
            # detuning refocused — e.g. fully-decoupled DD moments): one
            # cached diagonal serves every shot, bit-identically.
            if not acc.z and not acc.zz:
                return None
            exponent = np.zeros(self._dim)
            for q, theta in acc.z.items():
                exponent += (theta / 2.0) * sz[q]
            for (a, b), theta in acc.zz.items():
                exponent += (theta / 2.0) * sz[a] * sz[b]
            return ("static", np.exp(-1j * exponent))
        det_set = set(det_sites)
        ops: List[Tuple] = []
        for q, theta in acc.z.items():
            if q in det_set:
                ops.append(("det", q, theta, timeline.sign_integral(q)))
            else:
                ops.append(("fix", (theta / 2.0) * sz[q]))
        for q in det_sites:
            if q not in acc.z:
                ops.append(("det", q, 0.0, timeline.sign_integral(q)))
        for (a, b), theta in acc.zz.items():
            ops.append(("fix", (theta / 2.0) * sz[a] * sz[b]))
        if not ops:
            return None
        return ("dynamic", sm.duration, ops)

    # -- whole-batch state updates --------------------------------------------

    def _apply_gate_rows(
        self, sub: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
    ) -> np.ndarray:
        rows = sub.shape[0]
        n = self.scheduled.num_qubits
        k = len(qubits)
        forward, inverse = _gate_axis_perms(n, tuple(qubits))
        psi = sub.reshape((rows,) + (2,) * n).transpose(forward)
        tail = psi.shape[k + 1 :]
        psi = psi.reshape(rows, 1 << k, -1)
        psi = np.matmul(matrix, psi)
        psi = psi.reshape((rows,) + (2,) * k + tuple(tail)).transpose(inverse)
        return np.ascontiguousarray(psi).reshape(rows, -1)

    def _apply_pauli_rows(self, sub: np.ndarray, label: str, qubit: int) -> np.ndarray:
        if label == "I":
            return sub
        rows = sub.shape[0]
        n = self.scheduled.num_qubits
        psi = sub.reshape((rows,) + (2,) * n)
        axis = 1 + (n - 1 - qubit)
        if label == "X":
            psi = np.flip(psi, axis=axis)
        elif label == "Y":
            psi = np.flip(psi, axis=axis).copy()
            slicer: List = [slice(None)] * (n + 1)
            slicer[axis] = 0
            psi[tuple(slicer)] *= -1j
            slicer[axis] = 1
            psi[tuple(slicer)] *= 1j
        elif label == "Z":
            psi = psi.copy()
            slicer = [slice(None)] * (n + 1)
            slicer[axis] = 1
            psi[tuple(slicer)] *= -1
        else:
            raise ValueError(f"bad Pauli label {label!r}")
        return np.ascontiguousarray(psi).reshape(rows, -1)

    def _prob_one_rows(self, psi: np.ndarray, qubit: int) -> np.ndarray:
        # The strided view lists the |1> amplitudes in basis-index order, so
        # each row's pairwise sum matches the scalar ``probability_one``.
        ones = _one_half(psi, qubit)
        sel = np.ascontiguousarray(ones).reshape(psi.shape[0], -1)
        return np.sum(np.abs(sel) ** 2, axis=1)

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

    def _no_jump_rows(self, psi: np.ndarray, qubit: int, gamma: float) -> np.ndarray:
        """Row-wise twin of ``executor._apply_no_jump``, in place on ``psi``.

        ``psi`` must be a C-contiguous ``(rows, dim)`` array the caller owns;
        it is scaled, renormalized and returned.
        """
        # At gamma == 1 a row with all its weight in |1> scales to zero, and
        # the scalar engine then jumps from the *unscaled* row: keep a copy.
        # Below 1 the scale factor is positive and a unit-norm row cannot
        # vanish, so no copy is needed.
        unscaled = psi.copy() if gamma >= 1.0 else psi
        ones = _one_half(psi, qubit)
        ones *= math.sqrt(1.0 - gamma)
        norms = _batch_norms(psi)
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
        for m, plan in enumerate(self._plan.moments):
            # 1. measurements
            for qubit, clbit, col in plan.measured:
                p1 = self._prob_one_rows(psi, qubit)
                outcome = (u[:, col] < p1).astype(np.int64)
                keep = self._one_bit[qubit][None, :] == outcome[:, None]
                psi = np.where(keep, psi, 0.0)
                norms = _batch_norms(psi)
                if np.any(norms < 1e-15):
                    raise RuntimeError("measurement collapsed to zero norm")
                psi /= norms[:, None]
                clbits[:, clbit] = outcome

            # 2. coherent phases
            program = self._phase_programs[m]
            if program is not None:
                if program[0] == "static":
                    psi *= program[1][None, :]
                else:
                    _tag, duration, ops = program
                    exponent = np.zeros((size, self._dim))
                    for op in ops:
                        if op[0] == "fix":
                            exponent += op[1][None, :]
                        else:
                            _kind, q, theta0, sign = op
                            angle = (
                                2.0 * math.pi * batch.detunings[:, q]
                                * duration * sign
                            )
                            theta = theta0 + angle
                            exponent += (theta / 2.0)[:, None] * (
                                _sz_arrays(self.scheduled.num_qubits)[q][None, :]
                            )
                    psi *= np.exp(-1j * exponent)

            # 3. stochastic dephasing / damping (per-qubit interleave)
            for q, p_z, gamma, flip_col, damp_col in plan.idles:
                if p_z > 0.0:
                    flipped = u[:, flip_col] < p_z
                    if flipped.any():
                        psi[flipped] = self._apply_pauli_rows(psi[flipped], "Z", q)
                if gamma > 0.0:
                    jump = u[:, damp_col] < gamma * self._prob_one_rows(psi, q)
                    # Uniform batches (the common case: jump probabilities
                    # are small) damp `psi` itself in place, which this loop
                    # owns; a mixed batch damps its `psi[stay]` copy.
                    if not jump.any():
                        psi = self._no_jump_rows(psi, q, gamma)
                    elif jump.all():
                        psi = self._decay_jump_rows(psi, q)
                    else:
                        psi[jump] = self._decay_jump_rows(psi[jump], q)
                        stay = ~jump
                        psi[stay] = self._no_jump_rows(psi[stay], q, gamma)

            # 4. ideal unitaries
            for condition, matrix, qubits in self._unitaries[m]:
                if condition is None:
                    psi = self._apply_gate_rows(psi, matrix, qubits)
                else:
                    clbit, value = condition
                    rows = clbits[:, clbit] == value
                    if rows.any():
                        psi[rows] = self._apply_gate_rows(psi[rows], matrix, qubits)

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
                        if site.two_qubit:
                            pa, pb = _PAULI_2Q[code]
                            sub = self._apply_pauli_rows(psi[rows], pa, site.qubits[0])
                            psi[rows] = self._apply_pauli_rows(sub, pb, site.qubits[1])
                        else:
                            psi[rows] = self._apply_pauli_rows(
                                psi[rows], _PAULI_1Q[code], site.qubits[0]
                            )
        return psi, clbits

    # -- per-shot payload contraction ------------------------------------------

    def _expectation_rows(self, psi: np.ndarray, pauli: Pauli) -> np.ndarray:
        work = psi
        for qubit in range(self.scheduled.num_qubits):
            work = self._apply_pauli_rows(work, pauli.factor(qubit), qubit)
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

    def _noisy_bit_prob_rows(
        self, psi: np.ndarray, bits: Dict[int, int]
    ) -> np.ndarray:
        qubits = sorted(bits)
        total = np.zeros(psi.shape[0])
        for outcome in range(1 << len(qubits)):
            actual = {q: (outcome >> i) & 1 for i, q in enumerate(qubits)}
            p = self._bitstring_prob_rows(psi, actual)
            weight = 1.0
            for q in qubits:
                r = self.device.qubit(q).readout_error
                weight *= (1.0 - r) if actual[q] == bits[q] else r
            total += p * weight
        return total

    # -- sharded entry points --------------------------------------------------

    def _chunk_sizes(self, count: int, workers: int) -> List[int]:
        size = self.chunk_shots
        if size is None:
            size = max(1, _CHUNK_AMPLITUDES // self._dim)
        if workers > 1:
            size = min(size, max(1, -(-count // workers)))
        sizes = []
        left = count
        while left > 0:
            take = min(size, left)
            sizes.append(take)
            left -= take
        return sizes

    def _run_batched(
        self,
        contract,
        shots: Optional[int],
        seed: SeedLike,
        workers: int,
    ) -> SimResult:
        """Sample serially, evolve in chunks, contract per shot, aggregate.

        ``contract(psi) -> {key: (rows,) values}`` computes the per-shot
        samples of one evolved chunk.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        rng = as_generator(seed if seed is not None else self.options.seed)
        count = self._shot_count(shots)
        # The sampling pass is the only serial part: it replays the exact
        # RNG stream of `count` sequential scalar trajectories, one row of
        # a chunk's columnar batch per shot.
        chunks = []
        for size in self._chunk_sizes(count, workers):
            batch = NoiseBatch.empty(self._plan, size)
            for row in range(size):
                sample_shot(self._plan, rng, batch, row)
            chunks.append(batch)

        def job(batch: NoiseBatch) -> Dict[str, np.ndarray]:
            psi, _clbits = self._evolve_chunk(batch)
            return contract(psi)

        if workers > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(job, chunks))
        else:
            results = [job(batch) for batch in chunks]
        samples = {
            key: np.concatenate([r[key] for r in results])
            for key in results[0]
        }
        return _aggregate(samples, count)

    def expectations(
        self,
        observables: Dict[str, Pauli],
        shots: Optional[int] = None,
        seed: SeedLike = None,
        workers: int = 1,
    ) -> SimResult:
        """Batched, bit-identical twin of ``Executor.expectations``."""

        def contract(psi: np.ndarray) -> Dict[str, np.ndarray]:
            out = {}
            for key, pauli in observables.items():
                values = self._expectation_rows(psi, pauli)
                if self.options.readout_errors:
                    values = values * self._readout_attenuation(pauli)
                out[key] = values
            return out

        return self._run_batched(contract, shots, seed, workers)

    def probabilities(
        self,
        targets: Dict[str, Dict[int, int]],
        shots: Optional[int] = None,
        seed: SeedLike = None,
        workers: int = 1,
    ) -> SimResult:
        """Batched, bit-identical twin of ``Executor.probabilities``."""

        def contract(psi: np.ndarray) -> Dict[str, np.ndarray]:
            if self.options.readout_errors:
                return {
                    key: self._noisy_bit_prob_rows(psi, bits)
                    for key, bits in targets.items()
                }
            return {
                key: self._bitstring_prob_rows(psi, bits)
                for key, bits in targets.items()
            }

        return self._run_batched(contract, shots, seed, workers)
