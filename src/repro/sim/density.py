"""Exact density-matrix simulator.

Evolves the full density matrix with the *averaged* noise channels instead
of Monte-Carlo trajectories:

* coherent Z/ZZ phases apply as one diagonal (same accumulation model as
  the trajectory executor);
* pure dephasing, amplitude damping and gate depolarizing apply as their
  exact channels, in closed form on the matrix's per-qubit blocks;
* quasi-static detuning and charge parity average to an exact per-moment
  dephasing factor: a Gaussian detuning of width ``sigma`` over an interval
  with sign integral ``F`` multiplies coherences by
  ``exp(-(2 pi sigma T F)^2 / 2)``, and a random-sign parity ``delta``
  multiplies them by ``cos(2 pi delta T F)``.

Each step costs O(4^n) on the ``2^n x 2^n`` matrix, and a k-qubit unitary
O(2^k 4^n) through the statevector kernel: no step builds a full-size
operator. Systems are capped at 10 qubits (16 MiB per matrix).

This gives zero-variance expectation values and serves as ground truth for
the trajectory executor (see ``tests/test_density.py``). Mid-circuit
measurement and feedforward are supported by branching on the measurement
outcome.

Caveat: the slow-noise average is applied per moment (Markovian), while the
trajectory executor draws one detuning per shot for the whole circuit
(temporally correlated). The two agree exactly on single-window circuits
and on devices without quasi-static noise; on deep circuits the density
model slightly *underestimates* the correlated dephasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..pauli.pauli import Pauli
from .coherent import CoherentAccumulation
from .executor import Executor, SimResult
from .statevector import StateVector, _sz_arrays, flip_pauli
from .timeline import MomentTimeline


class DensityMatrix:
    """A mutable density matrix over ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int):
        if num_qubits > 10:
            raise ValueError("density-matrix simulation limited to 10 qubits")
        self.num_qubits = int(num_qubits)
        dim = 1 << self.num_qubits
        self.matrix = np.zeros((dim, dim), dtype=complex)
        self.matrix[0, 0] = 1.0

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def copy(self) -> "DensityMatrix":
        out = DensityMatrix.__new__(DensityMatrix)
        out.num_qubits = self.num_qubits
        out.matrix = self.matrix.copy()
        return out

    def _blocks(self, qubit: int) -> np.ndarray:
        """``matrix`` as ``(high, row bit, low, high, column bit, low)``, with
        ``low = 2**qubit``: ``[:, a, :, :, b]`` is the qubit's ``|a><b|`` block.

        A view whatever ``matrix``'s layout (each axis is only split), so
        channels write through it in place.
        """
        low = 1 << qubit
        high = self.dim >> (qubit + 1)
        return self.matrix.reshape(high, 2, low, high, 2, low)

    # -- unitaries -----------------------------------------------------------

    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """``rho -> U rho U^dagger``.

        Reads ``rho`` as the 2n-qubit state whose amplitude ``i * dim + j``
        is ``rho[i, j]``: ``U`` acts on the row qubits ``q + n`` and
        ``conj(U)`` on the column qubits ``q``.
        """
        n = self.num_qubits
        work = StateVector.__new__(StateVector)
        work.num_qubits = 2 * n
        work.vector = self.matrix.reshape(-1)
        work.apply_gate(matrix, [q + n for q in qubits])
        work.apply_gate(np.conj(matrix), qubits)
        self.matrix = work.vector.reshape(self.dim, self.dim)

    def apply_phases(self, acc: CoherentAccumulation) -> None:
        if not acc.z and not acc.zz:
            return
        sz = _sz_arrays(self.num_qubits)
        exponent = np.zeros(self.dim)
        for q, theta in acc.z.items():
            exponent += (theta / 2.0) * sz[q]
        for (a, b), theta in acc.zz.items():
            exponent += (theta / 2.0) * sz[a] * sz[b]
        phases = np.exp(-1j * exponent)
        self.matrix = (phases[:, None] * self.matrix) * phases[None, :].conj()

    # -- channels --------------------------------------------------------------

    def apply_dephasing(self, qubit: int, probability: float) -> None:
        """Phase-flip channel: ``rho -> (1-p) rho + p Z rho Z``, which scales
        the qubit's coherences by ``1 - 2p``."""
        if probability <= 0.0:
            return
        self.apply_coherence_factor(qubit, 1.0 - 2.0 * probability)

    def apply_amplitude_damping(self, qubit: int, gamma: float) -> None:
        """Kraus ``diag(1, sqrt(1-gamma))`` and ``sqrt(gamma) |0><1|``: adds
        ``gamma * rho_11`` into ``rho_00``, then scales the row-1 and
        column-1 blocks by ``sqrt(1-gamma)``."""
        if gamma <= 0.0:
            return
        blocks = self._blocks(qubit)
        blocks[:, 0, :, :, 0] += gamma * blocks[:, 1, :, :, 1]
        keep = math.sqrt(1.0 - gamma)
        blocks[:, 1] *= keep
        blocks[:, :, :, :, 1] *= keep

    def apply_depolarizing(self, qubits: Sequence[int], probability: float) -> None:
        """With probability ``p`` replace by a uniformly random non-identity
        Pauli on the listed qubits (matches the trajectory executor).

        On the ``k`` qubits ``Q``, the ``4^k - 1`` error Paulis sum to
        ``sum_{P != I} P rho P^dagger = 2^k (Tr_Q rho (x) I_Q) - rho``, and
        ``Tr_Q rho (x) I_Q`` is one "trace out and replace by I" step per
        qubit of ``Q``. With ``c = p / (4^k - 1)`` the channel is
        ``(1 - p - c) rho + c 2^k (Tr_Q rho (x) I_Q)``.
        """
        if probability <= 0.0:
            return
        traced = self.copy()
        for q in qubits:
            blocks = traced._blocks(q)
            blocks[:, 0, :, :, 0] += blocks[:, 1, :, :, 1]
            blocks[:, 1, :, :, 1] = blocks[:, 0, :, :, 0]
            traced.apply_coherence_factor(q, 0.0)
        k = len(qubits)
        c = probability / (4**k - 1)
        traced.matrix *= c * (1 << k)
        self.matrix *= 1.0 - probability - c
        self.matrix += traced.matrix

    def apply_coherence_factor(self, qubit: int, factor: float) -> None:
        """Scale the qubit's off-diagonal coherences by ``factor``.

        Equivalent to the averaged effect of a random Z rotation whose
        characteristic function evaluates to ``factor``.
        """
        if factor >= 1.0:
            return
        blocks = self._blocks(qubit)
        blocks[:, 0, :, :, 1] *= factor
        blocks[:, 1, :, :, 0] *= factor

    # -- measurement ------------------------------------------------------------

    def measure_branches(self, qubit: int) -> List[Tuple[float, "DensityMatrix", int]]:
        """Project onto both outcomes; returns ``(prob, state, outcome)``."""
        sz = _sz_arrays(self.num_qubits)[qubit]
        branches = []
        for outcome in (0, 1):
            mask = (sz == (1.0 if outcome == 0 else -1.0)).astype(float)
            projected = (mask[:, None] * self.matrix) * mask[None, :]
            prob = float(np.trace(projected).real)
            if prob > 1e-12:
                out = self.copy()
                out.matrix = projected / prob
                branches.append((prob, out, outcome))
        return branches

    # -- observables -------------------------------------------------------------

    def expectation_pauli(self, pauli: Pauli) -> float:
        """``Tr(P rho)``: each factor flips the row qubits of a copy."""
        if pauli.num_qubits != self.num_qubits:
            raise ValueError("observable size mismatch")
        work = self.matrix.copy()
        for qubit in range(self.num_qubits):
            flip_pauli(work, pauli.factor(qubit), self.dim << qubit)
        return float((np.trace(work) * (1j**pauli.phase)).real)

    def probability_of_bitstring(self, bits: Dict[int, int]) -> float:
        idx = np.arange(self.dim)
        mask = np.ones(self.dim, dtype=bool)
        for qubit, value in bits.items():
            mask &= ((idx >> qubit) & 1) == value
        return float(np.sum(np.diag(self.matrix).real[mask]))

    @property
    def purity(self) -> float:
        """``Tr(rho^2)``, which is ``sum |rho_ij|^2`` for Hermitian ``rho``."""
        return float(np.vdot(self.matrix, self.matrix).real)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass
class _Branch:
    weight: float
    state: DensityMatrix
    clbits: Tuple[int, ...]


class DensityExecutor(Executor):
    """Evolve a scheduled circuit exactly under the averaged noise model.

    Builds what the trajectory engines build (:class:`Executor`'s timelines,
    static coherent phases and :func:`~repro.sim.sampling.build_noise_plan`):
    which idles dephase or damp, with what ``p_z``/``gamma``, which gates
    carry depolarizing errors, and each qubit's quasi-static and parity
    detuning scales. This engine applies each site's averaged channel
    instead of drawing it, so it reads neither shots nor seed.
    """

    def run(self) -> List[_Branch]:
        detunings = self._plan.detunings
        start = DensityMatrix(self.scheduled.num_qubits)
        branches = [_Branch(1.0, start, (0,) * self.scheduled.circuit.num_clbits)]

        for sm, timeline, static_acc, plan in zip(
            self.scheduled, self._timelines, self._static_acc, self._plan.moments
        ):
            moment = sm.moment
            # 1. measurements: branch on outcomes.
            for qubit, clbit, _ in plan.measured:
                new_branches = []
                for branch in branches:
                    for prob, state, outcome in branch.state.measure_branches(qubit):
                        clbits = list(branch.clbits)
                        clbits[clbit] = outcome
                        new_branches.append(
                            _Branch(branch.weight * prob, state, tuple(clbits))
                        )
                branches = new_branches

            for branch in branches:
                state = branch.state
                # 2. coherent phases + averaged slow-noise decoherence.
                state.apply_phases(static_acc)
                if sm.duration > 0.0:
                    _apply_slow_noise(state, timeline, sm.duration, detunings)
                # 3. dephasing / damping.
                for q, p_z, gamma, _, _ in plan.idles:
                    state.apply_dephasing(q, p_z)
                    state.apply_amplitude_damping(q, gamma)
                # 4. unitaries.
                for inst in moment:
                    gate = inst.gate
                    if gate.is_measurement or gate.is_delay:
                        continue
                    if inst.condition is not None:
                        clbit, value = inst.condition
                        if branch.clbits[clbit] != value:
                            continue
                    if gate.matrix is not None:
                        state.apply_unitary(gate.matrix, inst.qubits)
                # 5. gate errors.
                for site in plan.gate_errors:
                    for _ in range(site.repeats):
                        state.apply_depolarizing(site.qubits, site.prob)
        return branches

    # -- aggregated observables -------------------------------------------------

    def expectations(self, observables: Dict[str, Pauli]) -> SimResult:
        """Exact ``<P>`` for each named observable (errors 0, 0 shots)."""
        return self._exact(DensityMatrix.expectation_pauli, observables)

    def probabilities(self, targets: Dict[str, Dict[int, int]]) -> SimResult:
        """Exact probability of each named qubit->bit assignment."""
        return self._exact(DensityMatrix.probability_of_bitstring, targets)

    def _exact(self, measure, requests: Dict) -> SimResult:
        """``measure(state, request)`` averaged over the branches, as a
        ``SimResult``: zero variance, no shots sampled."""
        branches = self.run()
        values = {
            key: float(sum(b.weight * measure(b.state, arg) for b in branches))
            for key, arg in requests.items()
        }
        return SimResult(values=values, errors=dict.fromkeys(values, 0.0), shots=0)


def _apply_slow_noise(
    state: DensityMatrix,
    timeline: MomentTimeline,
    duration: float,
    detunings: Tuple[Tuple[float, float], ...],
) -> None:
    """Average each qubit's quasi-static detuning and parity over their priors.

    ``detunings`` is the noise plan's per-qubit ``(sigma, delta)``.
    """
    for q, (sigma, delta) in enumerate(detunings):
        f = timeline.sign_integral(q)
        if f == 0.0:
            continue
        factor = 1.0
        if sigma > 0.0:
            phase_sigma = 2 * math.pi * sigma * duration * abs(f)
            factor *= math.exp(-0.5 * phase_sigma**2)
        if delta > 0.0:
            # E[exp(+-i phi)] = cos(phi); a negative factor is a genuine
            # averaged coherence sign flip, not a bug.
            factor *= math.cos(2 * math.pi * delta * duration * f)
        state.apply_coherence_factor(q, factor)
