"""Exact density-matrix simulator.

For small systems (<= ~7 qubits) this evolves the full density matrix with
the *averaged* noise channels instead of Monte-Carlo trajectories:

* coherent Z/ZZ phases apply as unitaries (same accumulation model as the
  trajectory executor);
* pure dephasing and amplitude damping apply as exact Kraus channels;
* gate depolarizing applies as the exact mixing channel;
* quasi-static detuning and charge parity average to an exact per-moment
  dephasing factor: a Gaussian detuning of width ``sigma`` over an interval
  with sign integral ``F`` multiplies coherences by
  ``exp(-(2 pi sigma T F)^2 / 2)``, and a random-sign parity ``delta``
  multiplies them by ``cos(2 pi delta T F)``.

This gives zero-variance expectation values and serves as ground truth for
the trajectory executor (see ``tests/test_density.py``). Mid-circuit
measurement and feedforward are supported by branching on the measurement
outcome.

Caveat: the slow-noise average is applied per moment (Markovian), while the
trajectory executor draws one detuning per shot for the whole circuit
(temporally correlated). The two agree exactly on single-window circuits
and whenever quasi-static noise is disabled; on deep circuits the density
model slightly *underestimates* the correlated dephasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.schedule import ScheduledCircuit
from ..device.calibration import Device
from ..pauli.pauli import Pauli
from .coherent import CoherentAccumulation, accumulate_coherent
from .executor import SimOptions, SimResult
from .sampling import build_noise_plan
from .statevector import _sz_arrays
from .timeline import MomentTimeline, build_timeline


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

    # -- unitaries -----------------------------------------------------------

    def _full_matrix(self, small: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
        from ..circuits.circuit import _embed

        return _embed(small, tuple(qubits), self.num_qubits)

    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        u = self._full_matrix(np.asarray(matrix), qubits)
        self.matrix = u @ self.matrix @ u.conj().T

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

    def apply_kraus(self, operators: Sequence[np.ndarray], qubits: Sequence[int]) -> None:
        total = np.zeros_like(self.matrix)
        for k in operators:
            full = self._full_matrix(np.asarray(k), qubits)
            total += full @ self.matrix @ full.conj().T
        self.matrix = total

    def apply_dephasing(self, qubit: int, probability: float) -> None:
        """Phase-flip channel: ``rho -> (1-p) rho + p Z rho Z``."""
        if probability <= 0.0:
            return
        z = np.diag([1.0, -1.0]).astype(complex)
        self.apply_kraus(
            [math.sqrt(1 - probability) * np.eye(2), math.sqrt(probability) * z],
            [qubit],
        )

    def apply_amplitude_damping(self, qubit: int, gamma: float) -> None:
        if gamma <= 0.0:
            return
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
        k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        self.apply_kraus([k0, k1], [qubit])

    def apply_depolarizing(self, qubits: Sequence[int], probability: float) -> None:
        """With probability ``p`` replace by a uniformly random non-identity
        Pauli on the listed qubits (matches the trajectory executor)."""
        if probability <= 0.0:
            return
        from ..circuits.gates import PAULI_MATRICES

        labels = ["I", "X", "Y", "Z"]
        paulis = []
        k = len(qubits)
        for index in range(1, 4**k):
            ops = []
            rest = index
            for _ in range(k):
                ops.append(labels[rest % 4])
                rest //= 4
            small = np.array([[1.0 + 0j]])
            for ch in ops:
                small = np.kron(small, PAULI_MATRICES[ch])
            paulis.append(small)
        original = self.matrix.copy()
        mixed = np.zeros_like(original)
        for small in paulis:
            full = self._full_matrix(small, qubits)
            mixed += full @ original @ full.conj().T
        count = len(paulis)
        self.matrix = (1 - probability) * original + (probability / count) * mixed

    def apply_coherence_factor(self, qubit: int, factor: float) -> None:
        """Scale the qubit's off-diagonal coherences by ``factor``.

        Equivalent to the averaged effect of a random Z rotation whose
        characteristic function evaluates to ``factor``.
        """
        if factor >= 1.0:
            return
        sz = _sz_arrays(self.num_qubits)[qubit]
        differs = sz[:, None] != sz[None, :]
        self.matrix = np.where(differs, self.matrix * factor, self.matrix)

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
        full = pauli.matrix()
        return float(np.trace(full @ self.matrix).real)

    def probability_of_bitstring(self, bits: Dict[int, int]) -> float:
        idx = np.arange(self.dim)
        mask = np.ones(self.dim, dtype=bool)
        for qubit, value in bits.items():
            mask &= ((idx >> qubit) & 1) == value
        return float(np.sum(np.diag(self.matrix).real[mask]))

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass
class _Branch:
    weight: float
    state: DensityMatrix
    clbits: Tuple[int, ...]


class DensityExecutor:
    """Evolve a scheduled circuit exactly under the averaged noise model.

    Which idles dephase or damp, with what ``p_z``/``gamma``, which gates
    carry depolarizing errors, and each qubit's quasi-static and parity
    detuning scales come from the same
    :func:`~repro.sim.sampling.build_noise_plan` the trajectory engines
    sample from; this engine applies each site's averaged channel instead
    of drawing it.
    """

    def __init__(
        self,
        scheduled: ScheduledCircuit,
        device: Device,
        options: Optional[SimOptions] = None,
    ):
        if scheduled.num_qubits != device.num_qubits:
            raise ValueError("circuit/device size mismatch")
        self.scheduled = scheduled
        self.device = device
        self.options = options or SimOptions()
        self._timelines = [
            build_timeline(sm.moment, scheduled.num_qubits, sm.duration)
            for sm in scheduled
        ]
        # The coherent phases carry no sampled detuning here, so each
        # moment's accumulation is static and shared by every branch.
        self._static_acc: List[Optional[CoherentAccumulation]] = [
            accumulate_coherent(tl, device)
            if self.options.coherent
            else None
            for tl in self._timelines
        ]
        self._plan = build_noise_plan(scheduled, device, self.options)

    def run(self) -> List[_Branch]:
        detunings = self._plan.detunings
        branches = [
            _Branch(
                1.0,
                DensityMatrix(self.scheduled.num_qubits),
                (0,) * self.scheduled.circuit.num_clbits,
            )
        ]

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
                if static_acc is not None:
                    state.apply_phases(static_acc)
                if detunings is not None and sm.duration > 0.0:
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
        branches = self.run()
        return _exact(
            {
                key: sum(b.weight * b.state.expectation_pauli(pauli) for b in branches)
                for key, pauli in observables.items()
            }
        )

    def probabilities(self, targets: Dict[str, Dict[int, int]]) -> SimResult:
        """Exact probability of each named qubit->bit assignment."""
        branches = self.run()
        return _exact(
            {
                key: sum(
                    b.weight * b.state.probability_of_bitstring(bits) for b in branches
                )
                for key, bits in targets.items()
            }
        )


def _exact(values: Dict[str, float]) -> SimResult:
    """Exact values as a ``SimResult``: zero variance, no shots sampled."""
    return SimResult(
        values={k: float(v) for k, v in values.items()},
        errors={k: 0.0 for k in values},
        shots=0,
    )


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
