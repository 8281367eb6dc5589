"""Monte-Carlo trajectory executor.

Each trajectory samples one realization of the stochastic noise (per-shot
quasi-static detuning, charge-parity sign, dephasing/damping jumps, gate
depolarizing events) and evolves a pure state through the scheduled circuit:

1. measurements collapse at the start of their moment;
2. the moment's coherent Z/ZZ phases (static crosstalk + this shot's
   detunings, modulated by sign trajectories) are applied as one diagonal;
3. stochastic dephasing / amplitude-damping jumps are sampled per qubit;
4. the moment's ideal unitaries (including DD nets and conditioned gates)
   are applied;
5. gate-depolarizing events are sampled per physical gate.

Expectation values and bitstring probabilities are computed exactly on
each trajectory, emulating the readout-corrected results the paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.schedule import ScheduledCircuit
from ..device.calibration import Device
from ..pauli.pauli import Pauli
from ..utils.rng import SeedLike, as_generator
from .coherent import CoherentAccumulation, accumulate_coherent
from .sampling import (
    _PAULI_1Q,
    _PAULI_2Q,
    NoiseBatch,
    NoisePlan,
    build_noise_plan,
    sample_shot,
)
from .statevector import StateVector, exact_pauli, renormalize, vector_norm
from .timeline import MomentTimeline, build_timeline


@dataclass(frozen=True)
class SimOptions:
    """Sampling configuration: the only source of an engine's shot count
    and seed.

    The noise model is the device's alone. A source whose parameters are
    zero draws nothing, so switching one off is a device edit, e.g.
    ``device.with_params(p1=0.0, p2=0.0)`` or ``device.ideal()``.
    """

    shots: int = 128
    seed: SeedLike = None


@dataclass
class SimResult:
    """Mean and standard error per requested quantity."""

    values: Dict[str, float]
    errors: Dict[str, float]
    shots: int

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def error(self, key: str) -> float:
        """Standard error of the mean for ``key``."""
        return self.errors[key]

    def items(self):
        """Iterate over ``(key, value)`` pairs, like a dict."""
        return self.values.items()

    def keys(self):
        return self.values.keys()

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{k}={v:+.6f}±{self.errors.get(k, 0.0):.6f}"
            for k, v in self.values.items()
        )
        return f"{type(self).__name__}({body}, shots={self.shots})"


class Executor:
    """Runs one scheduled circuit ``options.shots`` times under sampled noise."""

    def __init__(
        self,
        scheduled: ScheduledCircuit,
        device: Device,
        options: Optional[SimOptions] = None,
    ):
        if scheduled.num_qubits != device.num_qubits:
            raise ValueError(
                f"circuit has {scheduled.num_qubits} qubits, device has "
                f"{device.num_qubits}"
            )
        self.scheduled = scheduled
        self.device = device
        self.options = options or SimOptions()
        if self.options.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.options.shots}")
        self._timelines: List[MomentTimeline] = [
            build_timeline(sm.moment, scheduled.num_qubits, sm.duration)
            for sm in scheduled
        ]
        # Static coherent accumulation is shot-independent; per-shot detuning
        # contributions are added on top of a cached copy.
        self._static_acc: List[CoherentAccumulation] = [
            accumulate_coherent(tl, device) for tl in self._timelines
        ]
        # Every draw site and its column, in stream order. The vectorized
        # engine samples through the same `sample_shot` and reads the same
        # columns, which is what keeps the two backends seed-for-seed equal.
        self._plan: NoisePlan = build_noise_plan(scheduled, device)
        self._gates = [_moment_gates(sm.moment) for sm in scheduled]
        #: ``(qubit, gamma) -> no_jump_diagonal(...)``, built on first use.
        self._no_jump_diagonals: Dict[Tuple[int, float], np.ndarray] = {}

    def _no_jump_diagonal(self, qubit: int, gamma: float) -> np.ndarray:
        key = (qubit, gamma)
        diagonal = self._no_jump_diagonals.get(key)
        if diagonal is None:
            diagonal = no_jump_diagonal(self.scheduled.num_qubits, qubit, gamma)
            self._no_jump_diagonals[key] = diagonal
        return diagonal

    # -- single trajectory ---------------------------------------------------

    def _run_trajectory(
        self, rng: np.random.Generator
    ) -> Tuple[StateVector, List[int]]:
        noise = NoiseBatch.empty(self._plan, 1)
        sample_shot(self._plan, rng, noise, 0)
        return self._evolve(noise)

    def _evolve(self, noise: NoiseBatch) -> Tuple[StateVector, List[int]]:
        """Evolve one trajectory from row 0 of its pre-sampled noise batch."""
        n = self.scheduled.num_qubits
        state = StateVector(n)
        clbits = [0] * self.scheduled.circuit.num_clbits
        detunings = noise.detunings[0]
        u = noise.uniforms[0].tolist()
        paulis = noise.paulis[0].tolist()

        for m, (sm, timeline, static_acc) in enumerate(
            zip(self.scheduled, self._timelines, self._static_acc)
        ):
            plan = self._plan.moments[m]
            # 1. measurements collapse first; idle neighbors then accumulate
            # (conditional) phase with the collapsed qubit for the rest of
            # the readout window.
            for qubit, clbit, col in plan.measured:
                clbits[clbit] = state.measure(qubit, u=u[col])

            # 2. coherent phases
            acc = static_acc
            if sm.duration > 0.0:
                acc = CoherentAccumulation(dict(static_acc.z), dict(static_acc.zz))
                for q in range(n):
                    rate = detunings[q]
                    if rate != 0.0:
                        acc.add_z(
                            q,
                            2.0 * math.pi * rate * sm.duration
                            * timeline.sign_integral(q),
                        )
            state.apply_phases(acc)

            # 3. stochastic dephasing / damping (per-qubit interleave)
            for q, p_z, gamma, flip_col, damp_col in plan.idles:
                if p_z > 0.0 and u[flip_col] < p_z:
                    state.apply_pauli("Z", q)
                if gamma > 0.0:
                    p_jump = gamma * state.probability_one(q)
                    if u[damp_col] < p_jump:
                        _apply_decay_jump(state, q)
                    else:
                        _apply_no_jump(state, q, gamma, self._no_jump_diagonal(q, gamma))

            # 4. ideal unitaries, exact Paulis as in-place flips
            for condition, label, matrix, qubits in self._gates[m]:
                if condition is not None and clbits[condition[0]] != condition[1]:
                    continue
                if label is None:
                    state.apply_gate(matrix, qubits)
                else:
                    state.apply_pauli(label, qubits[0])

            # 5. gate errors
            for site in plan.gate_errors:
                for code in paulis[site.slot : site.slot + site.repeats]:
                    if code < 0:
                        continue
                    labels = _PAULI_2Q[code] if site.two_qubit else (_PAULI_1Q[code],)
                    for label, qubit in zip(labels, site.qubits):
                        state.apply_pauli(label, qubit)

        return state, clbits

    # -- aggregated runs -------------------------------------------------------

    def expectations(self, observables: Dict[str, Pauli]) -> SimResult:
        """Average ``<P>`` over ``options.shots`` trajectories seeded from
        ``options.seed``, for each named observable."""
        rng = as_generator(self.options.seed)
        count = self.options.shots
        samples: Dict[str, List[float]] = {k: [] for k in observables}
        for _ in range(count):
            state, _clbits = self._run_trajectory(rng)
            for key, pauli in observables.items():
                samples[key].append(state.expectation_pauli(pauli))
        return _aggregate(samples, count)

    def probabilities(self, targets: Dict[str, Dict[int, int]]) -> SimResult:
        """Average probability of each named qubit->bit assignment."""
        rng = as_generator(self.options.seed)
        count = self.options.shots
        samples: Dict[str, List[float]] = {k: [] for k in targets}
        for _ in range(count):
            state, _clbits = self._run_trajectory(rng)
            for key, bits in targets.items():
                samples[key].append(state.probability_of_bitstring(bits))
        return _aggregate(samples, count)


def _apply_decay_jump(state: StateVector, qubit: int) -> None:
    """Amplitude-damping jump: project onto |1>, then lower to |0>."""
    idx = np.arange(state.vector.size)
    one = ((idx >> qubit) & 1) == 1
    amp = np.where(one, state.vector, 0.0)
    norm = vector_norm(amp)
    if norm <= 0.0:
        # The |1> amplitude underflowed: the jump branch has vanishing
        # probability, so renormalize the un-jumped state instead of
        # dividing by zero.
        total = vector_norm(state.vector)
        if total > 0.0:
            state.vector = state.vector / total
        return
    lowered = np.zeros_like(state.vector)
    lowered[idx[one] ^ (1 << qubit)] = amp[one]
    state.vector = lowered / norm


def _moment_gates(moment) -> List[Tuple]:
    """A moment's unitaries in order, as ``(condition, label, matrix, qubits)``.

    ``label`` is the Pauli an unconditioned gate's matrix equals exactly
    (:func:`~repro.sim.statevector.exact_pauli`), applied as an in-place
    flip, or ``None`` for a dense gate; exact identities are dropped.
    """
    gates = []
    for inst in moment:
        gate = inst.gate
        if gate.matrix is None or gate.is_measurement or gate.is_delay:
            continue
        label = None
        if inst.condition is None and gate.num_qubits == 1:
            label = exact_pauli(gate.matrix)
        if label != "I":
            gates.append((inst.condition, label, gate.matrix, tuple(inst.qubits)))
    return gates


def no_jump_diagonal(num_qubits: int, qubit: int, gamma: float) -> np.ndarray:
    """The no-jump Kraus ``diag(1, sqrt(1-gamma))`` on ``qubit``, as the
    ``(2 * 2**n,)`` diagonal of a state's ``float64`` (re, im) view."""
    diagonal = np.ones(2 << num_qubits)
    diagonal.reshape(-1, 2, 2 << qubit)[:, 1] = math.sqrt(1.0 - gamma)
    return diagonal


def _apply_no_jump(
    state: StateVector, qubit: int, gamma: float, diagonal: Optional[np.ndarray] = None
) -> None:
    """No-jump Kraus ``diag(1, sqrt(1-gamma))`` with renormalization.

    One contiguous multiply of the ``float64`` view by ``diagonal``
    (:func:`no_jump_diagonal`, built here when not given): each amplitude
    gets the bits of ``amp * sqrt(1-gamma)`` up to the sign of an exact zero.
    """
    if diagonal is None:
        diagonal = no_jump_diagonal(state.num_qubits, qubit, gamma)
    scaled = (state.vector.view(np.float64) * diagonal).view(complex)
    norm = vector_norm(scaled)
    if norm <= 0.0:
        # gamma ~ 1 with all population in |1>: the no-jump branch carries
        # zero weight, so the trajectory decays deterministically.
        _apply_decay_jump(state, qubit)
        return
    renormalize(scaled, norm)
    state.vector = scaled


def _aggregate(samples: Dict[str, List[float]], count: int) -> SimResult:
    values = {}
    errors = {}
    for key, data in samples.items():
        arr = np.asarray(data)
        values[key] = float(arr.mean())
        errors[key] = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return SimResult(values=values, errors=errors, shots=count)
