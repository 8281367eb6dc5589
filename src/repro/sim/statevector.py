"""Dense statevector engine.

Qubit 0 is the least-significant bit of the basis-state index. Gate matrices
follow the library convention (first listed qubit = left Kronecker factor).
Diagonal Z/ZZ phase application — the dominant operation in the coherent
noise model — is vectorized over the full state.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import PAULI_MATRICES
from ..pauli.pauli import Pauli
from .coherent import CoherentAccumulation


@lru_cache(maxsize=32)
def _sz_arrays(num_qubits: int) -> Tuple[np.ndarray, ...]:
    """Per-qubit arrays of ``(+1 | -1)`` eigenvalues of Z over basis states."""
    dim = 1 << num_qubits
    idx = np.arange(dim)
    return tuple(1.0 - 2.0 * ((idx >> q) & 1) for q in range(num_qubits))


def vector_norm(vector: np.ndarray) -> float:
    """Euclidean norm via a pairwise ``|amp|^2`` sum.

    Not ``np.linalg.norm``: the BLAS dot it calls is not bit-identical to
    numpy's pairwise reduction, while this formulation produces the same
    bits whether applied to one state vector or row-wise to a C-contiguous
    ``(shots, dim)`` batch — the property the vectorized engine's
    bit-for-bit guarantee rests on.
    """
    return float(np.sqrt(np.sum(np.abs(vector) ** 2)))


def renormalize(vectors: np.ndarray, norms) -> None:
    """Divide complex ``vectors`` by ``norms`` in place.

    ``vectors`` is one C-contiguous state (``norms`` a scalar) or a
    ``(rows, dim)`` batch (``norms`` of shape ``(rows,)``). Multiplies the
    ``float64`` view by ``1.0 / norm``: NumPy's ``complex / (norm + 0j)``
    computes ``(re + im*0) * (1 / norm)``, so the result is the division's
    up to the sign of an exact zero, at a fraction of its cost. Both engines
    renormalize through this one helper, which keeps them bit-identical.
    """
    scale = 1.0 / np.asarray(norms, dtype=np.float64)
    flat = vectors.view(np.float64)
    flat *= scale[..., None]


def exact_pauli(matrix: np.ndarray) -> Optional[str]:
    """``"I"``, ``"X"``, ``"Y"`` or ``"Z"`` if ``matrix`` equals that Pauli
    exactly (``0.0 == -0.0``), else ``None``.

    Memoized on the matrix bytes: the twirl and DD passes reuse a few
    matrices across every gate of a sweep.
    """
    matrix = np.asarray(matrix)
    if matrix.shape != (2, 2):
        return None
    return _exact_pauli(matrix.dtype, matrix.tobytes())


@lru_cache(maxsize=4096)
def _exact_pauli(dtype: np.dtype, data: bytes) -> Optional[str]:
    matrix = np.frombuffer(data, dtype=dtype).reshape(2, 2)
    for label, pauli in PAULI_MATRICES.items():
        if np.array_equal(matrix, pauli):
            return label
    return None


def flip_pauli(
    array: np.ndarray, label: str, low: int, scratch: Optional[np.ndarray] = None
) -> None:
    """Apply a single-qubit Pauli in place to the C-contiguous ``array``.

    The qubit is the tensor axis with ``low`` amplitudes after it: ``2**q``
    for qubit ``q`` of a state or of a ``(rows, 2**n)`` batch in canonical
    order. X swaps the axis' halves, Z negates the ``|1>`` half, and Y swaps
    them with the products ``|1> * -1j`` and ``|0> * 1j``. Each amplitude gets
    the bits of the matching ``apply_gate`` product up to the sign of an
    exact zero; the engines apply every Pauli (gate, gate error, observable)
    through this one kernel, which keeps them bit-identical. ``scratch`` is
    an optional complex buffer of at least ``array.size // 2`` amplitudes.
    """
    if label == "I":
        return
    halves = array.reshape(-1, 2, low)
    zero, one = halves[:, 0], halves[:, 1]
    if label == "Z":
        one *= -1
        return
    if label not in ("X", "Y"):
        raise ValueError(f"bad Pauli label {label!r}")
    if scratch is None:
        saved = one.copy()
    else:
        saved = scratch.reshape(-1)[: one.size].reshape(one.shape)
        np.copyto(saved, one)
    if label == "X":
        np.copyto(one, zero)
        np.copyto(zero, saved)
    else:
        np.multiply(zero, 1j, out=one)
        np.multiply(saved, -1j, out=zero)


class StateVector:
    """A mutable pure state of ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int):
        self.num_qubits = int(num_qubits)
        self.vector = np.zeros(1 << self.num_qubits, dtype=complex)
        self.vector[0] = 1.0

    def copy(self) -> "StateVector":
        out = StateVector.__new__(StateVector)
        out.num_qubits = self.num_qubits
        out.vector = self.vector.copy()
        return out

    # -- gates ----------------------------------------------------------------

    def apply_gate(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a k-qubit unitary to the listed qubits."""
        k = len(qubits)
        n = self.num_qubits
        axes = [n - 1 - q for q in qubits]
        psi = self.vector.reshape([2] * n)
        psi = np.moveaxis(psi, axes, range(k))
        tail = psi.shape[k:]
        psi = psi.reshape(1 << k, -1)
        psi = np.asarray(matrix) @ psi
        psi = psi.reshape([2] * k + list(tail))
        psi = np.moveaxis(psi, range(k), axes)
        self.vector = np.ascontiguousarray(psi).reshape(-1)

    def apply_phases(self, acc: CoherentAccumulation) -> None:
        """Apply accumulated ``Rz``/``Rzz`` angles as one diagonal pass."""
        if not acc.z and not acc.zz:
            return
        sz = _sz_arrays(self.num_qubits)
        exponent = np.zeros(1 << self.num_qubits)
        for q, theta in acc.z.items():
            exponent += (theta / 2.0) * sz[q]
        for (a, b), theta in acc.zz.items():
            exponent += (theta / 2.0) * sz[a] * sz[b]
        self.vector *= np.exp(-1j * exponent)

    def apply_pauli(self, label: str, qubit: int) -> None:
        """Apply a single-qubit Pauli in place (see :func:`flip_pauli`)."""
        flip_pauli(self.vector, label, 1 << qubit)

    # -- measurement -----------------------------------------------------------

    def probability_one(self, qubit: int) -> float:
        """Probability of measuring ``1`` on ``qubit``."""
        mask = ((np.arange(self.vector.size) >> qubit) & 1).astype(bool)
        return float(np.sum(np.abs(self.vector[mask]) ** 2))

    def measure(
        self,
        qubit: int,
        rng: Optional[np.random.Generator] = None,
        *,
        u: Optional[float] = None,
    ) -> int:
        """Projective measurement; collapses and renormalizes the state.

        The collapse draw comes from ``rng``, or from a pre-sampled uniform
        ``u`` (the batched engines sample all draws up front).
        """
        p1 = self.probability_one(qubit)
        if u is None:
            u = rng.random()
        outcome = 1 if u < p1 else 0
        mask = ((np.arange(self.vector.size) >> qubit) & 1) == outcome
        self.vector = np.where(mask, self.vector, 0.0)
        norm = vector_norm(self.vector)
        if norm < 1e-15:
            raise RuntimeError("measurement collapsed to zero norm")
        self.vector /= norm
        return outcome

    # -- observables -----------------------------------------------------------

    def expectation_pauli(self, pauli: Pauli) -> float:
        """``<psi|P|psi>`` for a Pauli observable (real by construction)."""
        if pauli.num_qubits != self.num_qubits:
            raise ValueError("observable size mismatch")
        work = self.copy()
        for qubit in range(self.num_qubits):
            work.apply_pauli(pauli.factor(qubit), qubit)
        value = np.vdot(self.vector, work.vector) * (1j**pauli.phase)
        return float(value.real)

    def probability_of_bitstring(self, bits: Dict[int, int]) -> float:
        """Probability that the listed qubits read the given values."""
        idx = np.arange(self.vector.size)
        mask = np.ones(self.vector.size, dtype=bool)
        for qubit, value in bits.items():
            mask &= ((idx >> qubit) & 1) == value
        return float(np.sum(np.abs(self.vector[mask]) ** 2))

    def fidelity_with(self, other: "StateVector") -> float:
        return float(abs(np.vdot(self.vector, other.vector)) ** 2)
