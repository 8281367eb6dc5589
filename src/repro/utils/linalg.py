"""Small linear-algebra helpers used across the library."""

from __future__ import annotations

import numpy as np

ATOL = 1e-9


def is_unitary(matrix: np.ndarray, atol: float = 1e-8) -> bool:
    """Return ``True`` if ``matrix`` is unitary within tolerance."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def allclose_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, atol: float = 1e-7
) -> bool:
    """Return ``True`` if ``a == exp(i phi) * b`` for some real ``phi``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    # Find the largest-magnitude entry of b to extract the relative phase.
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


def kron_all(*matrices: np.ndarray) -> np.ndarray:
    """Kronecker product of all arguments, left to right."""
    out = np.array([[1.0 + 0j]])
    for m in matrices:
        out = np.kron(out, m)
    return out


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Fidelity ``|<a|b>|^2`` between two pure statevectors."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    return float(abs(np.vdot(a, b)) ** 2)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary of dimension ``dim``."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
