"""Single-qubit Euler-angle decomposition (paper eq. 4).

Any ``U`` in U(2) factors as ``exp(i phase) Rz(phi) Ry(theta) Rz(lam)``.
The twirling and orientation passes use it to fuse the Paulis and dressing
gates they insert into one ``u`` gate per qubit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gates import rz_matrix, ry_matrix


@dataclass(frozen=True)
class EulerAngles:
    """ZYZ Euler angles with global phase: ``e^{i phase} Rz(phi) Ry(theta) Rz(lam)``."""

    theta: float
    phi: float
    lam: float
    phase: float = 0.0

    def matrix(self) -> np.ndarray:
        return (
            cmath.exp(1j * self.phase)
            * rz_matrix(self.phi)
            @ ry_matrix(self.theta)
            @ rz_matrix(self.lam)
        )


def euler_angles(matrix: np.ndarray) -> EulerAngles:
    """Extract ZYZ Euler angles (with global phase) from a 2x2 unitary."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    det = np.linalg.det(matrix)
    if abs(abs(det) - 1.0) > 1e-6:
        raise ValueError("matrix is not unitary")
    phase = 0.5 * cmath.phase(det)
    su2 = matrix * cmath.exp(-1j * phase)

    # su2 = [[cos(t/2) e^{-i(phi+lam)/2}, -sin(t/2) e^{-i(phi-lam)/2}],
    #        [sin(t/2) e^{+i(phi-lam)/2},  cos(t/2) e^{+i(phi+lam)/2}]]
    theta = 2.0 * math.atan2(abs(su2[1, 0]), abs(su2[0, 0]))
    if abs(su2[0, 0]) < 1e-12:
        # theta == pi: only phi - lam is determined; set lam = 0.
        phi = 2.0 * cmath.phase(su2[1, 0])
        lam = 0.0
    elif abs(su2[1, 0]) < 1e-12:
        # theta == 0: only phi + lam is determined; set lam = 0.
        phi = 2.0 * cmath.phase(su2[1, 1])
        lam = 0.0
    else:
        plus = 2.0 * cmath.phase(su2[1, 1])
        minus = 2.0 * cmath.phase(su2[1, 0])
        phi = 0.5 * (plus + minus)
        lam = 0.5 * (plus - minus)
    return EulerAngles(theta=theta, phi=phi, lam=lam, phase=phase)
