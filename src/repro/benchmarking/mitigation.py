"""Error-mitigation overhead estimation (paper Sec. V B / Fig. 7d).

Under a global depolarizing model, measured expectation values relate to
ideal ones as ``<O>_meas(d) = A * lambda^d * <O>_ideal(d)`` where ``A``
captures state-preparation/readout attenuation and ``lambda`` the per-step
layer error. Rescaling the signal by ``1 / (A lambda^d)`` recovers the ideal
expectation but amplifies its variance by the square of the scaling factor —
so the sampling overhead at depth ``d`` is ``(A lambda^d)**-2`` (Ref. [62]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class DepolarizingFit:
    """Global depolarizing parameters ``A`` and ``lambda``."""

    amplitude: float
    rate: float

    def scale(self, depth: float) -> float:
        """Signal attenuation ``A * lambda^d`` at depth ``d``."""
        return self.amplitude * self.rate**depth

    def overhead(self, depth: float) -> float:
        """Sampling overhead ``(A lambda^d)**-2`` at depth ``d``."""
        return self.scale(depth) ** -2.0


def fit_global_depolarizing(
    depths: Sequence[float],
    measured: Sequence[float],
    ideal: Sequence[float],
) -> DepolarizingFit:
    """Fit ``measured = A * lambda^d * ideal`` by least squares.

    For fixed ``lambda`` the optimal ``A`` is a closed-form projection, so
    only ``lambda`` is optimized numerically over ``(0, 1]``. Non-finite
    input raises ``ValueError``, and a search that does not converge raises
    ``RuntimeError``; no search probe is ever returned as a fit.
    """
    # Imported here so that ``import repro`` does not load SciPy.
    from scipy.optimize import minimize_scalar

    depths = np.asarray(depths, dtype=float)
    measured = np.asarray(measured, dtype=float)
    ideal = np.asarray(ideal, dtype=float)
    if not (len(depths) == len(measured) == len(ideal)):
        raise ValueError("length mismatch")
    if not all(np.isfinite(v).all() for v in (depths, measured, ideal)):
        raise ValueError("depths, measured and ideal must all be finite")
    if np.allclose(ideal, 0.0):
        raise ValueError("ideal signal is identically zero; cannot scale")

    def amplitude_for(rate: float) -> float:
        basis = rate**depths * ideal
        denom = float(np.dot(basis, basis))
        if denom < 1e-15:
            return 0.0
        return float(np.dot(basis, measured) / denom)

    def loss(rate: float) -> float:
        a = amplitude_for(rate)
        return float(np.sum((a * rate**depths * ideal - measured) ** 2))

    result = minimize_scalar(loss, bounds=(1e-4, 1.0), method="bounded")
    if not result.success:
        raise RuntimeError(f"Optimal parameters not found: {result.message}")
    rate = float(result.x)
    amplitude = amplitude_for(rate)
    return DepolarizingFit(amplitude=amplitude, rate=rate)
