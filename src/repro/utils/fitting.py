"""Curve-fitting helpers for decay and oscillation analysis.

Used by the layer-fidelity protocol (exponential decays, paper Sec. V C) and
by the mitigation-overhead estimate (global depolarizing model ``A lambda^d``,
paper Sec. V B / Ref. [62]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass
class DecayFit:
    """Result of fitting ``y = amplitude * rate**x + offset``."""

    amplitude: float
    rate: float
    offset: float
    residual: float

    def __call__(self, x):
        return self.amplitude * self.rate ** np.asarray(x, dtype=float) + self.offset


def fit_exponential_decay(
    x: Sequence[float],
    y: Sequence[float],
    offset: Optional[float] = None,
) -> DecayFit:
    """Fit ``y = A * r**x (+ B)`` with ``0 <= r <= 1``.

    When ``offset`` is given it is held fixed (pass ``0.0`` for decays to
    zero); otherwise it is fitted. A fit that does not converge raises
    SciPy's ``RuntimeError``; no initial guess is ever returned as a fit.
    """
    # Imported here so that ``import repro`` does not load SciPy.
    from scipy.optimize import curve_fit

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need at least two points with matching lengths")

    span = max(np.ptp(x), 1.0)
    y0, y1 = y[np.argmin(x)], y[np.argmax(x)]
    base = offset if offset is not None else float(min(y.min(), 0.0))
    denom = (y0 - base) if abs(y0 - base) > 1e-12 else 1.0
    guess_rate = float(np.clip(abs((y1 - base) / denom) ** (1.0 / span), 1e-6, 1.0))
    guess_amp = float(max(y0 - base, 1e-6))

    if offset is None:
        def model(xv, a, r, b):
            return a * r**xv + b

        p0 = (guess_amp, guess_rate, base)
        bounds = ([0.0, 0.0, -1.0], [2.0, 1.0, 1.0])
    else:
        def model(xv, a, r):
            return a * r**xv + offset

        p0 = (guess_amp, guess_rate)
        bounds = ([0.0, 0.0], [2.0, 1.0])

    popt, _ = curve_fit(model, x, y, p0=p0, bounds=bounds, maxfev=20000)
    if offset is None:
        amp, rate, off = popt
    else:
        (amp, rate), off = popt, offset
    residual = float(np.sqrt(np.mean((model(x, *popt) - y) ** 2)))
    return DecayFit(amplitude=float(amp), rate=float(rate), offset=float(off),
                    residual=residual)


def dominant_frequency(
    times: Sequence[float], signal: Sequence[float]
) -> float:
    """Dominant oscillation frequency of ``signal(times)`` via FFT.

    ``times`` must be uniformly spaced. Used for the Stark-shift spectroscopy
    reproduction (paper Fig. 4a).
    """
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if len(times) < 4:
        raise ValueError("need at least four samples")
    dt = float(times[1] - times[0])
    if not np.allclose(np.diff(times), dt, rtol=1e-6):
        raise ValueError("times must be uniformly spaced")
    centered = signal - signal.mean()
    spectrum = np.abs(np.fft.rfft(centered))
    freqs = np.fft.rfftfreq(len(signal), d=dt)
    # Refine the argmax peak with a quadratic (parabolic) interpolation.
    k = int(np.argmax(spectrum[1:]) + 1)
    if 1 <= k < len(spectrum) - 1:
        alpha, beta, gamma = spectrum[k - 1], spectrum[k], spectrum[k + 1]
        denom = alpha - 2 * beta + gamma
        shift = 0.5 * (alpha - gamma) / denom if abs(denom) > 1e-12 else 0.0
        return float((k + shift) * (freqs[1] - freqs[0]))
    return float(freqs[k])
