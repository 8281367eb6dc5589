"""Shared utilities: RNG handling, linear algebra, units, fitting."""

from .fitting import DecayFit, dominant_frequency, fit_exponential_decay
from .linalg import (
    allclose_up_to_global_phase,
    is_unitary,
    kron_all,
    random_unitary,
    state_fidelity,
)
from .rng import as_generator, derive_seed, spawn
from .units import KHZ, MHZ, TWO_PI, US, khz, phase_angle, us

__all__ = [
    "DecayFit",
    "dominant_frequency",
    "fit_exponential_decay",
    "allclose_up_to_global_phase",
    "is_unitary",
    "kron_all",
    "random_unitary",
    "state_fidelity",
    "as_generator",
    "derive_seed",
    "spawn",
    "KHZ",
    "MHZ",
    "TWO_PI",
    "US",
    "khz",
    "phase_angle",
    "us",
]
