"""Shared utilities: RNG handling, linear algebra, units, fitting."""

from .fitting import DecayFit, dominant_frequency, fit_exponential_decay
from .linalg import allclose_up_to_global_phase, is_unitary, random_unitary
from .rng import as_generator
from .units import KHZ, MHZ, TWO_PI, US

__all__ = [
    "DecayFit",
    "dominant_frequency",
    "fit_exponential_decay",
    "allclose_up_to_global_phase",
    "is_unitary",
    "random_unitary",
    "as_generator",
    "KHZ",
    "MHZ",
    "TWO_PI",
    "US",
]
