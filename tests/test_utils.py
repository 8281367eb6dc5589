"""Tests for rng, linalg, fitting utilities."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    DecayFit,
    allclose_up_to_global_phase,
    as_generator,
    dominant_frequency,
    fit_exponential_decay,
    is_unitary,
    random_unitary,
)


class TestRng:
    def test_as_generator_from_int(self):
        a = as_generator(5)
        b = as_generator(5)
        assert a.random() == b.random()

    def test_passthrough(self):
        rng = np.random.default_rng(1)
        assert as_generator(rng) is rng


class TestLinalg:
    def test_is_unitary(self):
        assert is_unitary(np.eye(3))
        assert not is_unitary(np.ones((2, 2)))
        assert not is_unitary(np.ones((2, 3)))

    @given(st.floats(-math.pi, math.pi, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_global_phase_equivalence(self, phi):
        rng = np.random.default_rng(0)
        u = random_unitary(2, rng)
        assert allclose_up_to_global_phase(np.exp(1j * phi) * u, u)

    def test_global_phase_rejects_different(self):
        assert not allclose_up_to_global_phase(
            np.eye(2), np.array([[1, 0], [0, -1]], dtype=complex)
        )

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(2)
        assert is_unitary(random_unitary(8, rng))


class TestDecayFit:
    def test_recovers_known_decay(self):
        x = np.arange(10)
        y = 0.9 * 0.8**x
        fit = fit_exponential_decay(x, y, offset=0.0)
        assert fit.rate == pytest.approx(0.8, abs=1e-3)
        assert fit.amplitude == pytest.approx(0.9, abs=1e-3)

    def test_with_free_offset(self):
        x = np.arange(12)
        y = 0.7 * 0.85**x + 0.1
        fit = fit_exponential_decay(x, y)
        assert fit.rate == pytest.approx(0.85, abs=0.02)
        assert fit.offset == pytest.approx(0.1, abs=0.03)

    def test_callable(self):
        fit = DecayFit(amplitude=1.0, rate=0.5, offset=0.0, residual=0.0)
        assert fit(2) == pytest.approx(0.25)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([1], [1])

    def test_noisy_data_still_fits(self):
        rng = np.random.default_rng(3)
        x = np.arange(15)
        y = 0.95**x + rng.normal(0, 0.01, size=15)
        fit = fit_exponential_decay(x, y, offset=0.0)
        assert fit.rate == pytest.approx(0.95, abs=0.02)

    def test_failed_fit_raises(self, monkeypatch):
        """A fit that does not converge is an error, not its initial guess."""
        import scipy.optimize

        def no_convergence(*args, **kwargs):
            return SimpleNamespace(
                success=False, message="maximum function evaluations exceeded"
            )

        monkeypatch.setattr(scipy.optimize, "least_squares", no_convergence)
        with pytest.raises(RuntimeError, match="Optimal parameters not found"):
            fit_exponential_decay(np.arange(10), 0.9 * 0.8 ** np.arange(10))


class TestDominantFrequency:
    def test_recovers_single_tone(self):
        times = np.linspace(0, 100, 400)
        freq = 0.22
        signal = np.cos(2 * math.pi * freq * times)
        assert dominant_frequency(times, signal) == pytest.approx(freq, abs=0.01)

    def test_ignores_dc(self):
        times = np.linspace(0, 50, 256)
        signal = 3.0 + 0.5 * np.cos(2 * math.pi * 0.3 * times)
        assert dominant_frequency(times, signal) == pytest.approx(0.3, abs=0.02)

    def test_requires_uniform_spacing(self):
        with pytest.raises(ValueError):
            dominant_frequency([0, 1, 3, 4, 6], [1, 2, 1, 2, 1])

    def test_requires_minimum_samples(self):
        with pytest.raises(ValueError):
            dominant_frequency([0, 1], [0, 1])
