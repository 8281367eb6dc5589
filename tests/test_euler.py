"""Euler decomposition tests, including hypothesis round-trips (paper eq. 4)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import gates as g
from repro.circuits.euler import euler_angles


def su2_strategy():
    """Random U(2) matrices built from Euler angles and a global phase."""
    angle = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
    return st.tuples(angle, angle, angle, angle).map(
        lambda t: np.exp(1j * t[3])
        * g.rz_matrix(t[1]) @ g.ry_matrix(t[0]) @ g.rz_matrix(t[2])
    )


class TestRoundTrip:
    @given(su2_strategy())
    @settings(max_examples=60, deadline=None)
    def test_angles_reconstruct_matrix(self, matrix):
        angles = euler_angles(matrix)
        assert np.allclose(angles.matrix(), matrix, atol=1e-8)

    def test_identity(self):
        angles = euler_angles(np.eye(2))
        assert angles.theta == pytest.approx(0.0)

    def test_x_gate(self):
        angles = euler_angles(g.X_MAT)
        assert angles.theta == pytest.approx(math.pi)

    def test_pure_rz(self):
        angles = euler_angles(g.rz_matrix(0.7))
        assert angles.theta == pytest.approx(0.0, abs=1e-9)
        assert (angles.phi + angles.lam) == pytest.approx(0.7, abs=1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            euler_angles(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            euler_angles(np.eye(3))

