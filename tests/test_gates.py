"""Unit tests for the gate library."""

import math

import numpy as np
import pytest

from repro.circuits import gates as g
from repro.utils.linalg import allclose_up_to_global_phase, is_unitary


class TestFixedGates:
    @pytest.mark.parametrize(
        "gate",
        [g.I, g.X, g.Y, g.Z, g.H, g.S, g.SDG, g.T, g.SX, g.SXDG, g.CX, g.CZ, g.ECR],
    )
    def test_unitary(self, gate):
        assert is_unitary(gate.matrix)

    def test_pauli_products(self):
        assert np.allclose(g.X_MAT @ g.X_MAT, np.eye(2))
        assert np.allclose(g.X_MAT @ g.Y_MAT, 1j * g.Z_MAT)
        assert np.allclose(g.Z_MAT @ g.X_MAT, 1j * g.Y_MAT)

    def test_sx_squares_to_x(self):
        assert allclose_up_to_global_phase(g.SX_MAT @ g.SX_MAT, g.X_MAT)

    def test_h_conjugates_z_to_x(self):
        assert np.allclose(g.H_MAT @ g.Z_MAT @ g.H_MAT, g.X_MAT)

    def test_ecr_is_hermitian_and_self_inverse(self):
        assert np.allclose(g.ECR_MAT, g.ECR_MAT.conj().T)
        assert np.allclose(g.ECR_MAT @ g.ECR_MAT, np.eye(4))

    def test_ecr_locally_equivalent_to_cx(self):
        # ECR and CX share the maximally-entangling Weyl point: both map a
        # product basis to a maximally entangled one. Check the standard
        # invariant: |tr(M)| where M is the magic-basis Gram matrix.
        bell = np.array(
            [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]],
            dtype=complex,
        ) / math.sqrt(2.0)

        def weyl_invariants(u):
            m = bell.conj().T @ u @ bell
            gram = m.T @ m
            return sorted(np.round(np.abs(np.linalg.eigvals(gram)), 6))

        assert weyl_invariants(g.ECR_MAT) == weyl_invariants(g.CX_MAT)

    def test_ecr_flip_fractions(self):
        assert g.ECR.flip_fractions == ((0.5,), (0.25, 0.75))


class TestRotations:
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, math.pi, -1.7])
    def test_rz_diagonal(self, theta):
        m = g.rz_matrix(theta)
        assert np.allclose(np.diag(np.diag(m)), m)
        assert is_unitary(m)

    def test_rz_composition(self):
        assert np.allclose(
            g.rz_matrix(0.4) @ g.rz_matrix(0.7), g.rz_matrix(1.1)
        )

    def test_ry_pi_is_y(self):
        assert allclose_up_to_global_phase(g.ry_matrix(math.pi), g.Y_MAT)

    def test_rzz_is_kron_consistent(self):
        theta = 0.8
        expected = (
            math.cos(theta / 2) * np.eye(4)
            - 1j * math.sin(theta / 2) * np.kron(g.Z_MAT, g.Z_MAT)
        )
        assert np.allclose(g.rzz_matrix(theta), expected)

    def test_u_gate_matches_euler_product(self):
        m = g.u_matrix(0.3, 0.5, 0.7)
        expected = g.rz_matrix(0.5) @ g.ry_matrix(0.3) @ g.rz_matrix(0.7)
        assert np.allclose(m, expected)


class TestCanonical:
    def test_zero_angles_is_identity(self):
        assert allclose_up_to_global_phase(g.canonical_matrix(0, 0, 0), np.eye(4))

    def test_pure_zz_matches_rzz(self):
        gamma = 0.37
        assert allclose_up_to_global_phase(
            g.canonical_matrix(0, 0, gamma), g.rzz_matrix(-2 * gamma)
        )

    def test_commuting_factors(self):
        a, b, c = 0.2, 0.5, 0.9
        product = (
            g.canonical_matrix(a, 0, 0)
            @ g.canonical_matrix(0, b, 0)
            @ g.canonical_matrix(0, 0, c)
        )
        assert np.allclose(g.canonical_matrix(a, b, c), product)

    def test_carries_hardware_footprint(self):
        gate = g.canonical(0.1, 0.2, 0.3)
        assert gate.error_scale == 3.0
        assert gate.flip_fractions == ((0.5,), (0.25, 0.75))


class TestCanonicalMemo:
    """``canonical_matrix`` is memoized on the exact bits of its angles."""

    @staticmethod
    def _uncached(alpha, beta, gamma):
        from scipy.linalg import expm

        generator = (
            alpha * np.kron(g.X_MAT, g.X_MAT)
            + beta * np.kron(g.Y_MAT, g.Y_MAT)
            + gamma * np.kron(g.Z_MAT, g.Z_MAT)
        )
        return expm(1j * generator)

    def test_read_only(self):
        matrix = g.canonical_matrix(0.11, 0.22, 0.33)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    @pytest.mark.parametrize(
        "angles",
        [(0.11, 0.22, 0.33), (0, 0, 0), (np.float64(0.4), 1, -0.25), (math.pi / 4, 0.0, -0.0)],
    )
    def test_equals_uncached_expm_bytes(self, angles):
        cached = g.canonical_matrix(*angles)
        assert cached.tobytes() == self._uncached(*angles).tobytes()
        assert g.canonical_matrix(*angles) is cached

    def test_signed_zero_angles_are_separate_entries(self):
        plus = g.canonical_matrix(0.3, 0.0, 0.2)
        minus = g.canonical_matrix(0.3, -0.0, 0.2)
        assert plus is not minus
        assert plus.tobytes() == self._uncached(0.3, 0.0, 0.2).tobytes()
        assert minus.tobytes() == self._uncached(0.3, -0.0, 0.2).tobytes()

    def test_circuit_gates_share_one_array(self):
        from repro import Circuit

        circ = Circuit(3)
        circ.can(0.12, 0.34, 0.56, 0, 1)
        circ.can(0.12, 0.34, 0.56, 1, 2)
        first, second = (inst.gate.matrix for inst in circ.instructions())
        assert first is second


class TestDDSequence:
    def test_even_pulses_net_identity(self):
        gate = g.dd_sequence((0.25, 0.75))
        assert np.allclose(gate.matrix, np.eye(2))

    def test_odd_pulses_net_x(self):
        gate = g.dd_sequence((0.5,))
        assert np.allclose(gate.matrix, g.X_MAT)

    def test_rejects_out_of_range_fractions(self):
        with pytest.raises(ValueError):
            g.dd_sequence((0.5, 1.2))

    def test_duration_override(self):
        gate = g.dd_sequence((0.25, 0.75), duration=480.0)
        assert gate.duration_override == 480.0


class TestStretchedRzz:
    def test_error_scales_with_angle(self):
        small = g.stretched_rzz(0.1)
        large = g.stretched_rzz(1.0)
        assert small.error_scale < large.error_scale
        assert small.error_scale == pytest.approx(0.1 / (math.pi / 2))

    def test_error_scale_clamped(self):
        assert g.stretched_rzz(10.0).error_scale == 1.0

    def test_zero_wallclock(self):
        assert g.stretched_rzz(0.3).duration_override == 0.0

    def test_matrix_matches_plain_rzz(self):
        assert np.allclose(g.stretched_rzz(0.4).matrix, g.rzz_matrix(0.4))


class TestPauliGateLookup:
    def test_all_labels(self):
        for label in "IXYZ":
            assert g.pauli_gate(label).name in ("id", "x", "y", "z")

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            g.pauli_gate("Q")
