"""Statevector engine tests with hypothesis checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import gates as g
from repro.pauli import Pauli
from repro.sim.coherent import CoherentAccumulation
from repro.sim.statevector import StateVector, renormalize, vector_norm
from repro.utils.linalg import random_unitary


class TestGateApplication:
    def test_initial_state(self):
        s = StateVector(2)
        assert s.vector[0] == 1.0

    def test_x_flips(self):
        s = StateVector(2)
        s.apply_gate(g.X_MAT, [0])
        assert abs(s.vector[0b01]) == pytest.approx(1.0)

    def test_two_qubit_gate_ordering(self):
        s = StateVector(2)
        s.apply_gate(g.X_MAT, [0])
        s.apply_gate(g.CX_MAT, [0, 1])  # control = qubit 0
        assert abs(s.vector[0b11]) == pytest.approx(1.0)

    @given(st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_matches_dense_embedding(self, qubit):
        from repro.circuits.circuit import _embed

        rng = np.random.default_rng(qubit + 1)
        u = random_unitary(2, rng)
        s = StateVector(3)
        s.apply_gate(g.H_MAT, [0])
        s.apply_gate(g.H_MAT, [2])
        expected = _embed(u, (qubit,), 3) @ s.vector
        s.apply_gate(u, [qubit])
        assert np.allclose(s.vector, expected)

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        s = StateVector(3)
        for _ in range(10):
            u = random_unitary(4, rng)
            qubits = list(rng.choice(3, size=2, replace=False))
            s.apply_gate(u, qubits)
        assert np.linalg.norm(s.vector) == pytest.approx(1.0)


class TestPhases:
    def test_z_phase_matches_rz_gate(self):
        theta = 0.73
        a = StateVector(2)
        a.apply_gate(g.H_MAT, [0])
        b = a.copy()
        acc = CoherentAccumulation(z={0: theta})
        a.apply_phases(acc)
        b.apply_gate(g.rz_matrix(theta), [0])
        assert np.allclose(a.vector, b.vector)

    def test_zz_phase_matches_rzz_gate(self):
        theta = -1.1
        a = StateVector(2)
        a.apply_gate(g.H_MAT, [0])
        a.apply_gate(g.H_MAT, [1])
        b = a.copy()
        a.apply_phases(CoherentAccumulation(zz={(0, 1): theta}))
        b.apply_gate(g.rzz_matrix(theta), [0, 1])
        assert np.allclose(a.vector, b.vector)

    def test_empty_accumulation_noop(self):
        s = StateVector(1)
        before = s.vector.copy()
        s.apply_phases(CoherentAccumulation())
        assert np.array_equal(s.vector, before)


class TestPaulis:
    @pytest.mark.parametrize("label", ["X", "Y", "Z"])
    def test_apply_pauli_matches_gate(self, label):
        rng = np.random.default_rng(4)
        s = StateVector(2)
        s.apply_gate(random_unitary(4, rng), [0, 1])
        expected = s.copy()
        expected.apply_gate(g.PAULI_MATRICES[label], [1])
        s.apply_pauli(label, 1)
        assert np.allclose(s.vector, expected.vector)

    def test_identity_noop(self):
        s = StateVector(1)
        before = s.vector.copy()
        s.apply_pauli("I", 0)
        assert np.array_equal(s.vector, before)


class TestMeasurement:
    def test_deterministic_outcomes(self):
        rng = np.random.default_rng(0)
        s = StateVector(1)
        assert s.measure(0, rng) == 0
        s.apply_pauli("X", 0)
        assert s.measure(0, rng) == 1

    def test_collapse_normalizes(self):
        rng = np.random.default_rng(1)
        s = StateVector(2)
        s.apply_gate(g.H_MAT, [0])
        s.apply_gate(g.CX_MAT, [0, 1])
        outcome = s.measure(0, rng)
        assert np.linalg.norm(s.vector) == pytest.approx(1.0)
        # Bell state: both qubits agree after collapse.
        assert s.probability_one(1) == pytest.approx(float(outcome))

    def test_probability_one(self):
        s = StateVector(1)
        s.apply_gate(g.H_MAT, [0])
        assert s.probability_one(0) == pytest.approx(0.5)


class TestObservables:
    def test_expectation_z_on_zero(self):
        s = StateVector(2)
        assert s.expectation_pauli(Pauli.from_label("IZ")) == pytest.approx(1.0)

    def test_expectation_x_on_plus(self):
        s = StateVector(1)
        s.apply_gate(g.H_MAT, [0])
        assert s.expectation_pauli(Pauli.from_label("X")) == pytest.approx(1.0)

    def test_expectation_xx_on_bell(self):
        s = StateVector(2)
        s.apply_gate(g.H_MAT, [0])
        s.apply_gate(g.CX_MAT, [0, 1])
        assert s.expectation_pauli(Pauli.from_label("XX")) == pytest.approx(1.0)
        assert s.expectation_pauli(Pauli.from_label("ZZ")) == pytest.approx(1.0)
        assert s.expectation_pauli(Pauli.from_label("ZI")) == pytest.approx(0.0)

    def test_observable_size_mismatch(self):
        s = StateVector(2)
        with pytest.raises(ValueError):
            s.expectation_pauli(Pauli.from_label("Z"))

    def test_bitstring_probability(self):
        s = StateVector(2)
        s.apply_gate(g.H_MAT, [0])
        assert s.probability_of_bitstring({0: 0, 1: 0}) == pytest.approx(0.5)
        assert s.probability_of_bitstring({1: 1}) == pytest.approx(0.0)

    def test_fidelity_with(self):
        a = StateVector(1)
        b = StateVector(1)
        b.apply_gate(g.H_MAT, [0])
        assert a.fidelity_with(b) == pytest.approx(0.5)


class TestRenormalize:
    """``renormalize`` multiplies by ``1 / norm``; on amplitudes without
    exact zeros that is bit-identical to complex division by the norm."""

    def test_batch_matches_division(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(5, 64)) + 1j * rng.normal(size=(5, 64))
        norms = np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))
        expected = rows / norms[:, None]
        renormalize(rows, norms)
        np.testing.assert_array_equal(rows.view(np.uint64), expected.view(np.uint64))

    def test_single_state_matches_division(self):
        rng = np.random.default_rng(8)
        vector = rng.normal(size=32) + 1j * rng.normal(size=32)
        norm = vector_norm(vector)
        expected = vector / norm
        renormalize(vector, norm)
        np.testing.assert_array_equal(vector.view(np.uint64), expected.view(np.uint64))
