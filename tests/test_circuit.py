"""Unit tests for the moment-based circuit IR."""

import numpy as np
import pytest

from repro.circuits import Circuit, Instruction, Moment, gates as g, layer_kind
from repro.circuits.circuit import _embed
from repro.utils.linalg import allclose_up_to_global_phase


class TestInstruction:
    def test_qubit_count_checked(self):
        with pytest.raises(ValueError):
            Instruction(g.CX, (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Instruction(g.CX, (1, 1))

    def test_measure_needs_clbit(self):
        with pytest.raises(ValueError):
            Instruction(g.measure(), (0,))

    def test_with_tag(self):
        inst = Instruction(g.X, (0,)).with_tag("dd")
        assert inst.tag == "dd"


class TestMoment:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Moment([Instruction(g.X, (0,)), Instruction(g.H, (0,))])

    def test_add_and_remove(self):
        m = Moment([Instruction(g.X, (0,))])
        inst = Instruction(g.H, (1,))
        m.add(inst)
        assert m.qubits == frozenset({0, 1})
        m.remove(inst)
        assert m.qubits == frozenset({0})

    def test_add_conflict_rolls_back(self):
        m = Moment([Instruction(g.X, (0,))])
        with pytest.raises(ValueError):
            m.add(Instruction(g.H, (0,)))
        assert len(m) == 1

    def test_replace(self):
        old = Instruction(g.X, (0,))
        m = Moment([old])
        m.replace(old, Instruction(g.Y, (0,)))
        assert m.instruction_on(0).gate.name == "y"

    def test_instruction_on_idle_returns_none(self):
        m = Moment([Instruction(g.X, (0,))])
        assert m.instruction_on(3) is None


class TestLayerKind:
    def test_two_qubit_gate_wins(self):
        m = Moment([Instruction(g.CX, (0, 1)), Instruction(g.H, (2,))])
        assert layer_kind(m) == "2q"

    def test_measurement(self):
        m = Moment([Instruction(g.measure(), (0,), clbits=(0,)), Instruction(g.X, (1,))])
        assert layer_kind(m) == "measure"

    def test_delay(self):
        m = Moment([Instruction(g.delay(500.0), (0,)), Instruction(g.X, (1,))])
        assert layer_kind(m) == "delay"

    def test_single_qubit_and_empty(self):
        assert layer_kind(Moment([Instruction(g.H, (0,))])) == "1q"
        assert layer_kind(Moment()) == "1q"


class TestCircuitConstruction:
    def test_append_packs_disjoint_gates(self):
        c = Circuit(3)
        c.h(0)
        c.h(1)
        assert len(c.moments) == 1

    def test_append_splits_on_conflict(self):
        c = Circuit(2)
        c.h(0)
        c.x(0)
        assert len(c.moments) == 2

    def test_new_moment_forces_split(self):
        c = Circuit(2)
        c.h(0)
        c.h(1, new_moment=True)
        assert len(c.moments) == 2

    def test_out_of_range_qubit(self):
        c = Circuit(2)
        with pytest.raises(ValueError):
            c.h(2)

    def test_measure_requires_clbit_range(self):
        c = Circuit(2, num_clbits=1)
        c.measure(0, 0)
        with pytest.raises(ValueError):
            c.measure(1, 5)

    def test_conditional_after_measure_split(self):
        c = Circuit(2, num_clbits=1)
        c.measure(0, 0)
        c.x(1, condition=(0, 1))
        # The conditioned gate must be in a later moment than the measurement.
        measure_moment = next(
            i for i, m in enumerate(c.moments) if m.has_measurement
        )
        cond_moment = next(
            i
            for i, m in enumerate(c.moments)
            if any(inst.condition for inst in m)
        )
        assert cond_moment > measure_moment

    def test_count_gates_by_name_and_tag(self):
        c = Circuit(2)
        c.h(0)
        c.append(g.X, [1], tag="twirl")
        assert c.count_gates(name="h") == 1
        assert c.count_gates(tag="twirl") == 1
        assert c.count_gates() == 2

    def test_copy_is_deep_for_moments(self):
        c = Circuit(2)
        c.h(0)
        c2 = c.copy()
        c2.x(1)
        assert c.count_gates() == 1
        assert c2.count_gates() == 2

    def test_has_dynamics(self):
        c = Circuit(2, num_clbits=1)
        assert not c.has_dynamics()
        c.measure(0, 0)
        assert c.has_dynamics()


class TestUnitary:
    def test_single_h(self):
        c = Circuit(1)
        c.h(0)
        assert np.allclose(c.unitary(), g.H_MAT)

    def test_order_of_moments(self):
        c = Circuit(1)
        c.h(0)
        c.s(0)
        # S after H: total = S @ H
        assert np.allclose(c.unitary(), g.S_MAT @ g.H_MAT)

    def test_cx_little_endian_embedding(self):
        c = Circuit(2)
        c.cx(0, 1)  # control qubit 0 (LSB)
        u = c.unitary()
        # |01> (q0=1) -> |11>
        state = np.zeros(4)
        state[0b01] = 1.0
        out = u @ state
        assert abs(out[0b11]) == pytest.approx(1.0)

    def test_unitary_raises_with_measurement(self):
        c = Circuit(1, num_clbits=1)
        c.measure(0, 0)
        with pytest.raises(ValueError):
            c.unitary()

    def test_embed_matches_kron_for_adjacent_pair(self):
        # gate on (1, 0): first listed = q1 = left factor; with q1 the MSB
        # of a 2-qubit register, the embedding equals the raw matrix.
        u = _embed(g.ECR_MAT, (1, 0), 2)
        assert np.allclose(u, g.ECR_MAT)

    def test_embed_swapped_qubits(self):
        u01 = _embed(g.CX_MAT, (0, 1), 2)
        u10 = _embed(g.CX_MAT, (1, 0), 2)
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.allclose(u10, swap @ u01 @ swap)

    def test_three_qubit_circuit_against_kron(self):
        c = Circuit(3)
        c.h(0)
        c.cx(0, 1)
        c.cx(1, 2)
        u = c.unitary()
        state = u @ np.eye(8)[:, 0]
        # GHZ state: |000> + |111>
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        assert allclose_up_to_global_phase(
            state.reshape(-1, 1), expected.reshape(-1, 1)
        )
