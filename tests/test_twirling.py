"""Pauli twirling tests (paper Sec. III A / Fig. 2)."""

import numpy as np
import pytest

from repro.circuits import Circuit, gates as g
from repro.circuits.euler import euler_angles
from repro.pauli import apply_twirl
from repro.pauli.twirling import sample_layer_twirl
from repro.utils.linalg import allclose_up_to_global_phase
from repro.utils.rng import as_generator


def ecr_circuit():
    circ = Circuit(3)
    circ.h(0)
    circ.h(1)
    circ.h(2)
    circ.ecr(0, 1, new_moment=True)
    circ.rz(0.3, 2, new_moment=True)
    circ.ecr(1, 2, new_moment=True)
    circ.append_moment([])
    return circ


class TestLogicalEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_ecr_twirl_preserves_unitary(self, seed):
        circ = ecr_circuit()
        twirled, _record = apply_twirl(circ, seed=seed)
        assert allclose_up_to_global_phase(
            twirled.unitary(), circ.unitary(), atol=1e-7
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_canonical_twirl_preserves_unitary(self, seed):
        circ = Circuit(2)
        circ.append_moment([])
        circ.can(0.4, 0.3, 0.2, 0, 1, new_moment=True)
        circ.append_moment([])
        twirled, _record = apply_twirl(circ, seed=seed)
        assert allclose_up_to_global_phase(
            twirled.unitary(), circ.unitary(), atol=1e-7
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_rzz_twirl_preserves_unitary(self, seed):
        circ = Circuit(2)
        circ.append_moment([])
        circ.rzz(0.7, 0, 1, new_moment=True)
        circ.append_moment([])
        twirled, _record = apply_twirl(circ, seed=seed)
        assert allclose_up_to_global_phase(
            twirled.unitary(), circ.unitary(), atol=1e-7
        )


class TestRecord:
    def test_frames_cover_2q_layers(self):
        circ = ecr_circuit()
        _twirled, record = apply_twirl(circ, seed=0)
        assert set(record.frames) == {1, 3}

    def test_idle_qubits_twirled_with_self_inverse(self):
        circ = ecr_circuit()
        _twirled, record = apply_twirl(circ, seed=0)
        frame = record.frames[1]
        # Qubit 2 idles in the first ECR layer: pre == post.
        pre, post = frame[2]
        assert pre == post

    def test_default_labels_identity(self):
        circ = ecr_circuit()
        _twirled, record = apply_twirl(circ, seed=0)
        assert record.pre_label(99, 0) == "I"
        assert record.post_label(99, 0) == "I"


class TestSampleLayerTwirl:
    def test_symmetric_gate_uses_correlated_pair(self):
        circ = Circuit(2)
        circ.can(0.1, 0.2, 0.3, 0, 1)
        rng = as_generator(5)
        frame = sample_layer_twirl(circ.moments[0], 2, rng)
        (pre_a, post_a), (pre_b, post_b) = frame[0], frame[1]
        assert pre_a == pre_b == post_a == post_b

    def test_untwirlable_gate_raises(self):
        circ = Circuit(2)
        bad = g.Gate("iswap", 2, matrix=np.eye(4))
        circ.append(bad, [0, 1])
        with pytest.raises(ValueError):
            sample_layer_twirl(circ.moments[0], 2, as_generator(0))


class TestMaterialization:
    def test_twirl_paulis_tagged_in_empty_layers(self):
        circ = ecr_circuit()
        twirled, _record = apply_twirl(circ, seed=2)
        # Layer 2 (between the ECRs) hosts post- and pre-twirl content.
        tags = {inst.tag for inst in twirled.moments[2]}
        assert "twirl" in tags or len(twirled.moments[2]) == 0

    def test_fusion_into_existing_1q_gate(self):
        circ = Circuit(2)
        circ.h(0)
        circ.h(1)
        circ.ecr(0, 1, new_moment=True)
        circ.append_moment([])
        twirled, record = apply_twirl(circ, seed=1)
        # Any pre-twirl on qubit 0 must have been fused into the H slot:
        # moment 0 still holds exactly one instruction per qubit.
        assert len(twirled.moments[0]) <= 2
        assert allclose_up_to_global_phase(
            twirled.unitary(), circ.unitary(), atol=1e-7
        )

    def test_fused_gates_are_memoized(self):
        """Fusing the same (gate, Pauli, position) returns one shared ``u``
        gate with a read-only matrix, with the bits of fusing afresh."""
        circ = Circuit(2)
        circ.h(0)
        circ.append(g.u(0.3, 0.2, 0.1), [1])
        circ.ecr(0, 1, new_moment=True)
        circ.append_moment([])
        fused = 0
        for seed in range(6):
            first, record = apply_twirl(circ, seed=seed)
            again, _record = apply_twirl(circ, seed=seed)
            for qubit, host in enumerate(circ.moments[0]):
                gate = first.moments[0].instruction_on(qubit).gate
                pre = record.pre_label(1, qubit)
                if pre == "I":
                    assert gate is host.gate
                    continue
                fused += 1
                assert gate is again.moments[0].instruction_on(qubit).gate
                assert not gate.matrix.flags.writeable
                angles = euler_angles(g.PAULI_MATRICES[pre] @ host.gate.matrix)
                fresh = g.u(angles.theta, angles.phi, angles.lam)
                assert gate.params == fresh.params
                assert gate.matrix.tobytes() == fresh.matrix.tobytes()
        assert fused > 0

    def test_missing_host_layer_raises(self):
        circ = Circuit(2)
        circ.ecr(0, 1)  # 2q layer at moment 0: nowhere to put pre-twirl
        with pytest.raises(ValueError):
            apply_twirl(circ, seed=0)


class TestStatisticalScrambling:
    def test_twirl_averages_coherent_error_to_decay(self, coherent2, one_shot):
        """Averaged over twirls, a coherent ZZ error damps rather than
        rotates the signal: the mean over realizations of <X0> lies strictly
        between the extremes of the untwirled oscillation."""
        from repro.runtime import Task, run

        circ = Circuit(2)
        circ.h(0)
        circ.h(1)
        circ.ecr(0, 1, new_moment=True)  # identity logic, twirl slots between
        circ.append_moment([])
        circ.ecr(0, 1, new_moment=True)
        circ.append_moment([])
        values = []
        for seed in range(12):
            twirled, _ = apply_twirl(circ, seed=seed)
            res = run(Task(twirled, observables={"x1": "XI"}), coherent2, options=one_shot)[0]
            values.append(res.values["x1"])
        assert np.std(values) > 0.0  # different twirls genuinely differ
