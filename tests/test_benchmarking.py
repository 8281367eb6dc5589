"""Tests for the benchmarking protocols (Ramsey, LF, mitigation, FFT)."""


import numpy as np
import pytest

from repro.benchmarking import (
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    DepolarizingFit,
    LayerSpec,
    build_case_circuit,
    fit_global_depolarizing,
    measure_layer_fidelity,
    overhead_reduction,
    partition_layer,
    ramsey_task,
)
from repro.runtime import run
from repro.sim import SimOptions


class TestRamseyCircuits:
    def test_case1_structure(self):
        circ = build_case_circuit(CASE_I, depth=3, tau=400.0)
        assert circ.count_gates(name="delay") == 6
        assert circ.count_gates(name="h") == 4

    def test_case2_spectator_next_to_control(self):
        circ = build_case_circuit(CASE_II, depth=2)
        ecr = next(i for i in circ.instructions() if i.gate.name == "ecr")
        assert ecr.qubits == (1, 2)  # control is qubit 1, adjacent to probe 0

    def test_case3_spectator_next_to_target(self):
        circ = build_case_circuit(CASE_III, depth=2)
        ecr = next(i for i in circ.instructions() if i.gate.name == "ecr")
        assert ecr.qubits == (2, 1)  # target is qubit 1

    def test_case4_adjacent_controls(self):
        circ = build_case_circuit(CASE_IV, depth=2)
        controls = sorted(
            {i.qubits[0] for i in circ.instructions() if i.gate.name == "ecr"}
        )
        assert controls == [1, 2]

    def test_unknown_case_raises(self):
        from repro.benchmarking.ramsey import RamseyCase

        with pytest.raises(ValueError):
            build_case_circuit(RamseyCase("mystery", 2, (0,)), 1)

    def test_zero_depth_is_perfect(self, ideal2, one_shot):
        f = run(ramsey_task(CASE_I, ideal2, 0, "none"), options=one_shot)[0]["f"]
        assert f == pytest.approx(1.0)


class TestLayerFidelity:
    @pytest.fixture
    def small_spec(self):
        return LayerSpec(num_qubits=4, gates=(("ecr", 0, 1),))

    def test_partitioning(self, chain4, small_spec):
        partitions = partition_layer(small_spec, chain4)
        assert (0, 1) in partitions
        assert (2, 3) in partitions  # adjacent idle pair
        covered = sorted(q for p in partitions for q in p)
        assert covered == [0, 1, 2, 3]

    def test_partitions_disjoint(self, chain4, small_spec):
        partitions = partition_layer(small_spec, chain4)
        seen = set()
        for p in partitions:
            assert not (set(p) & seen)
            seen.update(p)

    def test_isolated_idle_single(self, chain3):
        spec = LayerSpec(num_qubits=3, gates=(("ecr", 0, 1),))
        partitions = partition_layer(spec, chain3)
        assert (2,) in partitions

    def test_ideal_layer_fidelity_is_one(self, small_spec, chain4):
        result = measure_layer_fidelity(
            small_spec,
            chain4.ideal(),
            "none",
            depths=(1, 2, 3),
            samples=2,
            options=SimOptions(shots=1, seed=0),
            seed=5,
        )
        assert result.layer_fidelity == pytest.approx(1.0, abs=1e-3)
        assert result.gamma == pytest.approx(1.0, abs=1e-2)

    def test_noise_lowers_fidelity(self, small_spec, chain4):
        result = measure_layer_fidelity(
            small_spec, chain4, "none",
            depths=(1, 2, 4), samples=3,
            options=SimOptions(shots=8, seed=1), seed=5,
        )
        assert result.layer_fidelity < 1.0
        assert result.gamma > 1.0

    def test_overhead_reduction_exponential(self):
        assert overhead_reduction(1.81, 1.48, 10) == pytest.approx(
            (1.81 / 1.48) ** 10
        )


class TestMitigationFit:
    def test_recovers_planted_model(self):
        depths = np.arange(6)
        ideal = np.cos(0.4 * depths)
        fit_true = DepolarizingFit(amplitude=0.92, rate=0.88)
        measured = [fit_true.scale(d) * v for d, v in zip(depths, ideal)]
        fit = fit_global_depolarizing(depths, measured, ideal)
        assert fit.rate == pytest.approx(0.88, abs=0.01)
        assert fit.amplitude == pytest.approx(0.92, abs=0.01)

    def test_overhead_is_inverse_square(self):
        fit = DepolarizingFit(amplitude=1.0, rate=0.9)
        assert fit.overhead(5) == pytest.approx(0.9 ** (-10))

    def test_rejects_zero_ideal(self):
        with pytest.raises(ValueError):
            fit_global_depolarizing([0, 1], [0.1, 0.1], [0.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_global_depolarizing([0, 1], [1.0], [1.0, 0.9])
