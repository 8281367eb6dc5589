"""Application circuit tests: Ising, Heisenberg, dynamic Bell, Floquet-6."""


import numpy as np
import pytest
from scipy.linalg import expm

from conftest import keep_only
from repro.apps import (
    bell_dynamic_circuit,
    bell_target_bits,
    boundary_xx_label,
    compensated_circuit,
    dynamic_device,
    equivalent_cnot_count,
    equivalent_cnot_depth,
    floquet6_circuit,
    floquet6_device,
    heisenberg_circuit,
    heisenberg_device,
    ideal_boundary_xx,
    ising_circuit,
    ising_device,
    probe_target_bits,
    ring_edge_layers,
    site_z_label,
)
from repro.apps.heisenberg import heisenberg_params
from repro.circuits import gates as g
from repro.runtime import Task, run
from repro.sim import SimOptions
from repro.utils.linalg import allclose_up_to_global_phase


class TestIsing:
    def test_boundary_label(self):
        assert boundary_xx_label(6) == "XIIIIX"

    def test_requires_even_size(self):
        with pytest.raises(ValueError):
            ising_circuit(5, 1)

    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
    def test_ideal_alternation(self, steps, one_shot):
        device = ising_device(6).ideal()
        circ = ising_circuit(6, steps)
        task = Task(circ, observables={"xx": boundary_xx_label(6)})
        res = run(task, device, options=one_shot)[0]
        assert res["xx"] == pytest.approx(ideal_boundary_xx(steps), abs=1e-9)

    def test_boundary_idles_in_odd_layer(self):
        circ = ising_circuit(6, 1)
        odd_layer = next(
            m
            for m in circ.moments
            if m.has_two_qubit_gate and 0 not in m.qubits
        )
        assert 5 not in odd_layer.qubits

    def test_layer_counts(self):
        circ = ising_circuit(8, 2)
        assert circ.count_gates(name="ecr") == 2 * (4 + 3)


class TestHeisenberg:
    def test_ring_edge_layers_are_matchings(self):
        layers = ring_edge_layers(12)
        assert len(layers) == 3
        for layer in layers:
            qubits = [q for e in layer for q in e]
            assert len(qubits) == len(set(qubits))
        all_edges = {tuple(sorted(e)) for layer in layers for e in layer}
        assert len(all_edges) == 12

    def test_ring_size_must_divide_by_three(self):
        with pytest.raises(ValueError):
            ring_edge_layers(10)

    def test_cnot_accounting_matches_paper(self):
        assert equivalent_cnot_count(12, 5) == 180
        assert equivalent_cnot_depth(5) == 45

    def test_site_label(self):
        assert site_z_label(6, 2) == "IIIZII"

    def test_trotter_converges_to_exact(self, one_shot):
        """Fine Trotter steps approach exp(-iHt) from direct exponentiation."""
        n = 6
        j, total_t = 0.4, 1.0
        device = heisenberg_device(n).ideal()
        obs = {"z": site_z_label(n, 2)}

        # Exact evolution of the Heisenberg ring (eq. 7, J_x=J_y=J_z=j).
        dim = 2**n
        ham = np.zeros((dim, dim), dtype=complex)
        paulis = {"X": g.X_MAT, "Y": g.Y_MAT, "Z": g.Z_MAT}
        for i in range(n):
            k = (i + 1) % n
            for p in "XYZ":
                ops = [np.eye(2)] * n
                ops[n - 1 - i] = paulis[p]
                ops[n - 1 - k] = paulis[p]
                term = ops[0]
                for o in ops[1:]:
                    term = np.kron(term, o)
                ham += -0.5 * j * term
        psi0 = np.zeros(dim, dtype=complex)
        excited_index = (1 << 0) | (1 << 3)
        psi0[excited_index] = 1.0
        psi_t = expm(-1j * ham * total_t) @ psi0
        z2 = np.kron(np.eye(2 ** (n - 3)), np.kron(g.Z_MAT, np.eye(4)))
        exact = float((psi_t.conj() @ z2 @ psi_t).real)

        errors = []
        for steps in (2, 8):
            circ = heisenberg_circuit(
                n, steps, coupling=j, dt=total_t / steps, excited=(0, 3)
            )
            res = run(Task(circ, observables=obs), device, options=one_shot)[0]
            errors.append(abs(res["z"] - exact))
        assert errors[1] < errors[0]  # finer Trotter is closer
        assert errors[1] < 0.05

    def test_zero_steps_keeps_excitations(self, one_shot):
        device = heisenberg_device(12).ideal()
        circ = heisenberg_circuit(12, 0)
        task = Task(circ, observables={"z0": site_z_label(12, 0)})
        res = run(task, device, options=one_shot)[0]
        assert res["z0"] == pytest.approx(-1.0)  # site 0 starts excited


class TestHeisenbergParams:
    def test_isotropic(self):
        a, b, c = heisenberg_params(1.0, 1.0, 1.0, 0.6)
        assert a == b == c == pytest.approx(0.3)

    def test_step_unitary_matches_exponential(self):
        j, dt = 0.8, 0.5
        a, b, c = heisenberg_params(j, j, j, dt)
        xx = np.kron(g.X_MAT, g.X_MAT)
        yy = np.kron(g.Y_MAT, g.Y_MAT)
        zz = np.kron(g.Z_MAT, g.Z_MAT)
        target = expm(1j * (j * dt / 2) * (xx + yy + zz))
        assert allclose_up_to_global_phase(
            g.canonical_matrix(a, b, c), target, atol=1e-9
        )


class TestDynamicBell:
    def test_ideal_fidelity_one(self):
        device = dynamic_device().ideal()
        opts = SimOptions(shots=16, seed=1)
        task = Task(bell_dynamic_circuit(), bit_targets={"f": bell_target_bits()})
        res = run(task, device, options=opts)[0]
        assert res["f"] == pytest.approx(1.0)

    def test_circuit_has_dynamics(self):
        assert bell_dynamic_circuit().has_dynamics()

    def test_compensation_restores_fidelity(self):
        device = dynamic_device()
        target = {"f": bell_target_bits()}
        bare, fixed = run(
            [
                Task(bell_dynamic_circuit(), bit_targets=target),
                Task(compensated_circuit(device), bit_targets=target),
            ],
            keep_only(device, "coherent"),
            options=SimOptions(shots=64, seed=2),
        )
        assert fixed["f"] > bare["f"] + 0.2
        assert fixed["f"] > 0.95

    def test_wrong_estimate_underperforms_true(self):
        device = dynamic_device()
        opts = SimOptions(shots=96, seed=3)
        at_true, far_off = run(
            [
                Task(
                    compensated_circuit(device, feedforward_estimate=estimate),
                    bit_targets={"f": bell_target_bits()},
                )
                for estimate in (1150.0, 3000.0)
            ],
            device,
            options=opts,
        )
        assert at_true["f"] > far_off["f"]


class TestFloquet6:
    def test_ideal_p00_stays_one(self, one_shot):
        device = floquet6_device().ideal()
        for steps in (0, 1, 3):
            circ = floquet6_circuit(steps)
            task = Task(circ, bit_targets={"p": probe_target_bits()})
            res = run(task, device, options=one_shot)[0]
            assert res["p"] == pytest.approx(1.0, abs=1e-9)

    def test_contains_both_contexts(self):
        circ = floquet6_circuit(1)
        a_layers = [
            m for m in circ.moments
            if sum(1 for i in m if i.gate.name == "ecr") == 2
        ]
        # A-block: controls 1 and 2 adjacent.
        controls = sorted(i.qubits[0] for i in a_layers[0] if i.gate.name == "ecr")
        assert controls == [1, 2]
        b_layers = [
            m for m in circ.moments
            if sum(1 for i in m if i.gate.name == "ecr") == 1
        ]
        # B-block: probes 1, 2 idle together.
        assert 1 not in b_layers[0].qubits and 2 not in b_layers[0].qubits


class TestConditionalCompensation:
    """The paper's Fig. 9b construction: corrections on the conditional."""

    def test_matches_full_ca_ec_exactly(self):
        from repro.apps import (
            bell_dynamic_circuit,
            compensated_circuit,
            conditionally_compensated_circuit,
            dynamic_device,
        )

        device = dynamic_device()
        target = {"f": bell_target_bits()}
        full, cond = run(
            [
                Task(compensated_circuit(device), bit_targets=target),
                Task(conditionally_compensated_circuit(device), bit_targets=target),
            ],
            keep_only(device, "coherent"),
            options=SimOptions(shots=128, seed=3),
        )
        assert cond["f"] == pytest.approx(full["f"], abs=0.02)
        assert cond["f"] > 0.99

    def test_no_two_qubit_gate_touches_aux_in_window(self):
        """During the measurement + feedforward window the aux is being
        read out: no compensation gate may act on it there (compensations in
        the later readout stage are fine — the aux is free again)."""
        from repro.apps import AUX, conditionally_compensated_circuit, dynamic_device

        device = dynamic_device()
        circ = conditionally_compensated_circuit(device)
        measure_index = next(
            i for i, m in enumerate(circ.moments) if m.has_measurement
        )
        ff_index = next(
            i
            for i, m in enumerate(circ.moments)
            if any(
                inst.condition is not None and inst.gate.name == "x"
                for inst in m
            )
        )
        for moment in circ.moments[measure_index:ff_index + 1]:
            for inst in moment:
                if inst.gate.num_qubits == 2:
                    assert AUX not in inst.qubits

    def test_conditional_corrections_present(self):
        from repro.apps import conditionally_compensated_circuit, dynamic_device

        circ = conditionally_compensated_circuit(dynamic_device())
        conditioned_rz = [
            inst
            for inst in circ.instructions()
            if inst.condition is not None and inst.gate.name == "rz"
        ]
        assert len(conditioned_rz) == 2  # one per data qubit

    def test_sweep_still_peaks_at_true_time(self):
        from repro.apps import (
            bell_target_bits,
            conditionally_compensated_circuit,
            dynamic_device,
        )

        device = dynamic_device()
        opts = SimOptions(shots=100, seed=4)
        values = {}
        for estimate in (0.0, 1150.0, 2800.0):
            circ = conditionally_compensated_circuit(
                device, feedforward_estimate=estimate
            )
            res = run(Task(circ, bit_targets={"f": bell_target_bits()}), device, options=opts)[0]
            values[estimate] = res["f"]
        assert values[1150.0] > values[0.0]
        assert values[1150.0] > values[2800.0]
