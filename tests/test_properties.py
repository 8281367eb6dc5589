"""Hypothesis property tests on compiler-wide invariants.

These run the full pipeline on randomly generated layered circuits and
random synthetic devices, checking the properties that hold by construction:

* every DD flavor preserves the circuit unitary (twirl off, nets identity);
* CA-EC exactly restores the ideal expectation under static coherent noise
  whenever its compensations can all be realized;
* CA-DD colorings never give two crosstalk-adjacent idle qubits the same
  Walsh sequence;
* compilation never changes the number of logical 2q gates.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, schedule
from repro.compiler import (
    apply_aligned_dd,
    apply_ca_dd,
    apply_ca_ec,
    apply_staggered_dd,
)
from repro.device import linear_chain, synthetic_device
from repro.runtime import Task, pipeline_for, run
from repro.sim import SimOptions
from repro.utils.linalg import allclose_up_to_global_phase


NUM_QUBITS = 4

# A layered circuit description: a list of layers, each either a 1q layer
# (list of (qubit, angle) rz/h choices) or a 2q layer (one can/ecr gate).
layer_strategy = st.one_of(
    st.tuples(
        st.just("2q"),
        st.sampled_from(["can", "ecr"]),
        st.integers(0, NUM_QUBITS - 2),
        st.floats(-1.0, 1.0, allow_nan=False),
    ),
    st.tuples(
        st.just("1q"),
        st.lists(
            st.tuples(st.integers(0, NUM_QUBITS - 1), st.floats(-3.0, 3.0, allow_nan=False)),
            max_size=3,
        ),
    ),
)

circuit_strategy = st.lists(layer_strategy, min_size=1, max_size=5)
seed_strategy = st.integers(0, 10_000)


def build_layered(description):
    circ = Circuit(NUM_QUBITS)
    circ.append_moment([])
    for layer in description:
        if layer[0] == "2q":
            _kind, gate, start, angle = layer
            if gate == "can":
                circ.can(angle, 0.2, 0.3, start, start + 1, new_moment=True)
            else:
                circ.ecr(start, start + 1, new_moment=True)
            circ.append_moment([])
        else:
            _kind, ops = layer
            seen = set()
            instructions = []
            from repro.circuits import gates as g
            from repro.circuits.circuit import Instruction

            for qubit, angle in ops:
                if qubit in seen:
                    continue
                seen.add(qubit)
                instructions.append(Instruction(g.u(0.4, angle, 0.1), (qubit,)))
            circ.append_moment(instructions)
            circ.append_moment([])
    return circ


@pytest.fixture(scope="module")
def device():
    return synthetic_device(linear_chain(NUM_QUBITS), seed=777)


class TestDDPreservesLogic:
    @given(circuit_strategy, seed_strategy)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_all_dd_flavors(self, description, seed):
        device = synthetic_device(linear_chain(NUM_QUBITS), seed=777)
        circ = build_layered(description)
        reference = circ.unitary()
        for pass_fn in (apply_aligned_dd, apply_staggered_dd):
            dressed = pass_fn(circ, device)
            assert allclose_up_to_global_phase(
                dressed.unitary(), reference, atol=1e-7
            )
        dressed, _report = apply_ca_dd(circ, device)
        assert allclose_up_to_global_phase(
            dressed.unitary(), reference, atol=1e-7
        )


class TestCAECExactness:
    @given(circuit_strategy)
    @settings(max_examples=20, deadline=None)
    def test_static_noise_fully_compensated(self, description):
        device = synthetic_device(linear_chain(NUM_QUBITS), seed=778)
        circ = build_layered(description)
        compensated, report = apply_ca_ec(circ, device)
        if report.blocked:
            return  # nothing to assert when compensation was impossible
        options = SimOptions(
            shots=1, stochastic=False, dephasing=False,
            amplitude_damping=False, gate_errors=False, seed=0,
        )
        observables = {
            f"x{q}": "".join(
                "X" if i == NUM_QUBITS - 1 - q else "I"
                for i in range(NUM_QUBITS)
            )
            for q in range(NUM_QUBITS)
        }
        ideal, got = run(
            [
                Task(circ, observables=observables, device=device.ideal()),
                Task(compensated, observables=observables),
            ],
            device,
            options=options,
        )
        # Explicit insertions are exact too (zero wall-clock stretch model);
        # everything should match to numerical precision.
        for key in observables:
            assert got[key] == pytest.approx(ideal[key], abs=1e-6), key


class TestColoringValidity:
    @given(circuit_strategy)
    @settings(max_examples=20, deadline=None)
    def test_no_adjacent_idles_share_color(self, description):
        device = synthetic_device(linear_chain(NUM_QUBITS), seed=779)
        circ = build_layered(description)
        _dressed, report = apply_ca_dd(circ, device)
        crosstalk_edges = set(device.crosstalk_edges())
        for index, coloring in report.colorings.items():
            for a, b in crosstalk_edges:
                if a in coloring.assigned and b in coloring.assigned:
                    assert coloring.colors[a] != coloring.colors[b], (
                        index,
                        a,
                        b,
                    )


class TestStructuralInvariants:
    @given(circuit_strategy, seed_strategy)
    @settings(max_examples=15, deadline=None)
    def test_logical_2q_gate_count_preserved(self, description, seed):
        device = synthetic_device(linear_chain(NUM_QUBITS), seed=780)
        circ = build_layered(description)
        logical = sum(
            1
            for inst in circ.instructions()
            if inst.gate.num_qubits == 2
        )
        for strategy in ("none", "ca_dd", "ca_ec", "ca_ec+dd"):
            compiled = pipeline_for(strategy).compile(circ, device, seed=seed)
            compiled_logical = sum(
                1
                for inst in compiled.instructions()
                if inst.gate.num_qubits == 2 and inst.tag != "compensation"
            )
            assert compiled_logical == logical, strategy

    @given(circuit_strategy, seed_strategy)
    @settings(max_examples=10, deadline=None)
    def test_compilation_never_shrinks_wallclock_accounting(self, description, seed):
        device = synthetic_device(linear_chain(NUM_QUBITS), seed=781)
        circ = build_layered(description)
        base = pipeline_for("none").compile(circ, device, seed=seed)
        combined = pipeline_for("ca_ec+dd").compile(circ, device, seed=seed)
        t_base = schedule(base, device.durations).total_duration
        t_combined = schedule(combined, device.durations).total_duration
        assert t_combined == pytest.approx(t_base)
