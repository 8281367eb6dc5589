"""Ablation benches for three design choices of the compiler and simulator
(the pipeline they sit in is described in ``docs/architecture.rst``):

* greedy low-color preference vs naive max-color assignment (pulse counts);
* pulse-stretched Rzz compensation vs a 2-CNOT synthesis (polarization
  retained after many compensations);
* simulator kernel throughput (moments/second on a 12-qubit state), the
  budget everything above runs on.
"""

import math

from repro.circuits import Circuit, gates as g, schedule
from repro.compiler import apply_ca_dd, dd_pulse_count
from repro.compiler.walsh import pulse_count
from repro.device import linear_chain, ring, synthetic_device
from repro.runtime import Task, pipeline_for, run
from repro.sim import SimOptions


def test_coloring_minimizes_pulses(benchmark, once):
    """CA-DD's greedy coloring uses near-minimal pulses on a bipartite chain."""
    device = synthetic_device(linear_chain(8), seed=61)
    circ = Circuit(8)
    circ.append_moment([])
    for q in range(8):
        circ.delay(500.0, q, new_moment=(q == 0))
    circ.append_moment([])

    def dress():
        dressed, report = apply_ca_dd(circ, device)
        return dressed, report

    dressed, report = once(benchmark, dress)
    used = dd_pulse_count(dressed)
    colors = {report.colorings[1].colors[q] for q in range(8)}
    worst_case = 8 * pulse_count(7)  # everyone on the deepest Walsh row
    print()
    print(f"pulses used: {used} (worst-case uniform w7: {worst_case})")
    print(f"colors used: {sorted(colors)}")
    assert used == 16  # two colors x two pulses x eight qubits
    assert used < worst_case / 3


def test_stretched_rzz_vs_two_cnot_cost(benchmark, once):
    """Explicit compensation via pulse stretching retains far more
    polarization than synthesizing each Rzz from two CNOTs."""
    # Gate errors only: every other noise source is zeroed on the device.
    device = synthetic_device(linear_chain(2), seed=62).with_params(
        zz_rate=0.0, stark_on_first=0.0, stark_on_second=0.0, measure_stark=0.0,
        quasistatic_sigma=0.0, parity_delta=0.0, t1=math.inf, t2=math.inf,
    )
    theta = 0.1
    opts = SimOptions(shots=400, seed=5)

    def build(use_stretched):
        circ = Circuit(2)
        circ.h(0)
        for _ in range(40):
            if use_stretched:
                circ.append(g.stretched_rzz(theta), [0, 1], new_moment=True)
            else:
                # 2-CNOT synthesis: CX . Rz . CX.
                circ.cx(0, 1, new_moment=True)
                circ.rz(theta, 1, new_moment=True)
                circ.cx(0, 1, new_moment=True)
        return circ

    def compare():
        stretched = run(Task(build(True), observables={"x": "IX"}), device, options=opts)
        synthesized = run(Task(build(False), observables={"x": "IX"}), device, options=opts)
        return stretched[0]["x"], synthesized[0]["x"]

    stretched, synthesized = once(benchmark, compare)
    print()
    print(f"polarization after 40 compensations: stretched={stretched:.3f} "
          f"2-CNOT={synthesized:.3f}")
    assert abs(stretched) > abs(synthesized) + 0.1


def test_simulator_kernel_throughput(benchmark):
    """Trajectories/second on the 12-qubit Heisenberg-scale workload."""
    device = synthetic_device(ring(12), seed=63)
    circ = Circuit(12)
    circ.append_moment([])
    for start in range(0, 12, 2):
        circ.can(0.3, 0.3, 0.3, start, start + 1, new_moment=(start == 0))
    circ.append_moment([])
    scheduled = schedule(circ, device.durations)
    opts = SimOptions(shots=8, seed=1)

    from repro.pauli import Pauli
    from repro.sim import Executor

    observable = {"z": Pauli.from_label("I" * 11 + "Z")}
    # Build the engine once so the benchmark times the trajectory kernel,
    # not scheduling + coherent accumulation setup.
    engine = Executor(scheduled, device, opts)

    result = benchmark(lambda: engine.expectations(observable))
    assert -1.0 <= result["z"] <= 1.0


def test_orientation_removes_case_iv(benchmark, once):
    """Ablation of the context-avoidance pass (paper's Conclusion):
    re-orienting ECR gates removes the ctrl-ctrl context entirely, so even
    plain CA-DD matches CA-EC on a layer that otherwise needs EC."""
    from repro.benchmarking import CASE_IV, build_case_circuit

    device = synthetic_device(linear_chain(4), seed=64)
    depth = 12
    opts = SimOptions(shots=12)

    def fidelity(strategy, orient):
        task = Task(
            build_case_circuit(CASE_IV, depth),
            bit_targets={"f": {1: 0, 2: 0}},
            pipeline=pipeline_for(strategy, orient=orient),
            realizations=8,
            seed=9,
        )
        return run(task, device, options=opts)[0].values["f"]

    def compare():
        return (
            fidelity("none", False),
            fidelity("none", True),
            fidelity("ca_dd", True),
        )

    bare, oriented, oriented_dd = once(benchmark, compare)
    print()
    print(f"case IV @ depth {depth}: bare={bare:.3f} "
          f"oriented={oriented:.3f} oriented+ca_dd={oriented_dd:.3f}")
    # Orientation alone removes the ctrl-ctrl ZZ context.
    assert oriented > bare
