"""Trotterized Heisenberg ring with context-aware compiling (paper Fig. 7).

Simulates <Z2> dynamics of a 12-spin Heisenberg ring (3 canonical-gate
layers per Trotter step on the heavy-hex embedding) and estimates how much
error-mitigation sampling overhead each suppression strategy saves via the
global depolarizing model. All strategy curves execute as one batched
runtime call, fanned out across worker processes.

Run:  python examples/heisenberg_ring.py
"""

from repro.apps import (
    equivalent_cnot_count,
    equivalent_cnot_depth,
    heisenberg_circuit,
    heisenberg_device,
    site_z_label,
)
from repro.benchmarking import fit_global_depolarizing
from repro.runtime import Task, run
from repro.sim import SimOptions

NUM_QUBITS = 12
STEPS = [0, 1, 2, 3, 4]
SITE = 2
STRATEGIES = ("none", "dd", "ca_dd", "ca_ec")

device = heisenberg_device(NUM_QUBITS, seed=31)
observable = {"z": site_z_label(NUM_QUBITS, SITE)}
print(
    f"{NUM_QUBITS}-qubit ring, {equivalent_cnot_count(NUM_QUBITS, max(STEPS))} "
    f"equivalent CNOTs, CNOT depth {equivalent_cnot_depth(max(STEPS))}"
)

ideal_batch = run(
    [
        Task(heisenberg_circuit(NUM_QUBITS, d), observables=observable)
        for d in STEPS
    ],
    device.ideal(),
    options=SimOptions(shots=1, seed=0),  # noise-free: one shot is exact
)
ideal = [point["z"] for point in ideal_batch]
print("ideal <Z2>:", [round(v, 3) for v in ideal])

batch = run(
    [
        Task(
            heisenberg_circuit(NUM_QUBITS, depth),
            observables=observable,
            pipeline=strategy,
            realizations=6,
            seed=200 + depth,
            name=f"{strategy}/d{depth}",
        )
        for strategy in STRATEGIES
        for depth in STEPS
    ],
    device,
    options=SimOptions(shots=12),
    workers=4,
)

fits = {}
for strategy in STRATEGIES:
    curve = [batch[f"{strategy}/d{d}"]["z"] for d in STEPS]
    fits[strategy] = fit_global_depolarizing(STEPS, curve, ideal)
    print(f"{strategy:>8s} <Z2>:", [round(v, 3) for v in curve])

depth = STEPS[-1]
print("\nmitigation overhead at d =", depth)
for strategy, fit in fits.items():
    print(f"  {strategy:>8s}: {fit.overhead(depth):9.2f}  (lambda = {fit.rate:.4f})")
reference = fits["none"].overhead(depth)
for strategy in ("ca_dd", "ca_ec"):
    print(
        f"  {strategy} reduces overhead by "
        f"{reference / fits[strategy].overhead(depth):.2f}x over none"
    )
