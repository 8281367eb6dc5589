"""Quickstart: suppress correlated noise in a small layered circuit.

Builds a 4-qubit circuit with two entangling layers (leaving idle neighbors
each time — the context that breeds correlated ZZ errors), then compares
the uncompensated result against each compilation strategy from the paper
using the batched runtime: one ``run()`` call executes every strategy on
the vectorized backend (all shots of a task evolve as one batched array —
bit-for-bit identical to the scalar ``trajectory`` backend, just faster),
fanned out across worker processes, with seed-for-seed deterministic results.

Run:  python examples/quickstart.py
"""

from repro import (
    CADD,
    CAEC,
    Circuit,
    Pipeline,
    SimOptions,
    Task,
    Twirl,
    linear_chain,
    run,
    synthetic_device,
)

# --- 1. a device: 4 qubits in a chain with synthetic IBM-like calibration ---
device = synthetic_device(linear_chain(4), name="demo", seed=7)
print(f"device: {device.name}, ZZ(0,1) = {device.zz_rate(0, 1) / 1e-6:.1f} kHz")

# --- 2. a layered circuit: Heisenberg-style interactions with idle gaps ----
circuit = Circuit(4)
for q in range(4):
    circuit.h(q, new_moment=(q == 0))
for _ in range(2):
    circuit.can(0.3, 0.2, 0.4, 0, 1, new_moment=True)  # qubits 2,3 idle
    circuit.append_moment([])
    circuit.can(0.1, 0.5, 0.2, 2, 3, new_moment=True)  # qubits 0,1 idle
    circuit.append_moment([])

observables = {"<X2>": "IXII", "<X3>": "XIII"}

# --- 3. the noiseless reference ---------------------------------------------
ideal = run(
    Task(circuit, observables=observables, device=device.ideal()),
    options=SimOptions(shots=1, seed=0),  # a noise-free device needs one shot
).results[0]
print("\nideal:", {k: round(v, 4) for k, v in ideal.items()})

# --- 4. compare suppression strategies in ONE batched, parallel run ---------
strategies = ("none", "dd", "staggered_dd", "ca_dd", "ca_ec", "ca_ec+dd")
batch = run(
    [
        Task(circuit, observables=observables, pipeline=strategy,
             realizations=10, seed=1, name=strategy)
        for strategy in strategies
    ],
    device,
    options=SimOptions(shots=32),
    backend="vectorized",  # same bits as "trajectory", batched evolution
    workers=4,
)
for strategy in strategies:
    result = batch[strategy]
    error = sum(abs(result[k] - ideal[k]) for k in observables)
    values = {k: round(v, 4) for k, v in result.items()}
    print(f"{strategy:>14s}: {values}   total |error| = {error:.4f}")
print(f"\n{batch!r}")

# --- 5. custom pipelines compose passes directly ----------------------------
custom = Pipeline([Twirl(), CADD(), CAEC()], name="custom")
result = run(
    Task(circuit, observables=observables, pipeline=custom,
         realizations=10, seed=1),
    device,
    options=SimOptions(shots=32),
).results[0]
print(f"\ncustom {custom.name} pipeline:",
      {k: round(v, 4) for k, v in result.items()})

print(
    "\nExpected ordering: none > dd > staggered_dd >= ca_dd >= ca_ec;"
    " the combined strategy is best."
)
