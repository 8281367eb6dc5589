"""Floquet Ising chain at the Clifford point (paper Fig. 6).

The boundary correlation <X0 X5> should alternate between +1 and -1 every
Floquet step. Idle periods at the chain boundary accumulate coherent Z/ZZ
errors that wash the signal out; CA-EC and CA-DD recover it.

Every (strategy, step) point is one runtime Task; the whole table is a
single batched run(), fanned out across worker processes.

Run:  python examples/ising_floquet.py
"""

from repro.apps import boundary_xx_label, ideal_boundary_xx, ising_circuit, ising_device
from repro.runtime import Task, run
from repro.sim import SimOptions

NUM_QUBITS = 6
STEPS = range(0, 6)
STRATEGIES = ("none", "ca_ec", "ca_dd")

def main() -> None:
    device = ising_device(NUM_QUBITS, seed=21)
    observable = {"xx": boundary_xx_label(NUM_QUBITS)}

    batch = run(
        [
            Task(
                ising_circuit(NUM_QUBITS, depth),
                observables=observable,
                pipeline=strategy,
                realizations=6,
                seed=100 + depth,
                name=f"{strategy}/d{depth}",
            )
            for strategy in STRATEGIES
            for depth in STEPS
        ],
        device,
        options=SimOptions(shots=24),
        workers=4,
    )

    print("step  ideal   none     ca_ec    ca_dd")
    for depth in STEPS:
        row = [f"{ideal_boundary_xx(depth):+.0f}"]
        row += [f"{batch[f'{s}/d{depth}']['xx']:+.3f}" for s in STRATEGIES]
        print(f"{depth:4d}  {row[0]:>5s}  {row[1]}   {row[2]}   {row[3]}")

    print(f"\n{batch!r}")
    print(
        "The suppressed columns should track the alternating ideal signal"
        " noticeably better than the twirl-only baseline."
    )


if __name__ == "__main__":
    main()
