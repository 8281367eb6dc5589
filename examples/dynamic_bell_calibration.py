"""Error compensation for dynamic circuits (paper Fig. 9).

Prepares a Bell state between two data qubits via mid-circuit measurement
of an auxiliary qubit plus classical feedforward. During the long readout
window the data qubits pick up large coherent ZZ / Stark-Z phases; CA-EC
cancels them — but the compensation angle depends on the *assumed* timing.
Sweeping the compiler's feedforward-time estimate traces a calibration
curve that peaks at the true hardware value. The bare baseline plus the
whole sweep execute as one batched runtime call, fanned out across worker
processes.

Run:  python examples/dynamic_bell_calibration.py
"""

import numpy as np

from repro.apps import bell_dynamic_circuit, bell_target_bits, compensated_circuit, dynamic_device
from repro.runtime import Task, run
from repro.sim import SimOptions

TRUE_FEEDFORWARD = 1150.0  # ns — what the hardware actually takes

def main() -> None:
    device = dynamic_device(feedforward_duration=TRUE_FEEDFORWARD)
    options = SimOptions(shots=150, seed=11)
    target = {"fidelity": bell_target_bits()}
    estimates = [float(e) for e in np.linspace(0.0, 3000.0, 13)]

    tasks = [Task(bell_dynamic_circuit(), bit_targets=target, name="bare")]
    tasks += [
        Task(
            compensated_circuit(device, feedforward_estimate=estimate),
            bit_targets=target,
            name=f"est{i}",
        )
        for i, estimate in enumerate(estimates)
    ]
    batch = run(tasks, device, options=options, workers=4)

    bare = batch["bare"]
    print(f"bare Bell fidelity: {bare['fidelity']:.3f}")
    print(f"true feedforward time: {TRUE_FEEDFORWARD:.0f} ns\n")

    print("tau_estimate (ns)   Bell fidelity")
    best = (0.0, 0.0)
    for i, estimate in enumerate(estimates):
        fidelity = batch[f"est{i}"]["fidelity"]
        if fidelity > best[1]:
            best = (estimate, fidelity)
        print(f"{estimate:14.0f}      {fidelity:.3f}")

    print(
        f"\npeak fidelity {best[1]:.3f} at tau = {best[0]:.0f} ns "
        f"({best[1] / max(bare['fidelity'], 1e-9):.1f}x over bare)"
    )
    print("The peak calibrates the feedforward time, as in the paper's Fig. 9c.")


if __name__ == "__main__":
    main()
