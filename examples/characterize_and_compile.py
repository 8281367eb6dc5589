"""Characterize, then compile: the full calibration-to-compensation loop.

The paper's compensation angles come from backend characterization data.
This example runs that loop inside the simulator: it *measures* the device's
always-on ZZ rates with conditional Ramsey experiments, builds a
calibration-estimated device model, compiles CA-EC against the measured
rates, and compares the result with the oracle-calibration compilation.

Run:  python examples/characterize_and_compile.py
"""

from math import inf

from repro.benchmarking import characterize_device, measure_zz_rate
from repro.circuits import Circuit, draw
from repro.compiler import apply_ca_ec
from repro.device import linear_chain, synthetic_device
from repro.runtime import Task, run
from repro.sim import SimOptions

device = synthetic_device(linear_chain(3), name="lab_device", seed=71)
# The protocol measures on a copy without T1/T2 decay or gate errors.
quiet = SimOptions(shots=64, seed=5)

# --- 1. characterize every coupled pair -------------------------------------
print("conditional-Ramsey ZZ characterization:")
for a, b in device.pairs:
    measured = measure_zz_rate(device, a, b, options=quiet)
    true = device.zz_rate(a, b)
    print(
        f"  pair ({a},{b}): measured {measured.rate / 1e-6:6.2f} kHz,"
        f" true {true / 1e-6:6.2f} kHz"
    )

estimated = characterize_device(device, options=quiet)

# --- 2. compile against the measured calibration -----------------------------
circuit = Circuit(3)
circuit.h(0)
circuit.h(1)
circuit.delay(700.0, 0, new_moment=True)
circuit.delay(700.0, 1)
circuit.append_moment([])

oracle, _ = apply_ca_ec(circuit, device)       # knows the true rates
measured_comp, _ = apply_ca_ec(circuit, estimated)  # knows only measurements

print("\ncompiled circuit (measured calibration):")
print(draw(measured_comp))

# --- 3. compare ---------------------------------------------------------------
# Compare on the static coherent errors alone: every other noise source is
# zeroed on a copy of the device, so one shot is exact.
coherent_only = device.with_params(
    quasistatic_sigma=0.0, parity_delta=0.0, t1=inf, t2=inf, p1=0.0, p2=0.0
)
obs = {"<X0>": "IIX", "<X1>": "IXI"}
# One batched run; the ideal reference rides along on its own device.
batch = run(
    [
        Task(circuit, observables=obs, device=device.ideal(), name="ideal"),
        Task(circuit, observables=obs, name="bare"),
        Task(oracle, observables=obs, name="CA-EC (oracle)"),
        Task(measured_comp, observables=obs, name="CA-EC (measured)"),
    ],
    coherent_only,
    options=SimOptions(shots=1, seed=0),
)

print("\n                ", "  ".join(obs))
for res in batch:
    print(f"{res.name:>18s}:", "  ".join(f"{res[k]:+.4f}" for k in obs))

print(
    "\nThe measured-calibration compilation matches the oracle to the"
    " characterization accuracy — the workflow a real backend runs."
)
