"""Vectorized backend: batched throughput with bit-for-bit reproducibility.

Runs the same seeded Ramsey workload (paper Fig. 3, case I) on the scalar
``trajectory`` backend and the batched ``vectorized`` backend, then shows
the two properties that make the vectorized engine safe to use everywhere:

1. the results are bit-for-bit identical — not merely statistically
   compatible — because both engines consume the same noise draws from the
   same per-task RNG streams in the same order;
2. sharding the shot axis across ``workers`` threads (each worker count
   cuts it into different chunks) changes wall time, never values.

Run:  python examples/vectorized_throughput.py
"""

import time

from repro import SimOptions, linear_chain, run, synthetic_device
from repro.benchmarking.ramsey import CASE_I, ramsey_task

device = synthetic_device(linear_chain(CASE_I.num_qubits), name="demo", seed=1003)
task = ramsey_task(CASE_I, device, depth=16, strategy="staggered_dd", seed=1)
options = SimOptions(shots=1024)

# --- 1. same task, two engines, same bits -----------------------------------
results = {}
for backend in ("trajectory", "vectorized"):
    start = time.perf_counter()
    results[backend] = run(task, device, options=options, backend=backend)[0]
    elapsed = time.perf_counter() - start
    print(f"{backend:>10s}: f = {results[backend]['f']!r}  ({elapsed:.2f} s, "
          f"{options.shots / elapsed:,.0f} shots/s)")
assert results["trajectory"].values == results["vectorized"].values
print("bit-for-bit identical: True")

# --- 2. sharding is invisible ------------------------------------------------
reference = results["vectorized"]
for workers in (2, 4):
    sharded = run(task, device, options=options, backend="vectorized", workers=workers)[0]
    assert sharded.values == reference.values
    print(f"workers={workers}: same bits")
