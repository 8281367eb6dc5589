"""Statistical grid: the vectorized engine against exact density-matrix physics.

Every named strategy compiles a few fixed-seed 4-qubit circuits (no
mid-circuit measurement) against the full device. Each compiled circuit
then runs on a copy of that device that keeps one noise source (the rest
zeroed, see ``SOURCES`` in ``conftest.py``), and on the full device, on the
``vectorized`` engine and on the exact ``density`` engine. The sampled mean
must lie within ``K`` of its own reported standard error of the exact
value. Noise-free-shot cells (coherent phases alone) have zero spread, so
there the two agree to the ``FLOOR``.

The density engine averages the slow (quasi-static and parity) detuning
per moment, which is exact only when a single moment carries time (its
module caveat); the cells with slow noise run the single-window circuits on
a device whose single-qubit layers take no time, so the delay window is the
circuit's only timed moment.

The device's noise is scaled up well past the paper's calibrations, so a
channel that is applied wrong moves values by many standard errors.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import SOURCES, keep_only
from repro.circuits import Circuit, gates as g
from repro.device import NoiseProfile, linear_chain, synthetic_device
from repro.runtime import STRATEGIES, Task, pipeline_for, run
from repro.sim import SimOptions

K = 4.0
FLOOR = 1e-9
SHOTS = 1000
KHZ = 1e-6
US = 1e3

DEVICE = synthetic_device(
    linear_chain(4),
    seed=7,
    profile=NoiseProfile(
        quasistatic_sigma_range=(20 * KHZ, 40 * KHZ),
        parity_delta_range=(10 * KHZ, 20 * KHZ),
        t1_range=(10 * US, 20 * US),
        t2_range=(8 * US, 15 * US),
        p1_range=(5e-3, 1e-2),
        p2_range=(2e-2, 5e-2),
    ),
)
WINDOW_DEVICE = replace(DEVICE, durations=replace(DEVICE.durations, oneq=0.0))
PAIRS = ((0, 1), (1, 2), (2, 3))

#: The noise sources each cell's device keeps.
CELLS = {**{name: (name,) for name in SOURCES}, "all": tuple(SOURCES)}


def _random_layer(circ, rng, new_moment):
    for q in range(circ.num_qubits):
        theta, phi, lam = rng.uniform(0, 2 * np.pi, 3)
        circ.append(g.u(theta, phi, lam), [q], new_moment=new_moment and q == 0)


def _ecr_with_idles(circ, rng, idle_range):
    a, b = PAIRS[rng.integers(len(PAIRS))]
    if rng.random() < 0.5:
        a, b = b, a
    circ.ecr(a, b, new_moment=True)
    for q in range(circ.num_qubits):
        if q not in (a, b):
            circ.delay(float(rng.uniform(*idle_range)), q)
    circ.append_moment([])  # the 1q slot twirling and CA-EC fill


def deep_circuit(seed, layers=3):
    """Random 1q layers around ``layers`` ECR moments with idle spectators."""
    rng = np.random.default_rng(seed)
    circ = Circuit(4)
    _random_layer(circ, rng, new_moment=False)
    for _ in range(layers):
        _ecr_with_idles(circ, rng, (300.0, 900.0))
    _random_layer(circ, rng, new_moment=True)
    return circ


def window_circuit(seed):
    """One ECR moment whose spectators idle, between random 1q layers."""
    rng = np.random.default_rng(seed)
    circ = Circuit(4)
    _random_layer(circ, rng, new_moment=False)
    _ecr_with_idles(circ, rng, (1500.0, 3000.0))
    _random_layer(circ, rng, new_moment=True)
    return circ


def observables(seed):
    rng = np.random.default_rng(seed)
    out = {}
    while len(out) < 4:
        label = "".join(rng.choice(list("IXYZ"), 4))
        if label != "IIII":
            out[label] = label
    return out


#: (circuit builder, seed, device): deep circuits, then single-window ones.
CIRCUITS = [(deep_circuit, s, DEVICE) for s in (1, 2)] + [
    (window_circuit, s, WINDOW_DEVICE) for s in (3, 4)
]


def _tasks(device, slow_noise):
    """Every named recipe's compile, against the full ``device``, of every
    circuit this device runs."""
    tasks = []
    for build, seed, circuit_device in CIRCUITS:
        if circuit_device is not device or (slow_noise and build is deep_circuit):
            continue
        circ = build(seed)
        for name in sorted(STRATEGIES):
            tasks.append(
                Task(
                    pipeline_for(name).compile(circ, device, seed=seed),
                    observables=observables(seed),
                    seed=100 + seed,
                    name=f"{build.__name__}({seed})/{name}",
                )
            )
    return tasks


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_vectorized_mean_matches_density(cell):
    sources = CELLS[cell]
    options = SimOptions(shots=SHOTS)
    checked = 0
    for device in (DEVICE, WINDOW_DEVICE):
        tasks = _tasks(device, slow_noise="stochastic" in sources)
        if not tasks:
            continue
        noisy = keep_only(device, *sources)
        exact = run(tasks, noisy, backend="density", options=options)
        sampled = run(tasks, noisy, backend="vectorized", options=options)
        for task, want, got in zip(tasks, exact, sampled):
            for key in task.observables:
                bound = K * got.errors[key] + FLOOR
                assert abs(got[key] - want[key]) <= bound, (
                    f"{task.name} under {cell}: {key} sampled {got[key]:+.6f} "
                    f"± {got.errors[key]:.2e}, exact {want[key]:+.6f}"
                )
                checked += 1
    assert checked >= 4 * len(STRATEGIES) * 2
