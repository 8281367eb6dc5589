"""Shared fixtures: small devices, their noise-source-only copies, and the
reference workload the plan and distributed test modules pin bit-identity
against."""

import math
from dataclasses import replace

import pytest

from repro import CADD, CAEC, Circuit, Pipeline, Task
from repro.device import linear_chain, ring, synthetic_device
from repro.sim import SimOptions


# -- shared plan test workload ----------------------------------------------
#
# Used by tests/test_plan.py and tests/test_distributed.py: one definition so
# the two suites can never drift apart in what "bit-identical" means.


def layered_circuit(num_qubits: int = 4, layers: int = 2) -> Circuit:
    circ = Circuit(num_qubits)
    for q in range(num_qubits):
        circ.h(q, new_moment=(q == 0))
    for _ in range(layers):
        circ.can(0.3, 0.2, 0.4, 0, 1, new_moment=True)
        circ.append_moment([])
        circ.can(0.1, 0.5, 0.2, 2, 3, new_moment=True)
        circ.append_moment([])
    return circ


OBS = {"x2": "IXII", "x3": "XIII"}


def det_pipeline() -> Pipeline:
    """A deterministic (twirl-free) recipe: one compile per task."""
    return Pipeline([CADD(), CAEC()])


def mixed_tasks():
    """Stochastic + deterministic + direct tasks in one batch."""
    circ = layered_circuit()
    return [
        Task(circ, observables=OBS, pipeline="ca_ec+dd", realizations=3, seed=11),
        Task(circ, observables=OBS, pipeline=det_pipeline(), realizations=2,
             seed=12),
        Task(circ, observables=OBS, seed=13),
        Task(circ, bit_targets={"f": {0: 0}}, pipeline="ca_dd", realizations=2,
             seed=14),
    ]


def batch_signature(batch):
    return [(r.values, r.errors, r.shots, r.realizations) for r in batch]


#: The calibration values that switch each noise source off (the coherent
#: source also drops ``nnn_zz``). A zeroed source draws nothing.
SOURCES = {
    "coherent": dict(zz_rate=0.0, stark_on_first=0.0, stark_on_second=0.0, measure_stark=0.0),
    "stochastic": dict(quasistatic_sigma=0.0, parity_delta=0.0),
    "dephasing": dict(t2=math.inf),
    "amplitude_damping": dict(t1=math.inf),
    "gate_errors": dict(p1=0.0, p2=0.0),
}


def keep_only(device, *sources):
    """``device`` with every noise source not named in ``sources`` zeroed.

    ``"stochastic"`` is the slow (quasi-static and parity) detuning. Without
    ``"amplitude_damping"`` the dephasing rate is ``1 / t2`` in full.
    """
    values = {}
    for name, off in SOURCES.items():
        if name not in sources:
            values.update(off)
    quiet = device.with_params(**values)
    return quiet if "coherent" in sources else replace(quiet, nnn_zz={})


@pytest.fixture(autouse=True)
def restore_defaults():
    """Put every settable runtime default back after each test.

    A CLI call configures ``workers`` to the CPU count (``--workers``'
    default); without this, later tests would run on the process pool.
    """
    import repro.runtime as rt

    settings = ("workers", "backend", "dist_workers")
    before = {name: getattr(rt, f"default_{name}")() for name in settings}
    yield
    rt.configure(**before)


@pytest.fixture(autouse=True)
def drop_worker_pool():
    """Shut the interpreter's process pool down after each test.

    Pool workers see module state as of the pool's start, so a pool kept
    across tests would run later tests' units under the monkeypatches of
    the test that started it.
    """
    yield
    from repro.runtime import distributed

    distributed.drop_pool()


@pytest.fixture
def chain2():
    return synthetic_device(linear_chain(2), name="chain2", seed=101)


@pytest.fixture
def chain3():
    return synthetic_device(linear_chain(3), name="chain3", seed=102)


@pytest.fixture
def chain4():
    return synthetic_device(linear_chain(4), name="chain4", seed=103)


@pytest.fixture
def chain6():
    return synthetic_device(linear_chain(6), name="chain6", seed=104)


@pytest.fixture
def ring6():
    return synthetic_device(ring(6), name="ring6", seed=105)


@pytest.fixture
def ideal2(chain2):
    """``chain2`` with no noise at all: exercises only the ideal unitaries."""
    return chain2.ideal()


@pytest.fixture
def coherent2(chain2):
    """``chain2`` with its static coherent errors only (deterministic)."""
    return keep_only(chain2, "coherent")


@pytest.fixture
def one_shot():
    """One shot is exact on a device without stochastic noise."""
    return SimOptions(shots=1, seed=0)


@pytest.fixture
def noisy_options():
    """Full noise with a modest shot count for statistical assertions."""
    return SimOptions(shots=32, seed=7)
