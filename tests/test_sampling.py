"""Noise-sampler tests: the bulk columnar sampler against a per-draw oracle.

:func:`repro.sim.sampling.sample_shot` draws each shot's column uniforms in
bulk and rewinds the generator on a triggered gate error. The oracle below
is the sequential per-draw loop that defines the stream order: one
``random()`` per draw site, one ``integers(high)`` right after each
triggered gate-error uniform. The sampler must reproduce its draws and leave
the generator in the same state, for every NumPy bit generator.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import Circuit, SimOptions, Task
from repro.circuits import schedule
from repro.device import linear_chain, synthetic_device
from repro.pauli import Pauli
from repro.runtime.run import compile_tasks
from repro.sim import Executor, NoiseBatch, VectorizedExecutor
from repro.sim.sampling import _PAULI_1Q, _PAULI_2Q, build_noise_plan, sample_shot
from repro.utils.rng import as_generator

BIT_GENERATORS = ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]


def layered_circuit(num_qubits: int = 4, layers: int = 2) -> Circuit:
    circ = Circuit(num_qubits)
    for q in range(num_qubits):
        circ.h(q, new_moment=(q == 0))
    for _ in range(layers):
        circ.cx(0, 1, new_moment=True)
        circ.append_moment([])
        circ.cx(2, 3, new_moment=True)
        circ.append_moment([])
    return circ


def measured_circuit() -> Circuit:
    """Mid-circuit measurements, idles and 1q/2q gates on two qubits."""
    circ = Circuit(2, num_clbits=2)
    circ.h(0)
    circ.x(1)
    circ.measure(0, 0, new_moment=True)
    circ.cx(0, 1, new_moment=True)
    circ.append_moment([])
    circ.measure(1, 1, new_moment=True)
    circ.h(1, new_moment=True)
    return circ


def oracle_shot(plan, rng):
    """The per-draw sampling loop, in stream order, as plain lists.

    It also checks the plan's column layout: every uniform's column is the
    position of its draw in the shot's stream after the detunings.
    """
    detunings = np.zeros(plan.num_qubits)
    for q, (sigma, delta) in enumerate(plan.detunings):
        if sigma > 0.0:
            detunings[q] += rng.normal(0.0, sigma)
        if delta > 0.0:
            detunings[q] += delta * (1 if rng.random() < 0.5 else -1)
    uniforms = []
    paulis = []

    def draw(col):
        assert col == len(uniforms)
        uniforms.append(rng.random())
        return uniforms[-1]

    for mp in plan.moments:
        for _qubit, _clbit, col in mp.measured:
            draw(col)
        for _q, p_z, gamma, flip_col, damp_col in mp.idles:
            if p_z > 0.0:
                draw(flip_col)
            if gamma > 0.0:
                draw(damp_col)
        for site in mp.gate_errors:
            high = len(_PAULI_2Q) if site.two_qubit else len(_PAULI_1Q)
            for r in range(site.repeats):
                slot = site.slot + r
                assert slot == len(paulis)
                assert plan.gate_highs[slot] == high
                u = draw(plan.gate_cols[slot])
                paulis.append(
                    int(rng.integers(high)) if u < plan.gate_probs[slot] else -1
                )
    assert len(uniforms) == plan.uniforms
    return detunings, uniforms, paulis


def with_gate_prob(plan, prob):
    """``plan`` with every gate-error probability forced to ``prob``."""
    if prob is None:
        return plan
    moments = tuple(
        replace(mp, gate_errors=tuple(replace(s, prob=prob) for s in mp.gate_errors))
        for mp in plan.moments
    )
    probs = np.full(plan.gate_probs.shape, prob)
    return replace(plan, moments=moments, gate_probs=probs)


def same_state(a, b):
    """Equality of two ``bit_generator.state`` dicts (which may hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def make_rng(name, seed):
    return np.random.Generator(getattr(np.random, name)(seed))


def _plans():
    device4 = synthetic_device(linear_chain(4), name="chain4", seed=104)
    device2 = synthetic_device(linear_chain(2), name="chain2", seed=101)
    dd_units = compile_tasks(
        [Task(layered_circuit(), observables={"z": "IIIZ"}, pipeline="ca_ec+dd",
              realizations=1, seed=3)],
        device4,
        SimOptions(shots=1),
    )[0].units
    layered = schedule(layered_circuit(), device4.durations)
    # The degenerate plans run on copies with one noise source zeroed.
    return {
        "layered": (layered, device4),
        "dd_repeats": (dd_units[0].scheduled, device4),
        "measured": (schedule(measured_circuit(), device2.durations), device2),
        "no_gate_sites": (layered, device4.with_params(p1=0.0, p2=0.0)),
        "no_detunings": (
            layered, device4.with_params(quasistatic_sigma=0.0, parity_delta=0.0)
        ),
        "no_idles": (layered, device4.with_params(t1=float("inf"), t2=float("inf"))),
    }


PLANS = _plans()


def build(name, prob):
    scheduled, device = PLANS[name]
    return with_gate_prob(build_noise_plan(scheduled, device), prob)


class TestPlanLayout:
    def test_dd_sites_take_consecutive_slots(self):
        plan = build("dd_repeats", None)
        sites = [s for mp in plan.moments for s in mp.gate_errors]
        assert any(s.repeats > 1 for s in sites)
        slot = 0
        for site in sites:
            assert site.slot == slot
            cols = plan.gate_cols[site.slot : site.slot + site.repeats]
            assert np.all(np.diff(cols) == 1)
            slot += site.repeats
        assert slot == plan.gate_cols.size

    def test_a_plan_ends_on_a_gate_column(self):
        # At probability 1 its last uniform triggers, so the rewind path
        # runs to the end of the stream.
        plan = build("measured", None)
        assert plan.gate_cols[-1] == plan.uniforms - 1

    @pytest.mark.parametrize(
        "name,empty",
        [("no_gate_sites", "gate_cols"), ("no_detunings", "detunings"),
         ("no_idles", "idles")],
    )
    def test_degenerate_plans(self, name, empty):
        plan = build(name, None)
        if empty == "gate_cols":
            assert plan.gate_cols.size == 0
        elif empty == "detunings":
            assert all(scale == (0.0, 0.0) for scale in plan.detunings)
            batch = NoiseBatch.empty(plan, 1)
            rng = as_generator(5)
            state = rng.bit_generator.state
            sample_shot(plan, rng, batch, 0)
            assert not batch.detunings.any()
            # No detuning draw: the first column uniform starts the stream.
            rng.bit_generator.state = state
            assert batch.uniforms[0, 0] == rng.random()
        else:
            assert all(not mp.idles for mp in plan.moments)


class TestBulkSamplerMatchesOracle:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("prob", [None, 0.3, 1.0])
    @pytest.mark.parametrize("name", sorted(PLANS))
    @pytest.mark.parametrize("buffered", [False, True])
    def test_bit_for_bit(self, bit_generator, prob, name, buffered):
        plan = build(name, prob)
        shots = 6
        batch = NoiseBatch.empty(plan, shots)
        fast = make_rng(bit_generator, 17)
        slow = make_rng(bit_generator, 17)
        if buffered:
            # Leaves a buffered 32-bit half that `integers` consumes next.
            assert fast.integers(7) == slow.integers(7)
        for row in range(shots):
            sample_shot(plan, fast, batch, row)
            detunings, uniforms, paulis = oracle_shot(plan, slow)
            np.testing.assert_array_equal(
                batch.detunings[row].view(np.uint64), detunings.view(np.uint64)
            )
            np.testing.assert_array_equal(
                batch.uniforms[row].view(np.uint64),
                np.array(uniforms, dtype=np.float64).view(np.uint64),
            )
            assert batch.paulis[row].tolist() == paulis
        assert same_state(fast.bit_generator.state, slow.bit_generator.state)
        if prob == 1.0:
            assert np.all(batch.paulis >= 0)


class TestSamplingHelpers:
    def test_plan_is_state_free_and_reusable(self, chain4):
        """Two generators with the same seed draw identical batches."""
        scheduled = schedule(layered_circuit(), chain4.durations)
        plan = build_noise_plan(scheduled, chain4)
        a = NoiseBatch.empty(plan, 1)
        b = NoiseBatch.empty(plan, 1)
        sample_shot(plan, as_generator(7), a, 0)
        sample_shot(plan, as_generator(7), b, 0)
        assert np.array_equal(a.detunings, b.detunings)
        assert np.array_equal(a.uniforms, b.uniforms)
        assert np.array_equal(a.paulis, b.paulis)

    def test_executor_engines_share_stream(self, chain4):
        """The scalar and batched engines consume one seed identically."""
        scheduled = schedule(layered_circuit(), chain4.durations)
        options = SimOptions(shots=12, seed=33)
        scalar = Executor(scheduled, chain4, options)
        batched = VectorizedExecutor(scheduled, chain4, options)
        obs = {"x1": Pauli.from_label("IIXI")}
        assert scalar.expectations(obs).values == batched.expectations(obs).values
