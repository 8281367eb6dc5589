"""Strategy pipeline tests."""

import pytest

from repro.circuits import Circuit
from repro.compiler import STRATEGIES, Strategy, get_strategy
from repro.runtime import pipeline_for
from repro.utils.linalg import allclose_up_to_global_phase
from repro.utils.rng import as_generator


def sample_circuit():
    circ = Circuit(3)
    circ.h(0)
    circ.h(1)
    circ.h(2)
    circ.ecr(0, 1, new_moment=True)
    circ.append_moment([])
    circ.ecr(1, 2, new_moment=True)
    circ.append_moment([])
    return circ


class TestRegistry:
    def test_all_named_strategies_resolve(self):
        for name in STRATEGIES:
            assert get_strategy(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_strategy("quantum_magic")

    def test_strategy_passthrough(self):
        s = Strategy("custom", dd="ca", ec=True)
        assert get_strategy(s) is s

    def test_invalid_dd_flavor(self):
        with pytest.raises(ValueError):
            Strategy("bad", dd="sideways")

    def test_expected_flags(self):
        assert STRATEGIES["ca_ec+dd"].dd == "ca"
        assert STRATEGIES["ca_ec+dd"].ec
        assert not STRATEGIES["none"].ec
        assert STRATEGIES["dd"].dd == "aligned"


class TestCompilation:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_preserves_logic(self, chain3, name):
        circ = sample_circuit()
        compiled = pipeline_for(name).compile(circ, chain3, seed=3)
        # DD nets are identity (even pulses) and EC insertions are tiny
        # rotations, so compare with loose tolerance for EC strategies.
        strategy = get_strategy(name)
        if strategy.ec:
            pytest.skip("EC intentionally deforms the unitary to fix noise")
        assert allclose_up_to_global_phase(
            compiled.unitary(), circ.unitary(), atol=1e-7
        )

    def test_dd_strategies_insert_dd(self, chain3):
        for name in ("dd", "staggered_dd", "ca_dd"):
            compiled = pipeline_for(name).compile(sample_circuit(), chain3, seed=0)
            assert compiled.count_gates(name="dd") > 0, name

    def test_ec_strategy_inserts_compensation(self, chain3):
        compiled = pipeline_for("ca_ec").compile(sample_circuit(), chain3, seed=0)
        assert compiled.count_gates(tag="compensation") > 0

    def test_combined_has_both(self, chain3):
        compiled = pipeline_for("ca_ec+dd").compile(sample_circuit(), chain3, seed=0)
        assert compiled.count_gates(name="dd") > 0
        assert compiled.count_gates(tag="compensation") > 0

    def test_twirl_randomizes(self, chain3):
        a = pipeline_for("none").compile(sample_circuit(), chain3, seed=1)
        b = pipeline_for("none").compile(sample_circuit(), chain3, seed=2)
        gates_a = [i.gate.params for i in a.instructions()]
        gates_b = [i.gate.params for i in b.instructions()]
        assert gates_a != gates_b


class TestFactory:
    """Realizations compiled from one shared stream, as the runtime does."""

    def test_factory_produces_fresh_realizations(self, chain3):
        pipeline = pipeline_for("none")
        rng = as_generator(0)
        a = pipeline.compile(sample_circuit(), chain3, seed=rng)
        b = pipeline.compile(sample_circuit(), chain3, seed=rng)
        assert [i.gate.params for i in a.instructions()] != [
            i.gate.params for i in b.instructions()
        ]

    def test_factory_respects_strategy(self, chain3):
        compiled = pipeline_for("ca_dd").compile(sample_circuit(), chain3, seed=as_generator(1))
        assert compiled.count_gates(name="dd") > 0
