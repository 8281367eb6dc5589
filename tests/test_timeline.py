"""Sign-trajectory tests, including hypothesis invariants (paper Fig. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, gates as g
from repro.sim.timeline import build_timeline, pair_sign_integral, sign_integral

fractions_strategy = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=0, max_size=6
).map(lambda fs: tuple(sorted(set(fs))))


class TestSignIntegral:
    def test_no_flips(self):
        assert sign_integral(()) == 1.0

    def test_midpoint_flip_cancels(self):
        assert sign_integral((0.5,)) == pytest.approx(0.0)

    def test_x2_cancels(self):
        assert sign_integral((0.25, 0.75)) == pytest.approx(0.0)

    def test_asymmetric_flip(self):
        assert sign_integral((0.25,)) == pytest.approx(-0.5)

    @given(fractions_strategy)
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, flips):
        value = sign_integral(flips)
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12

    @given(fractions_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_numeric_quadrature(self, flips):
        ts = np.linspace(0, 1, 20001)
        signs = np.ones_like(ts)
        for f in flips:
            signs[ts >= f] *= -1
        numeric = np.trapezoid(signs, ts)
        assert sign_integral(flips) == pytest.approx(numeric, abs=2e-3)


class TestPairSignIntegral:
    def test_aligned_pair_unsuppressed(self):
        assert pair_sign_integral((0.25, 0.75), (0.25, 0.75)) == pytest.approx(1.0)

    def test_staggered_pair_suppressed(self):
        assert pair_sign_integral((0.25, 0.75), (0.5, 1.0)) == pytest.approx(0.0)

    def test_control_echo_refocuses_idle_spectator(self):
        # case II: control flip at midpoint vs undressed spectator.
        assert pair_sign_integral((0.5,), ()) == pytest.approx(0.0)

    def test_rotary_refocuses_idle_spectator(self):
        # case III: rotary at quarter points vs undressed spectator.
        assert pair_sign_integral((0.25, 0.75), ()) == pytest.approx(0.0)

    def test_adjacent_controls_unsuppressed(self):
        # case IV: two aligned midpoint echoes.
        assert pair_sign_integral((0.5,), (0.5,)) == pytest.approx(1.0)

    @given(fractions_strategy, fractions_strategy)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert pair_sign_integral(a, b) == pytest.approx(pair_sign_integral(b, a))

    @given(fractions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_self_pair_is_unity(self, flips):
        assert pair_sign_integral(flips, flips) == pytest.approx(1.0)

    @given(fractions_strategy, fractions_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_numeric_quadrature(self, a, b):
        ts = np.linspace(0, 1, 20001)
        sa = np.ones_like(ts)
        sb = np.ones_like(ts)
        for f in a:
            sa[ts >= f] *= -1
        for f in b:
            sb[ts >= f] *= -1
        numeric = np.trapezoid(sa * sb, ts)
        assert pair_sign_integral(a, b) == pytest.approx(numeric, abs=4e-3)


class TestBuildTimeline:
    def test_ecr_roles(self):
        circ = Circuit(3)
        circ.ecr(0, 1)
        tl = build_timeline(circ.moments[0], 3, 500.0)
        assert tl.flips[0] == (0.5,)
        assert tl.flips[1] == (0.25, 0.75)
        assert tl.gate_pairs == {(0, 1)}
        assert tl.driven == {0, 1}

    def test_dd_sequence_flips(self):
        circ = Circuit(1)
        circ.append(g.dd_sequence((0.125, 0.375, 0.625, 0.875)), [0])
        tl = build_timeline(circ.moments[0], 1, 500.0)
        assert tl.flips[0] == (0.125, 0.375, 0.625, 0.875)

    def test_measurement_recorded(self):
        circ = Circuit(2, num_clbits=1)
        circ.measure(0, 0)
        tl = build_timeline(circ.moments[0], 2, 4000.0)
        assert tl.measured == {0}

    def test_canonical_gate_footprint(self):
        circ = Circuit(2)
        circ.can(0.1, 0.2, 0.3, 0, 1)
        tl = build_timeline(circ.moments[0], 2, 1500.0)
        assert tl.flips[0] == (0.5,)
        assert tl.flips[1] == (0.25, 0.75)
