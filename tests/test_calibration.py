"""Device calibration tests."""

import math
from dataclasses import replace

import pytest

from repro.device import (
    NoiseProfile,
    build_crosstalk_graph,
    linear_chain,
    synthetic_device,
)
from repro.device.calibration import CROSSTALK_THRESHOLD
from repro.utils.units import KHZ


class TestSyntheticSampling:
    def test_reproducible_by_seed(self):
        a = synthetic_device(linear_chain(4), seed=9)
        b = synthetic_device(linear_chain(4), seed=9)
        assert a.zz_rate(0, 1) == b.zz_rate(0, 1)
        assert a.qubit(2).t1 == b.qubit(2).t1

    def test_different_seeds_differ(self):
        a = synthetic_device(linear_chain(4), seed=9)
        b = synthetic_device(linear_chain(4), seed=10)
        assert a.zz_rate(0, 1) != b.zz_rate(0, 1)

    def test_parameters_within_profile(self):
        profile = NoiseProfile()
        dev = synthetic_device(linear_chain(5), seed=3, profile=profile)
        lo, hi = profile.zz_range
        for a, b in dev.topology.edges:
            assert lo <= dev.zz_rate(a, b) <= hi

    def test_collision_triples_enhance_nnn(self):
        dev = synthetic_device(
            linear_chain(3), seed=3, collision_triples=[(0, 1, 2)]
        )
        assert dev.zz_rate(0, 2) >= 8.0 * KHZ

    def test_nnn_background(self):
        dev = synthetic_device(linear_chain(3), seed=3, nnn_background=True)
        assert 0.0 < dev.zz_rate(0, 2) < 1.0 * KHZ


class TestDeviceQueries:
    def test_zz_rate_symmetric(self):
        dev = synthetic_device(linear_chain(3), seed=1)
        assert dev.zz_rate(0, 1) == dev.zz_rate(1, 0)

    def test_zz_rate_uncoupled_is_zero(self):
        dev = synthetic_device(linear_chain(3), seed=1)
        assert dev.zz_rate(0, 2) == 0.0

    def test_stark_shift_directional(self):
        dev = synthetic_device(linear_chain(2), seed=1)
        assert dev.stark_shift(0, 1) > 0.0
        assert dev.stark_shift(1, 0) > 0.0

    def test_stark_shift_uncoupled_zero(self):
        dev = synthetic_device(linear_chain(3), seed=1)
        assert dev.stark_shift(0, 2) == 0.0

    def test_crosstalk_edges_threshold(self):
        from repro.device import PairParams

        dev = synthetic_device(linear_chain(3), seed=1)
        assert len(dev.crosstalk_edges()) == 2
        edge_case = dev.with_pair_overrides(
            {
                (0, 1): PairParams(zz_rate=CROSSTALK_THRESHOLD),
                (1, 2): PairParams(zz_rate=0.99 * CROSSTALK_THRESHOLD),
            }
        )
        assert edge_case.crosstalk_edges() == [(0, 1)]

    def test_pair_error_fallback_for_routed_gate(self):
        dev = synthetic_device(linear_chain(3), seed=1)
        assert dev.pair_error(0, 2) > 0.0  # median fallback

    def test_subdevice(self):
        dev = synthetic_device(linear_chain(6), seed=1)
        sub = dev.subdevice([2, 3, 4])
        assert sub.num_qubits == 3
        assert sub.zz_rate(0, 1) == dev.zz_rate(2, 3)

    def test_ideal_is_noise_free(self):
        dev = synthetic_device(linear_chain(3), seed=1).ideal()
        assert dev.zz_rate(0, 1) == 0.0
        assert dev.qubit(0).p1 == 0.0
        assert dev.qubit(0).measure_stark == 0.0
        assert math.isinf(dev.qubit(0).t1)

    def test_with_params_sets_every_qubit_and_pair(self):
        dev = synthetic_device(linear_chain(3), seed=1)
        new = dev.with_params(p1=0.0, t1=math.inf, p2=0.5)
        assert [q.p1 for q in new.qubits] == [0.0] * 3
        assert all(math.isinf(q.t1) for q in new.qubits)
        assert [p.p2 for p in new.pairs.values()] == [0.5, 0.5]
        assert [q.t2 for q in new.qubits] == [q.t2 for q in dev.qubits]
        assert new.zz_rate(0, 1) == dev.zz_rate(0, 1)
        assert dev.qubit(0).p1 > 0.0  # the original is untouched

    def test_with_params_rejects_unknown_fields(self):
        # A single qubit has no pairs, so only the check can catch a typo.
        dev = synthetic_device(linear_chain(1), seed=1)
        with pytest.raises(TypeError, match="t_1"):
            dev.with_params(t_1=0.0)

    def test_with_pair_overrides(self):
        from repro.device import PairParams

        dev = synthetic_device(linear_chain(2), seed=1)
        new = dev.with_pair_overrides({(0, 1): PairParams(zz_rate=0.0)})
        assert new.zz_rate(0, 1) == 0.0
        assert dev.zz_rate(0, 1) > 0.0


class TestCrosstalkGraph:
    def _device(self):
        return synthetic_device(
            linear_chain(5), seed=3, collision_triples=[(0, 1, 2), (2, 3, 4)]
        )

    def test_edges_match_device_crosstalk_edges(self):
        dev = self._device()
        graph = build_crosstalk_graph(dev)
        # The collision-enhanced NNN pairs are in the graph next to the
        # coupling edges.
        assert {(0, 2), (2, 4)} <= set(graph.edges)
        assert graph.num_qubits == dev.num_qubits
        assert graph.edges == dev.crosstalk_edges()

    def test_weak_nnn_pair_left_out(self):
        dev = self._device()
        nnn = dict(dev.nnn_zz)
        nnn[(0, 2)] = 0.99 * CROSSTALK_THRESHOLD
        graph = build_crosstalk_graph(replace(dev, nnn_zz=nnn))
        assert (0, 2) not in graph.edges
        assert (2, 4) in graph.edges

