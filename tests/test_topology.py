"""Topology tests: chains, rings, heavy-hex."""

import pytest

from repro.device import Topology, linear_chain, ring


class TestBasics:
    def test_chain(self):
        t = linear_chain(5)
        assert t.num_qubits == 5
        assert t.edges == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert t.neighbors(2) == [1, 3]
        assert t.degree(0) == 1

    def test_ring(self):
        t = ring(6)
        assert len(t.edges) == 6
        assert t.has_edge(0, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Topology(2, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Topology(2, [(0, 5)])


class TestDerivedStructure:
    def test_next_nearest_pairs_chain(self):
        t = linear_chain(4)
        triples = t.next_nearest_pairs()
        assert (0, 1, 2) in triples
        assert (1, 2, 3) in triples
        assert len(triples) == 2

    def test_subtopology_relabeling(self):
        t = linear_chain(6)
        sub, mapping = t.subtopology([2, 3, 4])
        assert sub.num_qubits == 3
        assert sub.edges == [(0, 1), (1, 2)]
        assert mapping == {2: 0, 3: 1, 4: 2}

    def test_subtopology_drops_external_edges(self):
        t = ring(6)
        sub, _ = t.subtopology([0, 2, 4])
        assert sub.edges == []


class TestEdgeSet:
    def test_two_ring_has_one_edge(self):
        """ring(2) lists (0, 1) and (1, 0): both directions are one edge."""
        t = ring(2)
        assert t.edges == [(0, 1)]
        assert t.degree(0) == 1
        assert t.degree(1) == 1

    def test_repeated_edges_collapse(self):
        t = Topology(3, [(2, 0), (0, 2), (1, 2), (2, 1), (1, 2)])
        assert t.edges == [(0, 2), (1, 2)]
        assert t.degree(2) == 2

    def test_neighbors_sorted(self):
        t = Topology(5, [(2, 4), (2, 0), (3, 2), (1, 2)])
        assert t.neighbors(2) == [0, 1, 3, 4]

    def test_has_edge_symmetric(self):
        t = Topology(3, [(2, 0)])
        assert t.has_edge(0, 2)
        assert t.has_edge(2, 0)
        assert not t.has_edge(0, 1)
        assert not t.has_edge(0, 7)
        assert not t.has_edge(-1, 0)

    def test_edges_returns_a_copy(self):
        t = linear_chain(3)
        t.edges.clear()
        assert t.edges == [(0, 1), (1, 2)]
