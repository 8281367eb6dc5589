"""Qubit connectivity topologies: the chains and rings the experiments use."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple


class Topology:
    """An undirected qubit-coupling graph with contiguous integer labels.

    Edges are stored once each as ``(low, high)``, so listing a pair in both
    directions adds a single edge.
    """

    def __init__(self, num_qubits: int, edges: Iterable[Tuple[int, int]]):
        self.num_qubits = int(num_qubits)
        self._adjacency: List[Set[int]] = [set() for _ in range(self.num_qubits)]
        for a, b in edges:
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise ValueError(f"edge ({a},{b}) out of range")
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self._edges = sorted(
            (a, b)
            for a, nbrs in enumerate(self._adjacency)
            for b in nbrs
            if a < b
        )

    @property
    def edges(self) -> List[Tuple[int, int]]:
        return list(self._edges)

    def neighbors(self, qubit: int) -> List[int]:
        return sorted(self._adjacency[qubit])

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= a < self.num_qubits and b in self._adjacency[a]

    def degree(self, qubit: int) -> int:
        return len(self._adjacency[qubit])

    def next_nearest_pairs(self) -> List[Tuple[int, int, int]]:
        """All ``(a, middle, b)`` triples with a-middle and middle-b edges."""
        triples = []
        for middle in range(self.num_qubits):
            nbrs = self.neighbors(middle)
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
                    triples.append((a, middle, b))
        return triples

    def subtopology(self, qubits: Sequence[int]) -> Tuple["Topology", Dict[int, int]]:
        """Induced subgraph on ``qubits``, relabeled to ``0..k-1``.

        Returns the new topology and the old->new label mapping.
        """
        mapping = {q: i for i, q in enumerate(qubits)}
        edges = [
            (mapping[a], mapping[b])
            for a, b in self.edges
            if a in mapping and b in mapping
        ]
        return Topology(len(qubits), edges), mapping

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology({self.num_qubits} qubits, {len(self.edges)} edges)"


def linear_chain(num_qubits: int) -> Topology:
    """A 1-D chain ``0 - 1 - ... - (n-1)``."""
    return Topology(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)])


def ring(num_qubits: int) -> Topology:
    """A cycle of ``num_qubits`` qubits (paper Fig. 7a uses a 12-ring)."""
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return Topology(num_qubits, edges)
