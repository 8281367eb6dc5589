"""Crosstalk-graph construction (Algorithm 1, line 2).

The crosstalk graph has an edge wherever two qubits share a non-negligible
ZZ interaction: every coupled pair, plus next-nearest-neighbor pairs whose
rate is collision-enhanced (paper Sec. III C). CA-DD colors idle qubits so
that no two crosstalk-graph neighbors share a Walsh sequence.
"""

from __future__ import annotations


import networkx as nx

from ..utils.units import KHZ
from .calibration import Device

DEFAULT_THRESHOLD = 0.5 * KHZ


def build_crosstalk_graph(
    device: Device, threshold: float = DEFAULT_THRESHOLD
) -> nx.Graph:
    """Graph over qubits with ``rate`` edge attributes (GHz).

    Includes coupling-graph edges with ZZ above ``threshold`` and NNN pairs
    whose characterized rate exceeds it.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(device.num_qubits))
    for (a, b), params in device.pairs.items():
        if params.zz_rate >= threshold:
            graph.add_edge(a, b, rate=params.zz_rate, kind="coupling")
    for (a, b), rate in device.nnn_zz.items():
        if rate >= threshold:
            graph.add_edge(a, b, rate=rate, kind="nnn")
    return graph
