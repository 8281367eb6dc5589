"""Crosstalk-graph construction (Algorithm 1, line 2).

The crosstalk graph has an edge wherever two qubits share a non-negligible
ZZ interaction: every coupled pair, plus next-nearest-neighbor pairs whose
rate is collision-enhanced (paper Sec. III C). CA-DD colors idle qubits so
that no two crosstalk-graph neighbors share a Walsh sequence.
"""

from __future__ import annotations

from .calibration import Device
from .topology import Topology


def build_crosstalk_graph(device: Device) -> Topology:
    """Qubit graph with an edge wherever the ZZ rate is at least
    ``CROSSTALK_THRESHOLD``.

    Covers coupling-graph pairs and characterized NNN pairs alike (see
    :meth:`Device.crosstalk_edges`).
    """
    return Topology(device.num_qubits, device.crosstalk_edges())
