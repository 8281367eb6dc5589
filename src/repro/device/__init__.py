"""Device models: topology, synthetic calibration, crosstalk graphs."""

from .calibration import (
    Device,
    NoiseProfile,
    PairParams,
    QubitParams,
    synthetic_device,
)
from .crosstalk import build_crosstalk_graph
from .topology import Topology, linear_chain, ring

__all__ = [
    "Device",
    "NoiseProfile",
    "PairParams",
    "QubitParams",
    "synthetic_device",
    "build_crosstalk_graph",
    "Topology",
    "linear_chain",
    "ring",
]
