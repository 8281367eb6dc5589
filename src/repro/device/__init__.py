"""Device models: topology, synthetic calibration, crosstalk graphs."""

from .calibration import (
    Device,
    NoiseProfile,
    PairParams,
    QubitParams,
    fake_brisbane,
    fake_nazca,
    fake_penguino,
    fake_sherbrooke,
    synthetic_device,
)
from .crosstalk import build_crosstalk_graph
from .topology import Topology, eagle, heavy_hex, linear_chain, ring

__all__ = [
    "Device",
    "NoiseProfile",
    "PairParams",
    "QubitParams",
    "fake_brisbane",
    "fake_nazca",
    "fake_penguino",
    "fake_sherbrooke",
    "synthetic_device",
    "build_crosstalk_graph",
    "Topology",
    "eagle",
    "heavy_hex",
    "linear_chain",
    "ring",
]
