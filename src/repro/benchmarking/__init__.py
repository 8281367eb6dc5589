"""Benchmarking protocols: Ramsey, layer fidelity, mitigation overhead, spectroscopy."""

from .characterize import (
    ZZMeasurement,
    characterize_device,
    measure_zz_rate,
)
from .layer_fidelity import (
    LayerFidelityResult,
    LayerSpec,
    measure_layer_fidelity,
    overhead_reduction,
    partition_layer,
)
from .mitigation import DepolarizingFit, fit_global_depolarizing
from .ramsey import (
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    RamseyCase,
    build_case_circuit,
    ramsey_task,
)
from .spectroscopy import (
    StarkMeasurement,
    measure_stark_shift,
    parity_beating_signal,
    ramsey_fringe,
)

__all__ = [
    "ZZMeasurement",
    "characterize_device",
    "measure_zz_rate",
    "LayerFidelityResult",
    "LayerSpec",
    "measure_layer_fidelity",
    "overhead_reduction",
    "partition_layer",
    "DepolarizingFit",
    "fit_global_depolarizing",
    "CASE_I",
    "CASE_II",
    "CASE_III",
    "CASE_IV",
    "RamseyCase",
    "build_case_circuit",
    "ramsey_task",
    "StarkMeasurement",
    "measure_stark_shift",
    "parity_beating_signal",
    "ramsey_fringe",
]
