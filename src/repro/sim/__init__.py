"""Noise simulator: sign-trajectory coherent model + Monte-Carlo trajectories."""

from .coherent import CoherentAccumulation, accumulate_coherent
from .density import (
    DensityExecutor,
    DensityMatrix,
    density_expectations,
    density_probabilities,
)
from .executor import (
    Executor,
    SimOptions,
    SimResult,
    average_over_realizations,
    bit_probabilities,
    expectation_values,
)
from .readout import (
    ConfusionMatrices,
    assignment_probabilities,
    corrected_expectation,
    estimate_confusion,
    expectation_from_counts,
    invert_confusion,
    sample_counts,
)
from .sampling import NoiseBatch, NoisePlan, build_noise_plan, sample_shot
from .statevector import StateVector, vector_norm
from .timeline import MomentTimeline, build_timeline, pair_sign_integral, sign_integral
from .vectorized import VectorizedExecutor

__all__ = [
    "DensityExecutor",
    "DensityMatrix",
    "density_expectations",
    "density_probabilities",
    "ConfusionMatrices",
    "assignment_probabilities",
    "corrected_expectation",
    "estimate_confusion",
    "expectation_from_counts",
    "invert_confusion",
    "sample_counts",
    "CoherentAccumulation",
    "accumulate_coherent",
    "Executor",
    "SimOptions",
    "SimResult",
    "average_over_realizations",
    "bit_probabilities",
    "expectation_values",
    "StateVector",
    "vector_norm",
    "NoiseBatch",
    "NoisePlan",
    "build_noise_plan",
    "sample_shot",
    "VectorizedExecutor",
    "MomentTimeline",
    "build_timeline",
    "pair_sign_integral",
    "sign_integral",
]
