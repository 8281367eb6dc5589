"""Composable compiler passes.

A :class:`Pass` transforms one circuit into another against a device,
drawing any randomness it needs from the pipeline's generator ``rng``.
The concrete passes wrap the compiler-stage functions one-to-one, so a
:class:`~repro.runtime.pipeline.Pipeline` built from them applies exactly
those stages, seed for seed.

Custom passes only need ``run(circuit, device, rng) -> Circuit``; set
``stochastic = True`` when the pass consumes randomness from ``rng`` so
the runtime knows realizations differ (and must be recompiled each time).
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit
from ..compiler.ca_dd import apply_ca_dd
from ..compiler.ca_ec import apply_ca_ec
from ..compiler.dd import apply_aligned_dd, apply_staggered_dd
from ..compiler.orientation import apply_orientation
from ..device.calibration import Device
from ..pauli.twirling import apply_twirl


class Pass:
    """Base class / protocol for compiler passes.

    Subclasses implement :meth:`run`. ``stochastic`` marks passes that draw
    from ``rng``; pipelines containing none are deterministic, which
    lets the compile stage compile and schedule a task's circuit once for
    all its realizations.
    """

    name: str = "pass"
    stochastic: bool = False

    def run(self, circuit: Circuit, device: Device, rng: np.random.Generator) -> Circuit:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Orient(Pass):
    """Re-orient ECR/CX gates to avoid same-role adjacencies."""

    name = "orient"

    def run(self, circuit: Circuit, device: Device, rng: np.random.Generator) -> Circuit:
        return apply_orientation(circuit, device)[0]


class Twirl(Pass):
    """Sample a fresh Pauli twirl from ``rng``."""

    name = "twirl"
    stochastic = True

    def run(self, circuit: Circuit, device: Device, rng: np.random.Generator) -> Circuit:
        return apply_twirl(circuit, rng)[0]


class AlignedDD(Pass):
    """Context-unaware aligned X2 sequences on all idle windows."""

    name = "aligned_dd"

    def run(self, circuit: Circuit, device: Device, rng: np.random.Generator) -> Circuit:
        return apply_aligned_dd(circuit, device)


class StaggeredDD(Pass):
    """Context-unaware staggered DD via a 2-coloring."""

    name = "staggered_dd"

    def run(self, circuit: Circuit, device: Device, rng: np.random.Generator) -> Circuit:
        return apply_staggered_dd(circuit, device)


class CADD(Pass):
    """Context-aware DD: Walsh sequences assigned by coloring (Algorithm 1)."""

    name = "ca_dd"

    def run(self, circuit: Circuit, device: Device, rng: np.random.Generator) -> Circuit:
        return apply_ca_dd(circuit, device)[0]


class CAEC(Pass):
    """Context-aware error compensation (Algorithm 2), planned on the
    device's true duration table."""

    name = "ca_ec"

    def run(self, circuit: Circuit, device: Device, rng: np.random.Generator) -> Circuit:
        return apply_ca_ec(circuit, device)[0]
