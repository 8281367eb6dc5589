"""Composable compiler passes.

A :class:`Pass` transforms one circuit into another against a device, with
shared mutable state carried in a :class:`PassContext` (the RNG stream for
stochastic passes, and a report sink for passes that emit diagnostics).
The concrete passes wrap the compiler-stage functions one-to-one, so a
:class:`~repro.runtime.pipeline.Pipeline` built from them applies exactly
those stages, seed for seed.

Custom passes only need ``run(circuit, device, ctx) -> Circuit``; set
``stochastic = True`` when the pass consumes randomness from ``ctx.rng`` so
the runtime knows realizations differ (and must be recompiled each time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.schedule import Durations
from ..compiler.ca_dd import apply_ca_dd
from ..compiler.ca_ec import apply_ca_ec
from ..compiler.dd import DEFAULT_MIN_DURATION, apply_aligned_dd, apply_staggered_dd
from ..compiler.orientation import apply_orientation
from ..device.calibration import Device
from ..pauli.twirling import apply_twirl
from ..utils.rng import SeedLike, as_generator


@dataclass
class PassContext:
    """Shared state threaded through a pipeline run.

    ``rng`` feeds stochastic passes (twirl sampling); ``reports`` collects
    the diagnostic objects emitted by passes, keyed by pass name (a list,
    since a pass may appear more than once in a pipeline).
    """

    rng: np.random.Generator
    reports: Dict[str, List[Any]] = field(default_factory=dict)

    @classmethod
    def from_seed(cls, seed: SeedLike = None) -> "PassContext":
        return cls(rng=as_generator(seed))

    def record(self, name: str, report: Any) -> None:
        self.reports.setdefault(name, []).append(report)


class Pass:
    """Base class / protocol for compiler passes.

    Subclasses implement :meth:`run`. ``stochastic`` marks passes that draw
    from ``ctx.rng``; pipelines containing none are deterministic, which
    lets backends compile and schedule a task's circuit once and share the
    cached static coherent accumulation across realizations.
    """

    name: str = "pass"
    stochastic: bool = False

    def run(self, circuit: Circuit, device: Device, ctx: PassContext) -> Circuit:
        raise NotImplementedError

    def fingerprint(self) -> Optional[str]:
        """Content key for plan caching, or ``None`` if not addressable.

        The built-in passes return their name plus every parameter that
        affects the output circuit. Custom passes inherit ``None`` — a safe
        default that makes any pipeline containing them uncacheable — and
        should override this once their output is a pure function of the
        returned key (and the circuit/device).
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Orient(Pass):
    """Re-orient ECR/CX gates to avoid same-role adjacencies."""

    name = "orient"

    def run(self, circuit: Circuit, device: Device, ctx: PassContext) -> Circuit:
        out, report = apply_orientation(circuit, device)
        ctx.record(self.name, report)
        return out

    def fingerprint(self) -> Optional[str]:
        return self.name


class Twirl(Pass):
    """Sample a fresh Pauli twirl from ``ctx.rng``."""

    name = "twirl"
    stochastic = True

    def run(self, circuit: Circuit, device: Device, ctx: PassContext) -> Circuit:
        out, record = apply_twirl(circuit, ctx.rng)
        ctx.record(self.name, record)
        return out

    def fingerprint(self) -> Optional[str]:
        # Addressable, but never actually cached: stochastic passes make
        # their pipeline non-deterministic, which disables plan caching.
        return self.name


class AlignedDD(Pass):
    """Context-unaware aligned X2 sequences on all idle windows."""

    name = "aligned_dd"

    def __init__(self, min_duration: float = DEFAULT_MIN_DURATION):
        self.min_duration = min_duration

    def run(self, circuit: Circuit, device: Device, ctx: PassContext) -> Circuit:
        return apply_aligned_dd(circuit, device, self.min_duration)

    def fingerprint(self) -> Optional[str]:
        return f"{self.name}({self.min_duration!r})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(min_duration={self.min_duration!r})"


class StaggeredDD(Pass):
    """Context-unaware staggered DD via a 2-coloring."""

    name = "staggered_dd"

    def __init__(self, min_duration: float = DEFAULT_MIN_DURATION):
        self.min_duration = min_duration

    def run(self, circuit: Circuit, device: Device, ctx: PassContext) -> Circuit:
        return apply_staggered_dd(circuit, device, self.min_duration)

    def fingerprint(self) -> Optional[str]:
        return f"{self.name}({self.min_duration!r})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(min_duration={self.min_duration!r})"


class CADD(Pass):
    """Context-aware DD: Walsh sequences assigned by coloring (Algorithm 1)."""

    name = "ca_dd"

    def __init__(self, min_duration: float = DEFAULT_MIN_DURATION):
        self.min_duration = min_duration

    def run(self, circuit: Circuit, device: Device, ctx: PassContext) -> Circuit:
        out, report = apply_ca_dd(circuit, device, self.min_duration)
        ctx.record(self.name, report)
        return out

    def fingerprint(self) -> Optional[str]:
        return f"{self.name}({self.min_duration!r})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(min_duration={self.min_duration!r})"


class CAEC(Pass):
    """Context-aware error compensation (Algorithm 2).

    ``durations`` is the planner's timing belief; ``None`` uses the
    device's true duration table (see paper Fig. 9c for why they differ).
    """

    name = "ca_ec"

    def __init__(self, durations: Optional[Durations] = None):
        self.durations = durations

    def run(self, circuit: Circuit, device: Device, ctx: PassContext) -> Circuit:
        out, report = apply_ca_ec(circuit, device, durations=self.durations)
        ctx.record(self.name, report)
        return out

    def fingerprint(self) -> Optional[str]:
        # Durations is a frozen dataclass of floats: its repr is exactly
        # the planner's timing belief, which changes the output circuit.
        return f"{self.name}({self.durations!r})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(durations={self.durations!r})"
