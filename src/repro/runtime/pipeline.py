"""Composable compilation pipelines.

A :class:`Pipeline` is an ordered list of :class:`~repro.runtime.passes.Pass`
objects. The named strategies of the paper are pipeline *recipes*, one
line each of :data:`STRATEGIES` (:func:`pipeline_for` builds them), and
users can compose their own::

    from repro.runtime import CADD, CAEC, Orient, Pipeline, Twirl

    pipeline = Pipeline([Orient(), Twirl(), CADD(), CAEC()])
    compiled = pipeline.compile(circuit, device, seed=0)

:func:`pipeline_for` is the one way to compile a named strategy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Type, Union

from ..circuits.circuit import Circuit
from ..device.calibration import Device
from ..utils.rng import SeedLike, as_generator
from .passes import CADD, CAEC, AlignedDD, Orient, Pass, StaggeredDD, Twirl

#: Anything the runtime accepts as a compilation recipe.
PipelineLike = Union[None, str, "Pipeline", Sequence[Pass]]


class Pipeline:
    """An ordered, immutable sequence of compiler passes."""

    def __init__(self, passes: Iterable[Pass], name: Optional[str] = None):
        self.passes: Tuple[Pass, ...] = tuple(passes)
        for p in self.passes:
            if not isinstance(p, Pass):
                raise TypeError(f"not a Pass: {p!r}")
        self.name = name or "+".join(p.name for p in self.passes) or "identity"

    @property
    def is_deterministic(self) -> bool:
        """True when no pass consumes randomness (realizations coincide)."""
        return not any(p.stochastic for p in self.passes)

    def compile(
        self,
        circuit: Circuit,
        device: Device,
        seed: SeedLike = None,
    ) -> Circuit:
        """Run every pass in order; returns the compiled circuit.

        Pass ``seed`` (or a shared generator) to make stochastic passes
        reproducible.
        """
        rng = as_generator(seed)
        out = circuit
        for p in self.passes:
            out = p.run(out, device, rng)
        return out

    def __iter__(self) -> Iterator[Pass]:
        return iter(self.passes)

    def __len__(self) -> int:
        return len(self.passes)

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self.passes)
        return f"Pipeline([{inner}], name={self.name!r})"


#: The empty pipeline: run the circuit exactly as given.
IDENTITY = Pipeline((), name="as-is")


#: The paper's named strategies, each as its passes in the paper's order:
#: twirl, then DD, then CA-EC last (it must see the twirl Paulis and DD
#: pulses, as Algorithm 2 requires).
#:
#: ===================  ================================================
#: ``none``             Pauli twirling only (the paper's baseline)
#: ``dd``               context-unaware aligned X2 DD on all idles
#: ``staggered_dd``     context-unaware staggered DD (2-coloring)
#: ``ca_dd``            Algorithm 1 (Walsh sequences by coloring)
#: ``ca_ec``            Algorithm 2 (absorb/insert compensations)
#: ``ca_ec+dd``         CA-DD first, CA-EC mops up the residual
#:                      (the combined strategy of Sec. V E)
#: ``ec+aligned_dd``    aligned DD plus error compensation (the "simple
#:                      DD + EC matches fancy DD" curve of Fig. 3c)
#: ===================  ================================================
STRATEGIES: Dict[str, Tuple[Type[Pass], ...]] = {
    "none": (Twirl,),
    "dd": (Twirl, AlignedDD),
    "staggered_dd": (Twirl, StaggeredDD),
    "ca_dd": (Twirl, CADD),
    "ca_ec": (Twirl, CAEC),
    "ca_ec+dd": (Twirl, CADD, CAEC),
    "ec+aligned_dd": (Twirl, AlignedDD, CAEC),
}


def pipeline_for(strategy: str, orient: bool = False) -> Pipeline:
    """Build the pass pipeline for a named strategy of :data:`STRATEGIES`.

    ``orient=True`` runs gate orientation first. The same seed yields the
    identical circuit.
    """
    try:
        passes = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    if orient:
        passes = (Orient,) + passes
    return Pipeline([cls() for cls in passes], name=strategy)


def as_pipeline(spec: PipelineLike) -> Pipeline:
    """Normalize a pipeline spec: strategy name, Pipeline, or pass list.

    ``None`` maps to the identity pipeline (run the circuit as-is).
    """
    if spec is None:
        return IDENTITY
    if isinstance(spec, Pipeline):
        return spec
    if isinstance(spec, str):
        return pipeline_for(spec)
    if isinstance(spec, Sequence):
        return Pipeline(spec)
    raise TypeError(f"cannot interpret {spec!r} as a pipeline")
