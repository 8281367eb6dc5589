"""Composable compilation pipelines.

A :class:`Pipeline` is an ordered list of :class:`~repro.runtime.passes.Pass`
objects. The named strategies of the paper are pipeline *recipes*
(:func:`pipeline_for` builds them from a :class:`~repro.compiler.Strategy`),
and users can compose their own::

    from repro.runtime import CADD, CAEC, Orient, Pipeline, Twirl

    pipeline = Pipeline([Orient(), Twirl(), CADD(), CAEC()])
    compiled = pipeline.compile(circuit, device, seed=0)

:func:`pipeline_for` is the one way to compile a named strategy.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..circuits.circuit import Circuit
from ..circuits.schedule import Durations
from ..compiler.dd import DEFAULT_MIN_DURATION
from ..compiler.strategies import Strategy, get_strategy
from ..device.calibration import Device
from ..utils.rng import SeedLike
from .passes import CADD, CAEC, AlignedDD, Orient, Pass, PassContext, StaggeredDD, Twirl

#: Anything the runtime accepts as a compilation recipe.
PipelineLike = Union[None, str, Strategy, "Pipeline", Sequence[Pass]]


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

    @property
    def fingerprint(self) -> Optional[str]:
        """Content key of the recipe, or ``None`` if not addressable.

        Joins every pass's :meth:`~repro.runtime.passes.Pass.fingerprint`
        (name + output-affecting parameters). ``None`` — any pass without a
        fingerprint — opts the pipeline out of the plan cache. The pipeline
        *name* deliberately does not participate: two differently named
        recipes with the same passes produce the same circuits.
        """
        parts = []
        for p in self.passes:
            fp = p.fingerprint()
            if fp is None:
                return None
            parts.append(fp)
        return "+".join(parts) if parts else "identity"

    def then(self, *passes: Pass) -> "Pipeline":
        """A new pipeline with ``passes`` appended."""
        return Pipeline(self.passes + passes)

    def compile(
        self,
        circuit: Circuit,
        device: Device,
        seed: SeedLike = None,
        context: Optional[PassContext] = None,
    ) -> Circuit:
        """Run every pass in order; returns the compiled circuit.

        Pass ``seed`` (or a shared generator) to make stochastic passes
        reproducible; pass an explicit ``context`` to collect pass reports.
        """
        ctx = context if context is not None else PassContext.from_seed(seed)
        out = circuit
        for p in self.passes:
            out = p.run(out, device, ctx)
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


def pipeline_for(
    strategy: Union[str, Strategy],
    planner_durations: Optional[Durations] = None,
    min_dd_duration: float = DEFAULT_MIN_DURATION,
    orient: bool = False,
) -> Pipeline:
    """Build the pass pipeline for a named strategy.

    The passes run in the paper's order: orientation, twirl, DD, EC
    (CA-EC last, so it sees the twirl Paulis and DD pulses). The same seed
    yields the identical circuit.
    """
    strategy = get_strategy(strategy)
    passes: List[Pass] = []
    if orient:
        passes.append(Orient())
    if strategy.twirl:
        passes.append(Twirl())
    if strategy.dd == "aligned":
        passes.append(AlignedDD(min_dd_duration))
    elif strategy.dd == "staggered":
        passes.append(StaggeredDD(min_dd_duration))
    elif strategy.dd == "ca":
        passes.append(CADD(min_dd_duration))
    if strategy.ec:
        passes.append(CAEC(planner_durations))
    return Pipeline(passes, name=strategy.name)


def as_pipeline(spec: PipelineLike) -> Pipeline:
    """Normalize a pipeline spec: name, Strategy, Pipeline, or pass list.

    ``None`` maps to the identity pipeline (run the circuit as-is).
    """
    if spec is None:
        return IDENTITY
    if isinstance(spec, Pipeline):
        return spec
    if isinstance(spec, (str, Strategy)):
        return pipeline_for(spec)
    if isinstance(spec, Sequence):
        return Pipeline(spec)
    raise TypeError(f"cannot interpret {spec!r} as a pipeline")
