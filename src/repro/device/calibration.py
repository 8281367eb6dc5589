"""Synthetic device calibrations.

The paper infers the magnitude of its coherent errors "from the reported
backend information of IBM Quantum systems without the need for additional
calibration" (Sec. II D). We have no hardware, so :func:`synthetic_device`
draws per-qubit and per-pair parameters from the magnitudes the paper
reports: always-on ZZ of tens of kHz, AC Stark shifts around 20 kHz,
next-nearest-neighbor ZZ of O(0.1 kHz) enhanced to O(10 kHz) at frequency
collisions, and slow charge-parity Z fluctuations of a few kHz.

All frequencies are stored in GHz (1/ns) and all times in ns; use
the ``KHZ``/``US`` constants of ``repro.utils.units`` when quoting kHz/us
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuits.schedule import Durations
from ..utils.rng import SeedLike, as_generator
from ..utils.units import KHZ, US
from .topology import Topology

Edge = Tuple[int, int]

#: ZZ rate at which a pair counts as crosstalk (CA-DD's interaction graph).
CROSSTALK_THRESHOLD = 0.5 * KHZ


def _key(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class QubitParams:
    """Per-qubit calibration.

    Attributes:
        t1: relaxation time (ns).
        t2: dephasing time (ns); sets the white dephasing rate.
        quasistatic_sigma: std-dev (GHz) of the shot-to-shot quasi-static
            detuning — the temporally correlated noise that DD suppresses but
            error compensation cannot (paper Fig. 3c discussion).
        parity_delta: charge-parity splitting (GHz); its sign flips randomly
            shot to shot (paper eq. 6, Fig. 4b).
        readout_error: mean assignment-error probability. No noise path
            reads it: the engines emulate readout-corrected results. It stays
            because :func:`synthetic_device` draws it, and dropping the draw
            would shift the device's random stream.
        p1: depolarizing probability per physical single-qubit gate.
        measure_stark: Z rate (GHz) induced on this qubit's neighbors while
            it is being read out — the readout drive's Stark shift, the
            dominant coherent error during the long measurement windows of
            dynamic circuits (paper Sec. V D).
    """

    t1: float = 200.0 * US
    t2: float = 150.0 * US
    quasistatic_sigma: float = 4.0 * KHZ
    parity_delta: float = 1.0 * KHZ
    readout_error: float = 0.015
    p1: float = 2.5e-4
    measure_stark: float = 40.0 * KHZ


@dataclass(frozen=True)
class PairParams:
    """Per-coupled-pair calibration.

    Attributes:
        zz_rate: always-on ZZ coupling ``nu`` (GHz) of paper eq. (1).
        stark_on_first / stark_on_second: Z shift (GHz) induced on one qubit
            while a gate drives the other (paper Fig. 4a).
        p2: depolarizing probability per two-qubit gate on this pair.
    """

    zz_rate: float = 60.0 * KHZ
    stark_on_first: float = 20.0 * KHZ
    stark_on_second: float = 20.0 * KHZ
    p2: float = 7e-3


@dataclass
class Device:
    """A quantum device model: topology + calibration + timing.

    ``nnn_zz`` maps next-nearest-neighbor pairs (as sorted tuples) to their
    ZZ rates; only collision-enhanced triples matter in practice, but every
    NNN pair may carry a small background rate.
    """

    name: str
    topology: Topology
    qubits: List[QubitParams]
    pairs: Dict[Edge, PairParams]
    nnn_zz: Dict[Edge, float] = field(default_factory=dict)
    durations: Durations = field(default_factory=Durations)

    @property
    def num_qubits(self) -> int:
        return self.topology.num_qubits

    def qubit(self, q: int) -> QubitParams:
        return self.qubits[q]

    def pair(self, a: int, b: int) -> PairParams:
        return self.pairs[_key(a, b)]

    def pair_error(self, a: int, b: int) -> float:
        """Two-qubit depolarizing probability for a gate on ``(a, b)``.

        Pairs without direct coupling (e.g. a logically routed gate in a
        readout stage) fall back to the device's median ``p2``.
        """
        key = _key(a, b)
        if key in self.pairs:
            return self.pairs[key].p2
        if not self.pairs:
            return 0.0
        rates = sorted(p.p2 for p in self.pairs.values())
        return rates[len(rates) // 2]

    def zz_rate(self, a: int, b: int) -> float:
        """Always-on ZZ rate between ``a`` and ``b`` (coupled or NNN)."""
        key = _key(a, b)
        if key in self.pairs:
            return self.pairs[key].zz_rate
        return self.nnn_zz.get(key, 0.0)

    def stark_shift(self, driven: int, spectator: int) -> float:
        """Stark Z rate on ``spectator`` while ``driven`` is being driven."""
        key = _key(driven, spectator)
        if key not in self.pairs:
            return 0.0
        params = self.pairs[key]
        return params.stark_on_first if spectator == key[0] else params.stark_on_second

    def crosstalk_edges(self) -> List[Edge]:
        """Pairs whose ZZ rate is at least ``CROSSTALK_THRESHOLD`` (coupling + NNN)."""
        out = [e for e, p in self.pairs.items() if p.zz_rate >= CROSSTALK_THRESHOLD]
        out.extend(e for e, rate in self.nnn_zz.items() if rate >= CROSSTALK_THRESHOLD)
        return sorted(set(out))

    def subdevice(self, qubit_indices: Sequence[int], name: Optional[str] = None) -> "Device":
        """Restrict to ``qubit_indices`` (relabeled ``0..k-1``)."""
        sub_topo, mapping = self.topology.subtopology(qubit_indices)
        qubits = [self.qubits[q] for q in qubit_indices]
        pairs = {}
        for (a, b), params in self.pairs.items():
            if a in mapping and b in mapping:
                pairs[_key(mapping[a], mapping[b])] = params
        nnn = {}
        for (a, b), rate in self.nnn_zz.items():
            if a in mapping and b in mapping:
                nnn[_key(mapping[a], mapping[b])] = rate
        return Device(
            name=name or f"{self.name}[{len(qubit_indices)}q]",
            topology=sub_topo,
            qubits=qubits,
            pairs=pairs,
            nnn_zz=nnn,
            durations=self.durations,
        )

    def with_pair_overrides(self, overrides: Dict[Edge, PairParams]) -> "Device":
        """Copy of the device with some pair calibrations replaced."""
        pairs = dict(self.pairs)
        for edge, params in overrides.items():
            pairs[_key(*edge)] = params
        return replace(self, pairs=pairs)

    def with_params(self, **values) -> "Device":
        """Copy with the given :class:`QubitParams` / :class:`PairParams`
        fields set on every qubit and every coupled pair.

        This is how a noise source is switched off: ``with_params(p1=0.0,
        p2=0.0)`` removes gate errors, ``t1=inf, t2=inf`` idle decay.
        """
        unknown = set(values) - _QUBIT_FIELDS - _PAIR_FIELDS
        if unknown:
            raise TypeError(f"no calibration field named {sorted(unknown)}")
        qubit_values = {k: v for k, v in values.items() if k in _QUBIT_FIELDS}
        pair_values = {k: v for k, v in values.items() if k in _PAIR_FIELDS}
        return replace(
            self,
            qubits=[replace(q, **qubit_values) for q in self.qubits],
            pairs={e: replace(p, **pair_values) for e, p in self.pairs.items()},
        )

    def ideal(self) -> "Device":
        """Noise-free copy (all rates and error probabilities zeroed)."""
        quiet = self.with_params(
            quasistatic_sigma=0.0,
            parity_delta=0.0,
            readout_error=0.0,
            p1=0.0,
            t1=float("inf"),
            t2=float("inf"),
            measure_stark=0.0,
            zz_rate=0.0,
            stark_on_first=0.0,
            stark_on_second=0.0,
            p2=0.0,
        )
        return replace(quiet, nnn_zz={})


_QUBIT_FIELDS = frozenset(f.name for f in fields(QubitParams))
_PAIR_FIELDS = frozenset(f.name for f in fields(PairParams))


@dataclass(frozen=True)
class NoiseProfile:
    """Parameter ranges for synthetic calibration sampling (GHz / ns)."""

    zz_range: Tuple[float, float] = (40.0 * KHZ, 90.0 * KHZ)
    stark_range: Tuple[float, float] = (10.0 * KHZ, 30.0 * KHZ)
    nnn_background_range: Tuple[float, float] = (0.05 * KHZ, 0.2 * KHZ)
    nnn_collision_range: Tuple[float, float] = (8.0 * KHZ, 20.0 * KHZ)
    quasistatic_sigma_range: Tuple[float, float] = (2.0 * KHZ, 6.0 * KHZ)
    parity_delta_range: Tuple[float, float] = (0.5 * KHZ, 3.0 * KHZ)
    t1_range: Tuple[float, float] = (150.0 * US, 350.0 * US)
    t2_range: Tuple[float, float] = (80.0 * US, 250.0 * US)
    p1_range: Tuple[float, float] = (1.5e-4, 4e-4)
    p2_range: Tuple[float, float] = (4e-3, 1.1e-2)
    readout_range: Tuple[float, float] = (0.008, 0.025)
    measure_stark_range: Tuple[float, float] = (25.0 * KHZ, 60.0 * KHZ)


def synthetic_device(
    topology: Topology,
    name: str = "synthetic",
    seed: SeedLike = 0,
    profile: Optional[NoiseProfile] = None,
    collision_triples: Iterable[Tuple[int, int, int]] = (),
    nnn_background: bool = False,
) -> Device:
    """Sample a full device calibration for ``topology``.

    ``collision_triples`` are ``(a, middle, b)`` next-nearest-neighbor
    triples whose NNN ZZ is enhanced into the O(10 kHz) regime, emulating
    type-VI frequency collisions (paper Sec. III C / Fig. 4c). With
    ``nnn_background=True`` every NNN pair additionally gets a small
    background rate.
    """
    rng = as_generator(seed)
    profile = profile or NoiseProfile()

    def sample(rng_range: Tuple[float, float]) -> float:
        lo, hi = rng_range
        return float(rng.uniform(lo, hi))

    qubits = [
        QubitParams(
            t1=sample(profile.t1_range),
            t2=sample(profile.t2_range),
            quasistatic_sigma=sample(profile.quasistatic_sigma_range),
            parity_delta=sample(profile.parity_delta_range),
            readout_error=sample(profile.readout_range),
            p1=sample(profile.p1_range),
            measure_stark=sample(profile.measure_stark_range),
        )
        for _ in range(topology.num_qubits)
    ]
    pairs = {
        _key(a, b): PairParams(
            zz_rate=sample(profile.zz_range),
            stark_on_first=sample(profile.stark_range),
            stark_on_second=sample(profile.stark_range),
            p2=sample(profile.p2_range),
        )
        for a, b in topology.edges
    }
    nnn: Dict[Edge, float] = {}
    if nnn_background:
        for a, _mid, b in topology.next_nearest_pairs():
            nnn[_key(a, b)] = sample(profile.nnn_background_range)
    for a, _mid, b in collision_triples:
        nnn[_key(a, b)] = sample(profile.nnn_collision_range)
    return Device(name=name, topology=topology, qubits=qubits, pairs=pairs, nnn_zz=nnn)
