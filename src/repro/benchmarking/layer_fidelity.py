"""Layer-fidelity benchmarking (paper Sec. V C / Fig. 8, after Ref. [27]).

A candidate layer of simultaneous two-qubit gates is benchmarked by:

1. partitioning the qubits into disjoint groups — gate pairs, adjacent idle
   pairs, and single idle qubits;
2. preparing every qubit in a random Pauli eigenstate;
3. applying the (twirled, strategy-dressed) layer ``2 d`` times — ECR layers
   are self-inverse, so even repetition counts implement the identity;
4. undoing the preparation and reading out each partition's Pauli
   polarization;
5. fitting each partition's polarization decay ``A * lambda^d`` and taking
   the layer fidelity as the product of the per-partition rates.

The error-mitigation sampling overhead for the layer is ``gamma =
LF**-2`` — the paper's quoted values (LF 0.648 -> gamma 2.38 etc.) follow
exactly this relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import gates as g
from ..circuits.circuit import Circuit, Instruction, Moment
from ..device.calibration import Device
from ..pauli.pauli import Pauli
from ..runtime import Sweep, SweepResult, Task, pipeline_for
from ..sim.executor import SimOptions
from ..utils.fitting import fit_exponential_decay
from ..utils.rng import SeedLike, as_generator

def _prep_gate(basis: str) -> g.Gate:
    """Gate preparing the +1 eigenstate of ``basis`` from ``|0>``."""
    if basis == "Z":
        return g.I
    if basis == "X":
        return g.H
    if basis == "Y":
        # |0> -> (|0> + i|1>)/sqrt(2): H then S.
        matrix = g.S_MAT @ g.H_MAT
        return g.Gate("prep_y", 1, matrix=matrix)
    raise ValueError(f"bad basis {basis!r}")


def _unprep_gate(basis: str) -> g.Gate:
    gate = _prep_gate(basis)
    if gate.matrix is None:
        raise ValueError("prep gate missing matrix")
    return g.Gate(f"un{gate.name}", 1, matrix=gate.matrix.conj().T)


@dataclass(frozen=True)
class LayerSpec:
    """A candidate layer: gate list over a device's qubits.

    ``gates`` entries are ``(name, control, target)`` with name ``"ecr"``
    (or ``"cx"``). All other device qubits are idle in the layer.
    """

    num_qubits: int
    gates: Tuple[Tuple[str, int, int], ...]

    def moment(self) -> Moment:
        instructions = []
        for name, control, target in self.gates:
            gate = g.ECR if name == "ecr" else g.CX
            instructions.append(Instruction(gate, (control, target)))
        return Moment(instructions)

    @property
    def active_qubits(self) -> frozenset:
        return frozenset(q for _n, c, t in self.gates for q in (c, t))


def partition_layer(spec: LayerSpec, device: Device) -> List[Tuple[int, ...]]:
    """Disjoint benchmark partitions: gate pairs, idle pairs, singles."""
    partitions: List[Tuple[int, ...]] = [
        (c, t) for _n, c, t in spec.gates
    ]
    idle = [q for q in range(spec.num_qubits) if q not in spec.active_qubits]
    used = set()
    for q in idle:
        if q in used:
            continue
        neighbor = next(
            (
                p
                for p in device.topology.neighbors(q)
                if p in idle and p not in used and p != q
            ),
            None,
        )
        if neighbor is None:
            partitions.append((q,))
            used.add(q)
        else:
            partitions.append((q, neighbor))
            used.update((q, neighbor))
    return partitions


def _survival_circuit(
    spec: LayerSpec, bases: Sequence[str], depth: int
) -> Circuit:
    """Prep random Pauli eigenstates, apply the layer ``2*depth`` times, undo."""
    circ = Circuit(spec.num_qubits)
    circ.append_moment(
        [
            Instruction(_prep_gate(b), (q,))
            for q, b in enumerate(bases)
            if _prep_gate(b).name != "id"
        ]
    )
    for _ in range(2 * depth):
        circ.moments.append(spec.moment())
        circ.append_moment([])
    circ.append_moment(
        [
            Instruction(_unprep_gate(b), (q,))
            for q, b in enumerate(bases)
            if _prep_gate(b).name != "id"
        ]
    )
    return circ


@dataclass
class LayerFidelityResult:
    """Per-partition decay rates and the aggregated layer fidelity."""

    partitions: List[Tuple[int, ...]]
    rates: Dict[Tuple[int, ...], float]
    layer_fidelity: float
    gamma: float
    curves: Dict[Tuple[int, ...], List[float]] = field(default_factory=dict)
    sweep: Optional[SweepResult] = None


def measure_layer_fidelity(
    spec: LayerSpec,
    device: Device,
    strategy="none",
    depths: Sequence[int] = (1, 2, 4, 8),
    samples: int = 6,
    options: Optional[SimOptions] = None,
    seed: SeedLike = 0,
) -> LayerFidelityResult:
    """Run the layer-fidelity protocol for one strategy.

    ``depths`` count layer *pairs* (each depth applies the layer ``2 d``
    times). The per-partition decay rate is normalized per single layer
    application: ``lambda_layer = rate ** (1 / 2)``.

    The ``(depth, sample)`` grid is a :class:`~repro.runtime.Sweep` whose
    builder compiles in grid order — one shared RNG stream draws the random
    bases, the twirl, and each point's simulator sub-seed exactly as the
    legacy sequential loop did — so the whole protocol is one batched
    runtime call and the configured worker count only changes wall time.
    """
    rng = as_generator(seed)
    options = options or SimOptions(shots=24)
    pipeline = pipeline_for(strategy)
    partitions = partition_layer(spec, device)
    observables = {}
    for part in partitions:
        label = ["I"] * spec.num_qubits
        for q in part:
            label[spec.num_qubits - 1 - q] = "Z"
        observables[str(part)] = Pauli.from_label("".join(label))

    def build(depth, sample):
        bases = ["XYZ"[rng.integers(3)] for _ in range(spec.num_qubits)]
        circuit = _survival_circuit(spec, bases, depth)
        compiled = pipeline.compile(circuit, device, seed=rng)
        sub_seed = int(rng.integers(0, 2**63 - 1))
        return Task(compiled, observables=observables, seed=sub_seed)

    swept = Sweep(
        {"depth": list(depths), "sample": list(range(samples))},
        build,
        name=f"layer_fidelity/{pipeline.name}",
    ).run(device, options=options)

    rates: Dict[Tuple[int, ...], float] = {}
    curves: Dict[Tuple[int, ...], List[float]] = {}
    for part in partitions:
        means = [
            float(np.mean(swept.curve(str(part), depth=d))) for d in depths
        ]
        curves[part] = means
        fit = fit_exponential_decay(list(depths), means, offset=0.0)
        # One depth unit = two layer applications.
        rates[part] = float(np.clip(fit.rate, 1e-6, 1.0)) ** 0.5

    layer_fidelity = float(np.prod([rates[p] for p in partitions]))
    gamma = layer_fidelity ** (-2.0)
    return LayerFidelityResult(
        partitions=partitions,
        rates=rates,
        layer_fidelity=layer_fidelity,
        gamma=gamma,
        curves=curves,
        sweep=swept,
    )


def overhead_reduction(gamma_ref: float, gamma_new: float, layers: int = 1) -> float:
    """Sampling-overhead reduction factor over ``layers`` circuit layers.

    Overhead scales exponentially in depth: ``(gamma_ref / gamma_new) **
    layers`` — the paper's ~7x and ~30x for 10 layers.
    """
    return (gamma_ref / gamma_new) ** layers
