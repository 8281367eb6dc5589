"""Pauli twirling of two-qubit gate layers (paper Sec. III A, Fig. 2).

Random Pauli gates are inserted before each 2q layer and undone after it
without changing the circuit's logic: for a Clifford gate the closing Pauli
is the conjugation of the opening one; for canonical (Heisenberg-type) and
``rzz`` gates the twirl group is the *correlated* Paulis ``P (x) P``, which
commute with the symmetric interaction.

The inserted Paulis are fused into the neighboring single-qubit layers, so
twirling costs nothing extra — exactly as on hardware. A :class:`TwirlRecord`
keeps the sampled labels per 2q layer for CA-EC's sign bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..circuits import gates as g
from ..circuits.circuit import Circuit, Instruction, Moment, layer_kind
from ..circuits.euler import euler_angles
from ..utils.rng import SeedLike, as_generator
from .conjugation import conjugate_through, is_supported

_PAULI_LABELS = "IXYZ"

# Gates whose twirl group is the correlated set {P(x)P}: any symmetric
# XX/YY/ZZ interaction commutes with P(x)P.
_SYMMETRIC_GATES = {"can", "rzz"}


@dataclass
class TwirlRecord:
    """Sampled twirl labels: 2q-layer moment index -> qubit -> (pre, post).

    ``pre`` is applied immediately before the layer (later in the preceding
    1q layer), ``post`` immediately after it.
    """

    frames: Dict[int, Dict[int, Tuple[str, str]]] = field(default_factory=dict)

    def pre_label(self, layer_index: int, qubit: int) -> str:
        return self.frames.get(layer_index, {}).get(qubit, ("I", "I"))[0]

    def post_label(self, layer_index: int, qubit: int) -> str:
        return self.frames.get(layer_index, {}).get(qubit, ("I", "I"))[1]


def sample_layer_twirl(
    moment: Moment, num_qubits: int, rng: np.random.Generator
) -> Dict[int, Tuple[str, str]]:
    """Sample (pre, post) Pauli labels for every qubit of one 2q layer.

    Idle qubits get a self-inverse twirl ``(p, p)``.
    """
    frame: Dict[int, Tuple[str, str]] = {}
    for inst in moment:
        if inst.gate.num_qubits != 2:
            continue
        a, b = inst.qubits
        name = inst.gate.name
        if is_supported(name):
            pre_a = _PAULI_LABELS[rng.integers(4)]
            pre_b = _PAULI_LABELS[rng.integers(4)]
            post_label, _sign = conjugate_through(name, pre_a + pre_b)
            frame[a] = (pre_a, post_label[0])
            frame[b] = (pre_b, post_label[1])
        elif name in _SYMMETRIC_GATES:
            p = _PAULI_LABELS[rng.integers(4)]
            frame[a] = (p, p)
            frame[b] = (p, p)
        else:
            raise ValueError(f"cannot twirl two-qubit gate {name!r}")
    occupied = moment.qubits
    for q in range(num_qubits):
        if q not in occupied:
            p = _PAULI_LABELS[rng.integers(4)]
            frame[q] = (p, p)
    return frame


def apply_twirl(
    circuit: Circuit,
    seed: SeedLike = None,
) -> Tuple[Circuit, TwirlRecord]:
    """Insert one random Pauli twirl into a stratified circuit.

    Returns a new circuit (same logical operation) plus the record of the
    sampled labels. Twirl Paulis are fused into adjacent 1q layers when one
    exists, and inserted as explicit tagged Pauli gates otherwise (e.g. next
    to delay layers in Ramsey-style circuits).
    """
    rng = as_generator(seed)
    out = circuit.copy()
    record = TwirlRecord()

    for index, moment in enumerate(out.moments):
        if layer_kind(moment) != "2q":
            continue
        frame = sample_layer_twirl(moment, out.num_qubits, rng)
        record.frames[index] = frame
        for qubit, (pre, post) in frame.items():
            if pre != "I":
                _compose_into_layer(out, index - 1, qubit, pre, position="pre")
            if post != "I":
                _compose_into_layer(out, index + 1, qubit, post, position="post")
    return out, record


def _compose_into_layer(
    circuit: Circuit, index: int, qubit: int, label: str, position: str
) -> None:
    """Fuse a twirl Pauli into the 1q layer at ``index``.

    ``position="pre"`` means the Pauli executes at the *end* of that layer
    (just before the following 2q layer); ``"post"`` at the *start*.
    """
    if not 0 <= index < len(circuit.moments):
        raise ValueError(f"no layer at index {index} to host a twirl Pauli")
    moment = circuit.moments[index]
    if layer_kind(moment) not in ("1q",):
        raise ValueError(
            f"moment {index} ({layer_kind(moment)}) cannot host a twirl Pauli"
        )
    existing = moment.instruction_on(qubit)
    if existing is None:
        moment.add(Instruction(g.pauli_gate(label), (qubit,), tag="twirl"))
        return
    if existing.gate.matrix is None:
        raise ValueError(f"cannot fuse twirl into {existing.gate.name}")
    matrix = np.asarray(existing.gate.matrix)
    moment.replace(
        existing,
        Instruction(
            _fused_gate(matrix.dtype, matrix.shape, matrix.tobytes(), label, position),
            (qubit,),
            condition=existing.condition,
            tag="twirl",
        ),
    )


@lru_cache(maxsize=4096)
def _fused_gate(
    dtype: np.dtype, shape: Tuple[int, ...], data: bytes, label: str, position: str
) -> g.Gate:
    """The ``u`` gate fusing Pauli ``label`` into a 1q gate's matrix.

    Memoized on the matrix bytes: a sweep fuses a few distinct (gate, Pauli)
    pairs hundreds of times per pass. The returned gate and its matrix are
    shared, and the matrix is read-only.
    """
    matrix = np.frombuffer(data, dtype=dtype).reshape(shape)
    pauli_matrix = g.PAULI_MATRICES[label]
    if position == "pre":
        fused = pauli_matrix @ matrix
    else:
        fused = matrix @ pauli_matrix
    angles = euler_angles(fused)
    gate = g.u(angles.theta, angles.phi, angles.lam)
    gate.matrix.setflags(write=False)
    return gate
