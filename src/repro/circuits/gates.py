"""Gate library.

Every gate is a :class:`Gate` carrying a name, parameters, and (for unitary
gates) a matrix. Two-qubit matrices use the convention that the **first
listed qubit is the left Kronecker factor**; the statevector engine maps this
onto its own axis ordering.

Non-unitary circuit elements (measurement, delays, dynamical-decoupling
sequences) are also gates here, distinguished by flags, so that a single
instruction container can hold everything that occupies a qubit in a moment.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

_SQ2 = math.sqrt(2.0)

# ---------------------------------------------------------------------------
# Elementary matrices
# ---------------------------------------------------------------------------

I2 = np.eye(2, dtype=complex)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
Y_MAT = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
S_MAT = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG_MAT = S_MAT.conj().T
T_MAT = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
SX_MAT = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
SXDG_MAT = SX_MAT.conj().T

PAULI_MATRICES = {"I": I2, "X": X_MAT, "Y": Y_MAT, "Z": Z_MAT}

#: Diagonal single-qubit gates realised as frame updates: they take no
#: wall-clock time, carry no gate error and commute with Z.
VIRTUAL_GATES = frozenset({"rz", "z", "s", "sdg", "t", "id"})


def ry_matrix(theta: float) -> np.ndarray:
    """``exp(-i theta Y / 2)``."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    """``exp(-i theta Z / 2)``."""
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )


def rzz_matrix(theta: float) -> np.ndarray:
    """``exp(-i theta Z(x)Z / 2)`` (diagonal)."""
    p = np.exp(-1j * theta / 2)
    m = np.exp(1j * theta / 2)
    return np.diag([p, m, m, p]).astype(complex)


CX_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ_MAT = np.diag([1, 1, 1, -1]).astype(complex)

# Echoed cross-resonance gate, Hermitian and locally equivalent to CNOT:
# ECR = (I(x)X + X(x)Y) / sqrt(2), first factor on the control qubit.
ECR_MAT = (np.kron(I2, X_MAT) + np.kron(X_MAT, Y_MAT)) / _SQ2


def canonical_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Canonical two-qubit gate ``exp[i(a XX + b YY + c ZZ)]`` (paper eq. 5).

    Memoized on the exact bit patterns of the three angles (so ``0.0`` and
    ``-0.0`` are distinct keys), because circuits and CA-EC rebuild the same
    few angles many times. The returned array is shared and read-only.
    """
    return _canonical_matrix(struct.pack("<3d", alpha, beta, gamma))


@lru_cache(maxsize=4096)
def _canonical_matrix(key: bytes) -> np.ndarray:
    alpha, beta, gamma = struct.unpack("<3d", key)
    xx = np.kron(X_MAT, X_MAT)
    yy = np.kron(Y_MAT, Y_MAT)
    zz = np.kron(Z_MAT, Z_MAT)
    generator = alpha * xx + beta * yy + gamma * zz
    # XX, YY, ZZ commute, and each squares to I, so expm splits exactly; use
    # eigen-free evaluation via the shared eigenbasis of the magic basis.
    from scipy.linalg import expm

    matrix = expm(1j * generator)
    matrix.setflags(write=False)
    return matrix


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic SU(2) rotation ``U(theta, phi, lam) = Rz(phi) Ry(theta) Rz(lam)``."""
    return rz_matrix(phi) @ ry_matrix(theta) @ rz_matrix(lam)


# ---------------------------------------------------------------------------
# Gate object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """An operation that occupies one or more qubits for a moment.

    Attributes:
        name: canonical lowercase name (``"ecr"``, ``"rz"``, ...).
        num_qubits: number of qubits the gate acts on.
        params: numeric parameters (rotation angles etc.).
        matrix: unitary matrix, or ``None`` for non-unitary elements.
        is_measurement: whether the gate collapses its qubit.
        is_delay: whether the gate is an explicit idle period (param is the
            duration in ns).
        dd_fractions: for dynamical-decoupling sequences, the time fractions
            within the moment at which (instantaneous) X pulses are applied.
        flip_fractions: time fractions at which the qubit's Z-error sign
            trajectory flips (for multi-qubit gates: per listed qubit).
        duration_override: explicit duration in ns (e.g. a DD sequence that
            fills a known idle window, or a pulse-stretched ``rzz``);
            ``None`` means the scheduler's default for the gate class.
        error_scale: multiplier on the gate's depolarizing probability; a
            pulse-stretched ``Rzz(theta)`` compensation uses
            ``|theta| / (pi/2)`` since its pulse is proportionally shorter
            than a full two-qubit gate (paper Sec. IV B).
    """

    name: str
    num_qubits: int
    params: Tuple[float, ...] = ()
    matrix: Optional[np.ndarray] = field(default=None, compare=False)
    is_measurement: bool = False
    is_delay: bool = False
    dd_fractions: Tuple[float, ...] = ()
    flip_fractions: Tuple[Tuple[float, ...], ...] = ()
    duration_override: Optional[float] = None
    error_scale: float = 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.params:
            args = ", ".join(f"{p:.4g}" for p in self.params)
            return f"{self.name}({args})"
        return self.name


# Fixed gates ---------------------------------------------------------------

I = Gate("id", 1, matrix=I2)
X = Gate("x", 1, matrix=X_MAT, flip_fractions=((0.5,),))
Y = Gate("y", 1, matrix=Y_MAT, flip_fractions=((0.5,),))
Z = Gate("z", 1, matrix=Z_MAT)
H = Gate("h", 1, matrix=H_MAT)
S = Gate("s", 1, matrix=S_MAT)
SDG = Gate("sdg", 1, matrix=SDG_MAT)
T = Gate("t", 1, matrix=T_MAT)
SX = Gate("sx", 1, matrix=SX_MAT)
SXDG = Gate("sxdg", 1, matrix=SXDG_MAT)

CX = Gate("cx", 2, matrix=CX_MAT, flip_fractions=((0.5,), (0.25, 0.75)))
CZ = Gate("cz", 2, matrix=CZ_MAT)

# The ECR gate's physical implementation contains an echo X pulse on the
# control halfway through, and rotary echo pulses on the target. These act as
# implicit DD (paper Sec. III B, cases II/III): the control's Z-error sign
# flips at tau_g/2 and the target's at tau_g/4 and 3 tau_g/4.
ECR = Gate("ecr", 2, matrix=ECR_MAT, flip_fractions=((0.5,), (0.25, 0.75)))

PAULI_GATES = {"I": I, "X": X, "Y": Y, "Z": Z}


# Parameterized constructors -------------------------------------------------


def rz(theta: float) -> Gate:
    """Z rotation by ``theta`` (virtual: zero duration, zero error)."""
    return Gate("rz", 1, params=(theta,), matrix=rz_matrix(theta))


def u(theta: float, phi: float, lam: float) -> Gate:
    """Generic single-qubit gate ``Rz(phi) Ry(theta) Rz(lam)``."""
    return Gate("u", 1, params=(theta, phi, lam), matrix=u_matrix(theta, phi, lam))


def rzz(theta: float) -> Gate:
    """ZZ rotation (used for explicit error-compensation insertions)."""
    return Gate("rzz", 2, params=(theta,), matrix=rzz_matrix(theta))


def canonical(alpha: float, beta: float, gamma: float) -> Gate:
    """Canonical two-qubit interaction ``exp[i(a XX + b YY + c ZZ)]``.

    On hardware this is synthesized from three CNOT/ECR pulses (paper
    Fig. 1d), so the gate carries 3x the two-qubit depolarizing error and —
    in the noise model — the dominant echo structure of its first CNOT:
    the first qubit's error sign flips at the midpoint (control echo) and
    the second's at the quarter points (target rotary), mirroring ECR. Its
    duration is likewise three 2q-gate lengths (``Durations.canonical_factor``).
    """
    return Gate(
        "can",
        2,
        params=(alpha, beta, gamma),
        matrix=canonical_matrix(alpha, beta, gamma),
        flip_fractions=((0.5,), (0.25, 0.75)),
        error_scale=3.0,
    )


def measure() -> Gate:
    """Computational-basis measurement."""
    return Gate("measure", 1, is_measurement=True)


def delay(duration: float) -> Gate:
    """Explicit idle period of ``duration`` ns."""
    return Gate("delay", 1, params=(float(duration),), is_delay=True)


def dd_sequence(
    fractions: Tuple[float, ...], duration: Optional[float] = None
) -> Gate:
    """A dynamical-decoupling sequence of X pulses at the given fractions.

    The net logical action is ``X`` for an odd number of pulses and identity
    for an even number; the sign-trajectory flips at each fraction are what
    suppress Z/ZZ error accumulation. ``duration`` pins the idle window's
    length when the sequence replaces an explicit delay.
    """
    fractions = tuple(float(f) for f in fractions)
    if any(not 0.0 <= f <= 1.0 for f in fractions):
        raise ValueError("DD pulse fractions must lie in [0, 1]")
    net = X_MAT if len(fractions) % 2 else I2
    return Gate(
        "dd",
        1,
        params=fractions,
        matrix=net,
        dd_fractions=fractions,
        flip_fractions=(fractions,),
        duration_override=duration,
    )


def stretched_rzz(theta: float, full_duration: float = 500.0) -> Gate:
    """Pulse-stretched ``Rzz(theta)`` for explicit error compensation.

    Modeled after the paper's native implementation via stretched CR pulses
    (Refs. [58, 59]): the depolarizing error scales with ``|theta|/(pi/2)``
    relative to a full two-qubit gate, which is what makes explicit
    compensation much cheaper than a 2-CNOT synthesis. The compensation is
    realized by stretching the pair's neighboring pulses, so it adds *gate*
    error but no extra wall-clock idle window for the rest of the device
    (``duration_override = 0``); ``full_duration`` only anchors the error
    scaling.
    """
    del full_duration  # kept for call-site clarity; error scale is relative
    scale = min(abs(theta) / (math.pi / 2.0), 1.0)
    return Gate(
        "rzz",
        2,
        params=(theta,),
        matrix=rzz_matrix(theta),
        duration_override=0.0,
        error_scale=scale,
    )


def pauli_gate(label: str) -> Gate:
    """Return the single-qubit Pauli gate for ``label`` in ``IXYZ``."""
    try:
        return PAULI_GATES[label.upper()]
    except KeyError:
        raise ValueError(f"not a Pauli label: {label!r}") from None
