"""Trotterized Heisenberg ring (paper Sec. V B / Fig. 7).

First-order Trotter dynamics of the isotropic Heisenberg model (eq. 7) on a
12-spin ring with periodic boundary conditions. On a heavy-hex embedding a
ring needs three layers of two-qubit unitaries per time step (edge
3-coloring); each layer leaves a third of the ring idle — exactly the
idle-pair context whose ``ZZ`` error CA-EC absorbs into the neighboring
Heisenberg interaction (the ``gamma`` angle of the canonical gate).

The per-step interaction is ``Ucan(a, a, a)`` with ``a = -J dt / 2`` on each
edge. Initial state: single spin flips at two antipodal sites, giving a
``<Z_2>`` signal with clear oscillations and spreading (the features the
paper recovers at d = 4).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..circuits.circuit import Circuit
from ..device.calibration import Device, NoiseProfile, synthetic_device
from ..device.topology import ring
from ..utils.units import KHZ


def heisenberg_params(jx: float, jy: float, jz: float, dt: float) -> Tuple[float, float, float]:
    """Canonical params of one Trotter step ``exp(i dt/2 (Jx XX + Jy YY + Jz ZZ))``.

    Matches the paper's convention ``alpha, beta, gamma = -J_i t / 2`` for the
    Hamiltonian of eq. (7) (note the overall ``-1/2`` in eq. 7).
    """
    return (jx * dt / 2.0, jy * dt / 2.0, jz * dt / 2.0)


def ring_edge_layers(num_qubits: int) -> List[List[Tuple[int, int]]]:
    """3-coloring of a ring's edges into gate layers (paper Fig. 7a).

    Edges ``(i, i+1 mod n)`` are assigned layer ``i mod 3``; for ``n``
    divisible by 3 this is a proper 3-coloring with every layer a matching.
    """
    if num_qubits % 3:
        raise ValueError("ring size must be divisible by 3 for 3 layers")
    layers: List[List[Tuple[int, int]]] = [[], [], []]
    for i in range(num_qubits):
        layers[i % 3].append((i, (i + 1) % num_qubits))
    return layers


def heisenberg_circuit(
    num_qubits: int,
    steps: int,
    coupling: float = 1.2,
    dt: float = 1.0,
    excited: Optional[Sequence[int]] = None,
) -> Circuit:
    """Stratified Trotter circuit for the Heisenberg ring.

    ``coupling`` is the isotropic ``J`` (the canonical angles per step are
    ``J * dt / 2`` on every axis, following eq. 5's convention). ``excited``
    lists the sites flipped to ``|1>`` initially.
    """
    if excited is None:
        excited = (0, num_qubits // 2)  # antipodal spin flips
    alpha, beta, gamma = heisenberg_params(coupling, coupling, coupling, dt)
    circ = Circuit(num_qubits)
    first = True
    for q in excited:
        circ.x(q, new_moment=first)
        first = False
    if first:
        circ.append_moment([])
    circ.append_moment([])
    for _ in range(steps):
        for layer in ring_edge_layers(num_qubits):
            for a, b in layer:
                circ.can(alpha, beta, gamma, a, b, new_moment=(a, b) == layer[0])
            circ.append_moment([])
    return circ


def site_z_label(num_qubits: int, site: int) -> str:
    """Pauli label of ``Z_site``."""
    label = ["I"] * num_qubits
    label[num_qubits - 1 - site] = "Z"
    return "".join(label)


def heisenberg_device(num_qubits: int = 12, seed: int = 31) -> Device:
    """A ring-topology device for the Heisenberg benchmark.

    Coherent-error dominated (hot always-on ZZ and slow Z noise), matching
    the paper's regime where the un-suppressed signal loses its features
    while suppression recovers them (Fig. 7c).
    """
    profile = NoiseProfile(
        zz_range=(80.0 * KHZ, 140.0 * KHZ),
        quasistatic_sigma_range=(8.0 * KHZ, 15.0 * KHZ),
        p2_range=(2e-3, 5e-3),
    )
    return synthetic_device(
        ring(num_qubits), name=f"heisenberg_ring_{num_qubits}", seed=seed,
        profile=profile,
    )


def equivalent_cnot_count(num_qubits: int, steps: int) -> int:
    """CNOT count of the 3-CNOT synthesis (paper: 180 CNOTs at n=12, d=5)."""
    return 3 * num_qubits * steps


def equivalent_cnot_depth(steps: int) -> int:
    """CNOT depth of the synthesis (paper: 45 at d=5)."""
    return 9 * steps
