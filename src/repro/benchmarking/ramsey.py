"""Ramsey characterization experiments (paper Fig. 3).

Probe qubits are prepared in ``|+>``, exposed to ``d`` repetitions of a
context (joint idling, ECR spectatorship, parallel ECRs with adjacent
controls), and rotated back; the Ramsey fidelity is the probability of
returning to ``|0...0>`` on the probes. Oscillations of the fidelity with
depth are the signature of coherent errors; different suppression
strategies are compared by how close the curve stays to 1.

The four contexts map to the paper's cases:

* case I   — two adjacent idle qubits (always-on ZZ + local Z),
* case II  — spectator of an ECR *control* (echo refocuses ZZ; Z remains),
* case III — spectator of an ECR *target* (rotary refocuses ZZ; Z remains),
* case IV  — adjacent *controls* of two parallel ECRs (ZZ re-exposed; DD
  impossible because the qubits are active — only EC helps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..circuits.circuit import Circuit
from ..device.calibration import Device
from ..runtime import Pipeline, Task, Twirl, pipeline_for
from ..utils.rng import SeedLike


@dataclass(frozen=True)
class RamseyCase:
    """A Ramsey context: circuit builder inputs plus probe qubits."""

    name: str
    num_qubits: int
    probes: Tuple[int, ...]


CASE_I = RamseyCase("case1_idle_pair", 2, (0, 1))
CASE_II = RamseyCase("case2_control_spectator", 3, (0,))
CASE_III = RamseyCase("case3_target_spectator", 3, (0,))
CASE_IV = RamseyCase("case4_adjacent_controls", 4, (1, 2))


def build_case_circuit(case: RamseyCase, depth: int, tau: float = 500.0) -> Circuit:
    """The Ramsey circuit for a case at the given depth.

    The circuit is in stratified-like form (1q moments between the repeated
    context moments) so that twirling / CA passes have their slots.
    """
    if case.name == CASE_I.name:
        circ = Circuit(2)
        circ.h(0)
        circ.h(1)
        for _ in range(depth):
            circ.delay(tau, 0, new_moment=True)
            circ.delay(tau, 1)
            circ.append_moment([])
        circ.h(0, new_moment=True)
        circ.h(1)
        return circ
    if case.name == CASE_II.name:
        # Qubit layout: 0 = spectator, 1 = control, 2 = target (chain).
        circ = Circuit(3)
        circ.h(0)
        for _ in range(depth):
            circ.ecr(1, 2, new_moment=True)
            circ.append_moment([])
        circ.h(0, new_moment=True)
        return circ
    if case.name == CASE_III.name:
        # Qubit layout: 0 = spectator, 1 = target, 2 = control.
        circ = Circuit(3)
        circ.h(0)
        for _ in range(depth):
            circ.ecr(2, 1, new_moment=True)
            circ.append_moment([])
        circ.h(0, new_moment=True)
        return circ
    if case.name == CASE_IV.name:
        # Chain 0-1-2-3: ECR(1->0) and ECR(2->3) put controls 1, 2 adjacent.
        # Each ECR is self-inverse, so even depths implement the identity on
        # the probes; use H on the controls to make a Ramsey fringe.
        circ = Circuit(4)
        circ.h(1)
        circ.h(2)
        for _ in range(depth):
            circ.ecr(1, 0, new_moment=True)
            circ.ecr(2, 3)
            circ.append_moment([])
        circ.h(1, new_moment=True)
        circ.h(2)
        return circ
    raise ValueError(f"unknown case {case.name}")


def ramsey_task(
    case: RamseyCase,
    device: Device,
    depth: int,
    strategy: str = "none",
    tau: float = 500.0,
    twirl: bool = False,
    realizations: int = 1,
    seed: SeedLike = 0,
) -> Task:
    """The runtime :class:`Task` for one Ramsey point.

    Collect tasks across cases, strategies, and depths and hand them to one
    batched :func:`repro.runtime.run` call — every point is independently
    seeded, so batching (at any worker count) leaves the values untouched.
    """
    pipeline = pipeline_for(strategy)
    if not twirl:
        pipeline = Pipeline([p for p in pipeline if not isinstance(p, Twirl)], name=strategy)
        realizations = 1  # compilation is deterministic without twirling
    return Task(
        build_case_circuit(case, depth, tau),
        bit_targets={"f": {q: 0 for q in case.probes}},
        pipeline=pipeline,
        realizations=max(realizations, 1),
        seed=seed,
        device=device,
        name=f"{case.name}/{strategy}/d{depth}",
    )
