"""Fig. 9 reproduction: error compensation for dynamic circuits.

Sweeps the compiler's estimate of the feedforward time against the true
hardware value: the CA-EC Bell fidelity peaks where the estimate matches
the truth (the paper's 1.15 us), far above the uncompensated baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..apps.dynamic import (
    bell_dynamic_circuit,
    bell_target_bits,
    compensated_circuit,
    conditionally_compensated_circuit,
    dynamic_device,
)
from ..runtime import Sweep, SweepResult, Task
from ..sim.executor import SimOptions


@dataclass
class Fig9Result:
    estimates: List[float]
    fidelities: List[float]
    bare_fidelity: float
    true_feedforward: float
    conditional_fidelity: float = 0.0
    sweep: Optional[SweepResult] = None

    @property
    def best_estimate(self) -> float:
        return self.estimates[int(np.argmax(self.fidelities))]

    @property
    def peak_fidelity(self) -> float:
        return float(max(self.fidelities))

    @property
    def improvement(self) -> float:
        return self.peak_fidelity / max(self.bare_fidelity, 1e-9)

    def rows(self) -> List[str]:
        lines = [
            f"bare fidelity: {self.bare_fidelity:.3f}",
            f"true feedforward: {self.true_feedforward:.0f} ns",
        ]
        for est, fid in zip(self.estimates, self.fidelities):
            lines.append(f"  tau_est = {est:7.0f} ns -> F = {fid:.3f}")
        lines.append(
            f"peak {self.peak_fidelity:.3f} at {self.best_estimate:.0f} ns "
            f"({self.improvement:.1f}x over bare)"
        )
        lines.append(
            "conditional-branch variant (Fig. 9b) at true timing: "
            f"F = {self.conditional_fidelity:.3f}"
        )
        return lines

    def to_json(self) -> Dict:
        return {
            "experiment": "fig9",
            "estimates": self.estimates,
            "fidelities": self.fidelities,
            "bare_fidelity": self.bare_fidelity,
            "conditional_fidelity": self.conditional_fidelity,
            "true_feedforward": self.true_feedforward,
            "sweep": self.sweep.to_json() if self.sweep else None,
        }


def run_fig9(
    estimates: Sequence[float] = tuple(np.linspace(0.0, 3000.0, 11)),
    true_feedforward: float = 1150.0,
    shots: int = 140,
    seed: int = 6001,
) -> Fig9Result:
    device = dynamic_device(feedforward_duration=true_feedforward)
    options = SimOptions(shots=shots, seed=seed)
    target = {"f": bell_target_bits()}

    # Bare baseline, the estimate sweep, and the conditional variant as one
    # single-axis sweep; every task reuses options.seed, as the legacy loop
    # did, so batching leaves the values untouched.
    def build(variant):
        if variant == "bare":
            return Task(bell_dynamic_circuit(), bit_targets=target, name="bare")
        if variant == "conditional":
            return Task(
                conditionally_compensated_circuit(device),
                bit_targets=target,
                name="conditional",
            )
        return Task(
            compensated_circuit(device, feedforward_estimate=variant),
            bit_targets=target,
            name=f"est={variant:.0f}",
        )

    estimates = [float(e) for e in estimates]
    swept = Sweep(
        {"variant": ["bare", *estimates, "conditional"]}, build, name="fig9"
    ).run(device, options=options)
    return Fig9Result(
        estimates=estimates,
        fidelities=[swept[e].values["f"] for e in estimates],
        bare_fidelity=swept["bare"].values["f"],
        true_feedforward=true_feedforward,
        conditional_fidelity=swept["conditional"].values["f"],
        sweep=swept,
    )
