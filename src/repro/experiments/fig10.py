"""Fig. 10 reproduction: combined CA-EC + CA-DD strategy.

``P00`` on the probe pair of the 6-qubit Floquet circuit versus depth. The
layer layout contains both an idle pair (DD territory) and adjacent ECR
controls (EC territory), so the combined strategy beats each constituent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..apps.floquet6 import floquet6_circuit, floquet6_device, probe_target_bits
from ..runtime import Sweep, SweepResult, Task
from ..sim.executor import SimOptions

STRATEGIES = ("none", "ca_dd", "ca_ec", "ca_ec+dd")


@dataclass
class Fig10Result:
    steps: List[int]
    curves: Dict[str, List[float]] = field(default_factory=dict)
    sweep: Optional[SweepResult] = None

    def mean_fidelity(self, strategy: str) -> float:
        return float(np.mean(self.curves[strategy]))

    def rows(self) -> List[str]:
        lines = [f"steps: {self.steps}"]
        for strategy, values in self.curves.items():
            formatted = " ".join(f"{v:.3f}" for v in values)
            lines.append(f"  {strategy:>9s}: {formatted}  (mean {np.mean(values):.3f})")
        return lines

    def to_json(self) -> Dict:
        return {
            "experiment": "fig10",
            "steps": self.steps,
            "curves": self.curves,
            "sweep": self.sweep.to_json() if self.sweep else None,
        }


def run_fig10(
    steps: Sequence[int] = (0, 1, 2, 3, 4, 5),
    shots: int = 24,
    realizations: int = 10,
    seed: int = 7001,
) -> Fig10Result:
    device = floquet6_device(seed=seed)
    target = {"p": probe_target_bits()}
    swept = Sweep(
        {"strategy": STRATEGIES, "step": list(steps)},
        lambda strategy, step: Task(
            floquet6_circuit(step),
            bit_targets=target,
            pipeline=strategy,
            realizations=realizations,
            seed=seed + step,
            name=f"{strategy}/d{step}",
        ),
        name="fig10",
    ).run(device, options=SimOptions(shots=shots))
    return Fig10Result(
        steps=list(steps),
        curves={
            s: [float(v) for v in swept.curve("p", strategy=s)]
            for s in STRATEGIES
        },
        sweep=swept,
    )
