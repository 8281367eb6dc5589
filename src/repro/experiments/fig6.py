"""Fig. 6 reproduction: Floquet Ising boundary correlations.

``<X0 X5>`` versus Floquet step for the twirl-only baseline, CA-EC, and
CA-DD, against the ideal alternating +-1 signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..apps.ising import boundary_xx_label, ideal_boundary_xx, ising_circuit, ising_device
from ..runtime import Sweep, SweepResult, Task
from ..sim.executor import SimOptions

STRATEGIES = ("none", "ca_ec", "ca_dd")


@dataclass
class Fig6Result:
    steps: List[int]
    ideal: List[float]
    curves: Dict[str, List[float]] = field(default_factory=dict)
    sweep: Optional[SweepResult] = None

    def rows(self) -> List[str]:
        lines = [f"steps: {self.steps}", f"ideal: {self.ideal}"]
        for strategy, values in self.curves.items():
            lines.append(
                f"  {strategy:>8s}: " + " ".join(f"{v:+.3f}" for v in values)
            )
        return lines

    def to_json(self) -> Dict:
        return {
            "experiment": "fig6",
            "steps": self.steps,
            "ideal": self.ideal,
            "curves": self.curves,
            "sweep": self.sweep.to_json() if self.sweep else None,
        }


def run_fig6(
    num_qubits: int = 6,
    steps: Sequence[int] = (0, 1, 2, 3, 4, 5),
    shots: int = 20,
    realizations: int = 6,
    seed: int = 3001,
) -> Fig6Result:
    device = ising_device(num_qubits, seed=seed)
    observable = {"xx": boundary_xx_label(num_qubits)}
    sweep = Sweep(
        {"strategy": STRATEGIES, "step": list(steps)},
        lambda strategy, step: Task(
            ising_circuit(num_qubits, step),
            observables=observable,
            pipeline=strategy,
            realizations=realizations,
            seed=seed + step,
            name=f"{strategy}/d{step}",
        ),
        name="fig6",
    )
    swept = sweep.run(device, options=SimOptions(shots=shots))
    return Fig6Result(
        steps=list(steps),
        ideal=[ideal_boundary_xx(d) for d in steps],
        curves={s: swept.curve("xx", strategy=s) for s in STRATEGIES},
        sweep=swept,
    )
