"""Fig. 7 reproduction: Heisenberg ring dynamics and mitigation overhead.

Panel (c): ``<Z2>`` versus Trotter step for ideal / twirl-only / uniform DD
/ CA-DD / CA-EC. Panel (d): the global-depolarizing mitigation overhead of
each strategy, and the reduction factors relative to no suppression and to
context-unaware DD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..apps.heisenberg import heisenberg_circuit, heisenberg_device, site_z_label
from ..benchmarking.mitigation import DepolarizingFit, fit_global_depolarizing
from ..runtime import Sweep, SweepResult, Task
from ..sim.executor import SimOptions

STRATEGIES = ("none", "dd", "ca_dd", "ca_ec")


@dataclass
class Fig7Result:
    steps: List[int]
    ideal: List[float]
    curves: Dict[str, List[float]] = field(default_factory=dict)
    fits: Dict[str, DepolarizingFit] = field(default_factory=dict)
    sweep: Optional[SweepResult] = None
    ideal_sweep: Optional[SweepResult] = None

    def overhead_at(self, strategy: str, depth: float) -> float:
        return self.fits[strategy].overhead(depth)

    def reduction_over(self, reference: str, strategy: str, depth: float) -> float:
        """Overhead reduction factor of ``strategy`` versus ``reference``."""
        return self.overhead_at(reference, depth) / self.overhead_at(strategy, depth)

    def rows(self) -> List[str]:
        lines = [f"steps: {self.steps}"]
        lines.append("ideal:   " + " ".join(f"{v:+.3f}" for v in self.ideal))
        for strategy, values in self.curves.items():
            lines.append(
                f"{strategy:>8s}: " + " ".join(f"{v:+.3f}" for v in values)
            )
        depth = self.steps[-1]
        for strategy in self.curves:
            if strategy == "none":
                continue
            lines.append(
                f"overhead reduction {strategy} vs none @d={depth}: "
                f"{self.reduction_over('none', strategy, depth):.2f}x"
            )
        return lines

    def to_json(self) -> Dict:
        return {
            "experiment": "fig7",
            "steps": self.steps,
            "ideal": self.ideal,
            "curves": self.curves,
            "sweep": self.sweep.to_json() if self.sweep else None,
            "ideal_sweep": self.ideal_sweep.to_json() if self.ideal_sweep else None,
        }


def run_fig7(
    num_qubits: int = 12,
    steps: Sequence[int] = (0, 1, 2, 3, 4, 5),
    site: int = 2,
    shots: int = 14,
    realizations: int = 10,
    seed: int = 4001,
    coupling: float = 1.2,
) -> Fig7Result:
    device = heisenberg_device(num_qubits, seed=seed)
    observable = {"z": site_z_label(num_qubits, site)}
    ideal_device = device.ideal()
    ideal_swept = Sweep(
        {"step": list(steps)},
        lambda step: Task(
            heisenberg_circuit(num_qubits, step, coupling=coupling),
            observables=observable,
            device=ideal_device,
        ),
        name="fig7/ideal",
    ).run(options=SimOptions(shots=1, seed=0))
    ideal = ideal_swept.curve("z")
    result = Fig7Result(
        steps=list(steps), ideal=ideal, ideal_sweep=ideal_swept
    )
    swept = Sweep(
        {"strategy": STRATEGIES, "step": list(steps)},
        lambda strategy, step: Task(
            heisenberg_circuit(num_qubits, step, coupling=coupling),
            observables=observable,
            pipeline=strategy,
            realizations=realizations,
            seed=seed + step,
            name=f"{strategy}/d{step}",
        ),
        name="fig7",
    ).run(device, options=SimOptions(shots=shots))
    result.sweep = swept
    for strategy in STRATEGIES:
        values = swept.curve("z", strategy=strategy)
        result.curves[strategy] = values
        result.fits[strategy] = fit_global_depolarizing(steps, values, ideal)
    return result
