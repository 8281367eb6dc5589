"""Fig. 3 reproduction: Ramsey characterization of the four error contexts.

Produces fidelity-vs-depth series for each case and strategy set:

* case I   (panel c): noisy / aligned DD / staggered DD / EC / EC+aligned DD
* case II  (panel d): noisy / DD / EC          (control spectator)
* case III (panel e): noisy / DD / EC          (target spectator)
* case IV  (panel f): noisy / EC               (adjacent controls; DD n/a)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..benchmarking.ramsey import CASE_I, CASE_II, CASE_III, CASE_IV, RamseyCase, ramsey_task
from ..device.calibration import synthetic_device
from ..device.topology import linear_chain
from ..runtime import Sweep, SweepResult
from ..sim.executor import SimOptions

CASE_STRATEGIES: Dict[str, List[str]] = {
    CASE_I.name: ["none", "dd", "staggered_dd", "ca_ec", "ec+aligned_dd"],
    CASE_II.name: ["none", "ca_dd", "ca_ec"],
    CASE_III.name: ["none", "ca_dd", "ca_ec"],
    CASE_IV.name: ["none", "ca_ec"],
}

CASES: Dict[str, RamseyCase] = {
    c.name: c for c in (CASE_I, CASE_II, CASE_III, CASE_IV)
}


@dataclass
class Fig3Result:
    """Per-case, per-strategy fidelity series."""

    depths: List[int]
    curves: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    sweep: Optional[SweepResult] = None

    def rows(self) -> List[str]:
        lines = []
        for case_name, by_strategy in self.curves.items():
            lines.append(f"[{case_name}] depths={self.depths}")
            for strategy, values in by_strategy.items():
                formatted = " ".join(f"{v:.3f}" for v in values)
                lines.append(f"  {strategy:>14s}: {formatted}")
        return lines

    def to_json(self) -> Dict:
        return {
            "experiment": "fig3",
            "depths": self.depths,
            "curves": self.curves,
            "sweep": self.sweep.to_json() if self.sweep else None,
        }


def run_fig3(
    depths: Sequence[int] = (0, 4, 8, 12, 16, 20),
    tau: float = 500.0,
    shots: int = 32,
    realizations: int = 6,
    seed: int = 1001,
    cases: Sequence[str] = tuple(CASES),
) -> Fig3Result:
    """Run all Ramsey contexts; depths should be even (case IV self-inverts).

    The gate-context cases (II-IV) run twirled — as in the paper's layered
    workflow, and necessary for case IV, whose repeated untwirled layer
    accidentally echoes away its own control-control ZZ.

    The whole figure is one declarative :class:`~repro.runtime.Sweep` over
    (case, strategy, depth) — strategies that don't apply to a case are
    skipped points — and every point is an independently seeded
    :class:`~repro.runtime.Task`, so the grid compiles and simulates as a
    single batched run that parallelizes across the configured worker
    count (:func:`repro.runtime.configure`).
    """
    devices = {
        name: synthetic_device(
            linear_chain(CASES[name].num_qubits),
            name=f"fig3_{name}",
            seed=seed + CASES[name].num_qubits,
        )
        for name in cases
    }
    strategies = list(
        dict.fromkeys(s for name in cases for s in CASE_STRATEGIES[name])
    )

    def build(case, strategy, depth):
        if strategy not in CASE_STRATEGIES[case]:
            return None
        twirl = case != CASE_I.name
        return ramsey_task(
            CASES[case],
            devices[case],
            depth,
            strategy,
            tau=tau,
            twirl=twirl,
            realizations=realizations if twirl else 1,
            seed=seed,
        )

    sweep = Sweep(
        {"case": list(cases), "strategy": strategies, "depth": list(depths)},
        build,
        name="fig3",
    )
    swept = sweep.run(options=SimOptions(shots=shots))
    result = Fig3Result(depths=list(depths), sweep=swept)
    for case_name in cases:
        result.curves[case_name] = {
            strategy: [
                float(v)
                for v in swept.curve("f", case=case_name, strategy=strategy)
            ]
            for strategy in CASE_STRATEGIES[case_name]
        }
    return result
