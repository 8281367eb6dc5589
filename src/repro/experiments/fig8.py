"""Fig. 8 reproduction: layer fidelity of a sparse 10-qubit layer.

The benchmarked layer mirrors the paper's: three ECR gates and four idle
qubits arranged so that two ECR *controls* are adjacent (their mutual ZZ is
invisible to DD — CA-EC's advantage in this layer) and two idle qubits are
adjacent (the classic staggering target). Reports LF and ``gamma = LF**-2``
per strategy, plus the overhead-reduction factors for a 10-layer circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..benchmarking.layer_fidelity import (
    LayerFidelityResult,
    LayerSpec,
    measure_layer_fidelity,
    overhead_reduction,
)
from ..device.calibration import Device, synthetic_device
from ..device.topology import Topology
from ..sim.executor import SimOptions

STRATEGIES = ("none", "dd", "ca_dd", "ca_ec")


def fig8_device(seed: int = 5001) -> Device:
    """A 10-qubit device shaped like the paper's nazca sublayout.

    Qubits 0-3 form the top row (paper's 37-40), 5-9 the bottom row
    (56-60), and qubit 4 the bridge (52) linking the two rows.
    """
    edges = [
        (0, 1), (1, 2), (2, 3),          # top row
        (5, 6), (6, 7), (7, 8), (8, 9),  # bottom row
        (0, 4), (4, 5),                  # bridge column
    ]
    return synthetic_device(Topology(10, edges), name="fig8_layer", seed=seed)


def fig8_layer() -> LayerSpec:
    """Three ECRs: controls on 0 and 1 are adjacent; 6,7 idle together.

    Gates: ECR(0 -> 4), ECR(1 -> 2), ECR(8 -> 9); idle: 3, 5, 6, 7.
    """
    return LayerSpec(
        num_qubits=10,
        gates=(("ecr", 0, 4), ("ecr", 1, 2), ("ecr", 8, 9)),
    )


@dataclass
class Fig8Result:
    results: Dict[str, LayerFidelityResult] = field(default_factory=dict)

    def table(self) -> List[Tuple[str, float, float]]:
        """Rows of ``(strategy, layer_fidelity, gamma)``."""
        return [
            (name, res.layer_fidelity, res.gamma)
            for name, res in self.results.items()
        ]

    def reduction(self, reference: str, strategy: str, layers: int = 10) -> float:
        return overhead_reduction(
            self.results[reference].gamma, self.results[strategy].gamma, layers
        )

    def rows(self) -> List[str]:
        lines = ["strategy        LF      gamma"]
        for name, lf, gamma in self.table():
            lines.append(f"{name:>12s}  {lf:.3f}  {gamma:.2f}")
        if "dd" in self.results:
            for strategy in ("ca_dd", "ca_ec"):
                if strategy in self.results:
                    lines.append(
                        f"overhead reduction {strategy} vs dd over 10 layers: "
                        f"{self.reduction('dd', strategy, 10):.1f}x"
                    )
        return lines

    def to_json(self) -> Dict:
        return {
            "experiment": "fig8",
            "strategies": {
                name: {
                    "layer_fidelity": res.layer_fidelity,
                    "gamma": res.gamma,
                    "rates": {str(p): r for p, r in res.rates.items()},
                    "curves": {str(p): c for p, c in res.curves.items()},
                    "sweep": res.sweep.to_json() if res.sweep else None,
                }
                for name, res in self.results.items()
            },
        }


def run_fig8(
    depths: Sequence[int] = (1, 2, 4, 6),
    samples: int = 6,
    shots: int = 12,
    seed: int = 5001,
    strategies: Sequence[str] = STRATEGIES,
) -> Fig8Result:
    device = fig8_device(seed)
    spec = fig8_layer()
    options = SimOptions(shots=shots)
    result = Fig8Result()
    for strategy in strategies:
        result.results[strategy] = measure_layer_fidelity(
            spec,
            device,
            strategy,
            depths=depths,
            samples=samples,
            options=options,
            seed=seed,
        )
    return result
