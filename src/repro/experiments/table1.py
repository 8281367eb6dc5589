"""Table I reproduction: the error taxonomy and what suppresses each term.

For every row of the paper's Table I we run a targeted micro-experiment and
report the residual error (1 - Ramsey fidelity) without suppression, with
the applicable EC treatment, and with the applicable DD treatment —
confirming the check/cross pattern:

====================  ===========================  =============  =========
Error                 Source                       EC             DD
====================  ===========================  =============  =========
Z (idle)              always-on coupling           phase shift    any
ZZ (idle)             always-on coupling           absorb         staggered
ZZ (active ctrl)      always-on coupling           commute/absorb  x
Stark Z               neighboring gate drive       phase shift    any
Slow Z                quasi-particles (parity)     x              any
NNN ZZ                frequency collisions         x              Walsh
====================  ===========================  =============  =========
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..benchmarking.ramsey import CASE_I, CASE_II, CASE_IV, ramsey_task
from ..device.calibration import Device, synthetic_device
from ..device.topology import linear_chain
from ..experiments.fig4 import NNNResult, run_nnn_walsh
from ..runtime import Sweep, SweepResult
from ..sim.executor import SimOptions
from ..utils.units import KHZ


@dataclass
class TableRow:
    error: str
    source: str
    ec_works: bool
    dd_works: bool
    residual_none: float
    residual_ec: Optional[float]
    residual_dd: Optional[float]


@dataclass
class Table1Result:
    entries: List[TableRow] = field(default_factory=list)
    sweep: Optional[SweepResult] = None
    nnn: Optional[NNNResult] = None

    def to_json(self) -> Dict:
        return {
            "experiment": "table1",
            "rows": [
                {
                    "error": row.error,
                    "source": row.source,
                    "ec_works": row.ec_works,
                    "dd_works": row.dd_works,
                    "residual_none": row.residual_none,
                    "residual_ec": row.residual_ec,
                    "residual_dd": row.residual_dd,
                }
                for row in self.entries
            ],
            "sweep": self.sweep.to_json() if self.sweep else None,
            "nnn": self.nnn.to_json() if self.nnn else None,
        }

    def rows(self) -> List[str]:
        header = (
            f"{'error':<14s} {'source':<22s} {'bare':>7s} {'EC':>7s} {'DD':>7s}"
        )
        lines = [header, "-" * len(header)]
        for row in self.entries:
            ec = f"{row.residual_ec:.3f}" if row.residual_ec is not None else "  n/a"
            dd = f"{row.residual_dd:.3f}" if row.residual_dd is not None else "  n/a"
            lines.append(
                f"{row.error:<14s} {row.source:<22s} "
                f"{row.residual_none:7.3f} {ec:>7s} {dd:>7s}"
            )
        return lines


def _clean_device(num_qubits: int, seed: int, parity_delta: float = 0.0) -> Device:
    """Coherent-error-only device for targeted characterization."""
    return synthetic_device(linear_chain(num_qubits), seed=seed).with_params(
        quasistatic_sigma=0.0,
        parity_delta=parity_delta,
        t1=float("inf"),
        t2=float("inf"),
        p1=0.0,
        readout_error=0.0,
        p2=0.0,
    )


def run_table1(depth: int = 8, shots: int = 48, seed: int = 8001) -> Table1Result:
    """Regenerate Table I's pattern from micro-experiments.

    Every Ramsey micro-experiment is one point of a single declarative
    :class:`~repro.runtime.Sweep` (each point carries its own device), so
    the whole table is one batched run plus the NNN Walsh sweep.
    """
    options = SimOptions(shots=shots, seed=seed)

    # Rows 1-2: idle pair (case I) carries both Z and ZZ; EC fixes both,
    # staggered DD fixes both, aligned DD would only fix Z.
    dev2 = _clean_device(2, seed)
    # Row 3: adjacent active controls (case IV): DD is not applicable.
    dev4 = _clean_device(4, seed + 1)
    # Row 4: Stark shift on a gate spectator (case II): both EC and DD work.
    dev3 = _clean_device(3, seed + 2)
    # Row 5: slow (parity) Z: random sign per shot -> EC cannot help, DD can.
    dev_parity = _clean_device(2, seed + 3, parity_delta=25.0 * KHZ)

    measurements = {
        "idle/none": (CASE_I, dev2, "none", False, 1),
        "idle/ca_ec": (CASE_I, dev2, "ca_ec", False, 1),
        "idle/staggered_dd": (CASE_I, dev2, "staggered_dd", False, 1),
        "active/none": (CASE_IV, dev4, "none", True, 10),
        "active/ca_ec": (CASE_IV, dev4, "ca_ec", True, 10),
        "stark/none": (CASE_II, dev3, "none", False, 1),
        "stark/ca_ec": (CASE_II, dev3, "ca_ec", False, 1),
        "stark/ca_dd": (CASE_II, dev3, "ca_dd", False, 1),
        "parity/none": (CASE_I, dev_parity, "none", False, 1),
        "parity/ca_ec": (CASE_I, dev_parity, "ca_ec", False, 1),
        "parity/staggered_dd": (CASE_I, dev_parity, "staggered_dd", False, 1),
    }

    def build(measurement):
        case, device, strategy, twirl, realizations = measurements[measurement]
        return ramsey_task(
            case, device, depth, strategy,
            twirl=twirl, realizations=realizations,
        )

    swept = Sweep(
        {"measurement": list(measurements)}, build, name="table1"
    ).run(options=options)
    residual = {name: 1.0 - swept[name].values["f"] for name in measurements}

    result = Table1Result(sweep=swept)
    result.entries.append(
        TableRow(
            "Z+ZZ (idle)", "always-on coupling", True, True,
            residual["idle/none"], residual["idle/ca_ec"],
            residual["idle/staggered_dd"],
        )
    )
    result.entries.append(
        TableRow(
            "ZZ (active)", "always-on coupling", True, False,
            residual["active/none"], residual["active/ca_ec"], None,
        )
    )
    result.entries.append(
        TableRow(
            "Stark Z", "neighboring gate", True, True,
            residual["stark/none"], residual["stark/ca_ec"],
            residual["stark/ca_dd"],
        )
    )
    result.entries.append(
        TableRow(
            "Slow Z", "quasi-particles", False, True,
            residual["parity/none"], residual["parity/ca_ec"],
            residual["parity/staggered_dd"],
        )
    )

    # Row 6: NNN ZZ needs the Walsh hierarchy; EC has no coupling to pulse.
    # The weak NNN rate needs a deeper window than the other rows to rise
    # above the stochastic floor.
    nnn = run_nnn_walsh(depths=(3 * depth,), seed=seed + 4, shots=shots)
    result.nnn = nnn
    bare = 1.0 - nnn.curves["none"][0]
    staggered = 1.0 - nnn.curves["staggered"][0]
    walsh = 1.0 - nnn.curves["walsh"][0]
    result.entries.append(
        TableRow("NNN ZZ", "freq. collisions", False, True, bare, None, walsh)
    )
    result.entries.append(
        TableRow("NNN ZZ(2col)", "freq. collisions", False, False, bare, None, staggered)
    )
    return result
