"""Fig. 4 reproduction: the smaller error mechanisms.

* (a) AC Stark shift: Ramsey FFT peak of a spectator with its neighbor idle
  versus driven; the shift should match the device's calibrated ~20 kHz.
* (b) Charge-parity beating: Ramsey fringe with a known applied rotation
  shows an envelope at the parity splitting ``delta``.
* (c) NNN ZZ suppression: a collision-enhanced next-nearest-neighbor pair
  needs a third Walsh color; aligned or 2-color staggered sequences leave
  residual error that the Walsh assignment removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..benchmarking.spectroscopy import StarkMeasurement, measure_stark_shift, parity_beating_signal
from ..circuits.circuit import Circuit
from ..compiler.dd import apply_dd_by_rule
from ..compiler.walsh import walsh_fractions
from ..device.calibration import synthetic_device
from ..device.topology import linear_chain
from ..runtime import Sweep, SweepResult, Task
from ..sim.executor import SimOptions
from ..utils.units import KHZ


def run_stark(
    seed: int = 2001,
    times: Sequence[float] = tuple(np.linspace(500.0, 60000.0, 100)),
    shots: int = 16,
) -> StarkMeasurement:
    """Fig. 4a: spectator fringe peak displaced from the always-on line.

    The time window must be long for the FFT to resolve a ~20 kHz shift
    (frequency resolution is the inverse of the window).
    """
    device = synthetic_device(linear_chain(3), name="fig4a", seed=seed)
    device = device.with_params(p1=0.0, p2=0.0)
    options = SimOptions(shots=shots, seed=seed)
    return measure_stark_shift(device, probe=0, neighbor=1, times=times, options=options)


def run_parity(
    seed: int = 2002,
    applied_khz: float = 250.0,
    delta_khz: float = 40.0,
    times: Sequence[float] = tuple(np.linspace(0.0, 20000.0, 120)),
    shots: int = 120,
) -> Dict[str, List[float]]:
    """Fig. 4b: beating Ramsey fringe from the shot-to-shot parity sign.

    Returns the time axis and signal; the beat envelope has frequency
    ``delta`` while the carrier oscillates at the applied frequency.
    """
    # Use an isolated qubit with an artificially visible parity splitting
    # (the effect's size varies between systems; see paper Sec. III C).
    device = synthetic_device(linear_chain(1), name="fig4b", seed=seed).with_params(
        parity_delta=delta_khz * KHZ,
        quasistatic_sigma=0.0,
        t1=float("inf"),
        t2=float("inf"),
        p1=0.0,
    )
    options = SimOptions(shots=shots, seed=seed)
    signal = parity_beating_signal(
        device, probe=0, times=times, applied_frequency=applied_khz * KHZ, options=options
    )
    return {"times": list(times), "signal": signal}


@dataclass
class NNNResult:
    """Fig. 4c fidelity curves per DD scheme."""

    depths: List[int]
    curves: Dict[str, List[float]] = field(default_factory=dict)
    sweep: Optional[SweepResult] = None

    def to_json(self) -> Dict:
        return {
            "experiment": "fig4c_nnn_walsh",
            "depths": self.depths,
            "curves": self.curves,
            "sweep": self.sweep.to_json() if self.sweep else None,
        }


def run_nnn_walsh(
    depths: Sequence[int] = (0, 8, 16, 24),
    tau: float = 500.0,
    nnn_khz: float = 15.0,
    seed: int = 2003,
    shots: int = 32,
) -> NNNResult:
    """Fig. 4c: three qubits with all-to-all ZZ (collision-enhanced NNN).

    Compares no DD, aligned DD, 2-color staggered DD (leaves the NNN pair
    unsuppressed: qubits 0 and 2 share a color), and the 3-color Walsh
    assignment.
    """
    device = synthetic_device(
        linear_chain(3),
        name="fig4c",
        seed=seed,
        collision_triples=[(0, 1, 2)],
    )
    # Pin the NNN rate for a controlled comparison.
    nnn = dict(device.nnn_zz)
    nnn[(0, 2)] = nnn_khz * KHZ
    device = replace(device, nnn_zz=nnn)

    schemes: Dict[str, Dict[int, tuple]] = {
        "none": {},
        "aligned": {0: (0.25, 0.75), 1: (0.25, 0.75), 2: (0.25, 0.75)},
        "staggered": {
            0: walsh_fractions(1),
            1: walsh_fractions(2),
            2: walsh_fractions(1),  # 2-coloring reuses color 1 on the NNN pair
        },
        "walsh": {
            0: walsh_fractions(1),
            1: walsh_fractions(2),
            2: walsh_fractions(3),
        },
    }

    def build(scheme, depth):
        assignment = schemes[scheme]
        circuit = _idle_ramsey_all(3, depth, tau)
        if assignment:
            dressed = apply_dd_by_rule(
                circuit,
                device,
                lambda _m, q: assignment.get(q),
                min_duration=tau / 2,
            )
        else:
            dressed = circuit
        return Task(
            dressed,
            bit_targets={"f": {0: 0, 1: 0, 2: 0}},
            seed=seed + depth,
            name=f"{scheme}/d{depth}",
        )

    swept = Sweep(
        {"scheme": list(schemes), "depth": list(depths)}, build, name="fig4c"
    ).run(device, options=SimOptions(shots=shots))
    return NNNResult(
        depths=list(depths),
        curves={name: swept.curve("f", scheme=name) for name in schemes},
        sweep=swept,
    )


def _idle_ramsey_all(num_qubits: int, depth: int, tau: float) -> Circuit:
    """All-qubit Ramsey: |+...+>, d idle intervals, return, check |0...0>."""
    circ = Circuit(num_qubits)
    for q in range(num_qubits):
        circ.h(q, new_moment=(q == 0))
    for _ in range(depth):
        for q in range(num_qubits):
            circ.delay(tau, q, new_moment=(q == 0))
        circ.append_moment([])
    for q in range(num_qubits):
        circ.h(q, new_moment=(q == 0))
    return circ


@dataclass
class Fig4Result:
    """Composite of the three Fig. 4 panels (for the CLI / JSON export)."""

    stark: StarkMeasurement
    parity: Dict[str, List[float]]
    nnn: NNNResult

    def rows(self) -> List[str]:
        signal = np.asarray(self.parity["signal"])
        lines = [
            f"[fig4a] stark shift: measured {self.stark.stark_shift / 1e-6:.1f} kHz, "
            f"calibrated {self.stark.calibrated_stark / 1e-6:.1f} kHz",
            f"[fig4b] parity beating: fringe range "
            f"[{signal.min():.2f}, {signal.max():.2f}]",
        ]
        for name, curve in self.nnn.curves.items():
            lines.append(
                f"[fig4c] {name:>10s}: " + " ".join(f"{v:.3f}" for v in curve)
            )
        return lines

    def to_json(self) -> Dict:
        return {
            "experiment": "fig4",
            "stark": {
                "driven_frequency": self.stark.driven_frequency,
                "always_on_reference": self.stark.always_on_reference,
                "calibrated_stark": self.stark.calibrated_stark,
                "stark_shift": self.stark.stark_shift,
            },
            "parity": {k: list(v) for k, v in self.parity.items()},
            "nnn": self.nnn.to_json(),
        }


def run_fig4(
    stark: Optional[Dict] = None,
    parity: Optional[Dict] = None,
    nnn: Optional[Dict] = None,
) -> Fig4Result:
    """All three Fig. 4 panels; each argument holds one panel's keyword
    overrides for :func:`run_stark`, :func:`run_parity` or
    :func:`run_nnn_walsh` (``None`` runs that panel at its defaults)."""
    return Fig4Result(
        stark=run_stark(**(stark or {})),
        parity=run_parity(**(parity or {})),
        nnn=run_nnn_walsh(**(nnn or {})),
    )
