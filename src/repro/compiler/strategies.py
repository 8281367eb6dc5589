"""End-to-end compilation strategies.

A :class:`Strategy` names one suppression pipeline from the paper's
comparisons:

========================  =========================================
``none``                  Pauli twirling only (the paper's baseline
                          "no suppression except readout + twirling")
``dd``                    context-unaware aligned X2 DD on all idles
``staggered_dd``          context-unaware staggered DD (2-coloring)
``ca_dd``                 Algorithm 1 (Walsh sequences by coloring)
``ca_ec``                 Algorithm 2 (absorb/insert compensations)
``ca_ec+dd``              CA-DD first, CA-EC mops up the residual
                          (the combined strategy of Sec. V E)
``ec+aligned_dd``         aligned DD plus error compensation — the
                          "simple DD + EC matches fancy DD" curve of
                          Fig. 3c
========================  =========================================

Each realization samples a fresh Pauli twirl, then inserts DD, then runs
CA-EC (which sees the twirl Paulis and DD pulses, as Algorithm 2 requires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Strategy:
    """One suppression pipeline: DD flavor + EC toggle + twirl toggle."""

    name: str
    dd: str = "none"  # none | aligned | staggered | ca
    ec: bool = False
    twirl: bool = True

    def __post_init__(self):
        if self.dd not in ("none", "aligned", "staggered", "ca"):
            raise ValueError(f"unknown dd flavor {self.dd!r}")


STRATEGIES: Dict[str, Strategy] = {
    "none": Strategy("none"),
    "dd": Strategy("dd", dd="aligned"),
    "staggered_dd": Strategy("staggered_dd", dd="staggered"),
    "ca_dd": Strategy("ca_dd", dd="ca"),
    "ca_ec": Strategy("ca_ec", ec=True),
    "ca_ec+dd": Strategy("ca_ec+dd", dd="ca", ec=True),
    "ec+aligned_dd": Strategy("ec+aligned_dd", dd="aligned", ec=True),
}


def get_strategy(name_or_strategy) -> Strategy:
    if isinstance(name_or_strategy, Strategy):
        return name_or_strategy
    try:
        return STRATEGIES[name_or_strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name_or_strategy!r}; "
            f"choose from {sorted(STRATEGIES)}"
        ) from None

