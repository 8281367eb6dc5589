"""The paper's qualitative claims, asserted on the figure drivers.

This is the one place the claims of Seif et al., arXiv:2403.06852, are
asserted for the cheap figures (a few seconds in all), so they are checked
on every tier-1 run. Each test calls its driver at its defaults, which are
the full-size figure ``python -m repro.experiments`` prints; Fig. 3 runs one
case at a time, Fig. 9's conditional claim runs at the true feedforward
time alone, and the parity claim keeps a longer record that resolves the
beat. Figs. 7, 8 and 10 are too slow for tier-1; their claims are asserted
in ``benchmarks/``.

Tier-1 runs each driver on its default seed. Each docstring also records
the claim's worst-case margin (how far the tightest assert is from failing)
over five driver seeds: the default and the next four, passed as the
driver's ``seed``. Two claims fail on one of those seeds; their docstrings
say so, and the assert is left as it is.
"""

import numpy as np
import pytest

from repro.experiments import (
    run_fig3,
    run_fig6,
    run_fig9,
    run_nnn_walsh,
    run_parity,
    run_stark,
    run_table1,
)
from repro.utils.fitting import dominant_frequency


def _fig3(case):
    result = run_fig3(cases=(case,))
    return result.depths, result.curves[case]


class TestFig3Ramsey:
    """Fig. 3c-f: staggered DD and EC hold up where bare and aligned DD
    collapse; in case IV only EC helps."""

    def test_case1_idle_pair(self):
        """Seeds 1001-1005: staggered DD and CA-EC beat bare at depth 12 by
        at least 0.008 and 0.015 (seed 1004; 0.450 and 0.434 at 1001), and
        EC + aligned DD stays above 0.8 by at least 0.059 (seed 1005)."""
        depths, curves = _fig3("case1_idle_pair")
        worst = depths.index(12)
        assert curves["staggered_dd"][worst] > curves["none"][worst]
        assert curves["ca_ec"][worst] > curves["none"][worst]
        assert min(curves["ec+aligned_dd"]) > 0.8

    def test_case2_control_spectator(self):
        """Seeds 1001-1005: fails on seed 1002, where CA-DD ends 0.032 below
        bare (0.939 vs 0.971; bare barely decays on that device) and CA-EC
        leads by only 0.010. Margins at 1001: 0.115 and 0.128."""
        _, curves = _fig3("case2_control_spectator")
        assert curves["ca_dd"][-1] > curves["none"][-1]
        assert curves["ca_ec"][-1] > curves["none"][-1]

    def test_case3_target_spectator(self):
        """Seeds 1001-1005: fails on seed 1002, where CA-DD ends 0.035 below
        bare (0.939 vs 0.974) and CA-EC leads by only 0.005. Margins at
        1001: 0.117 and 0.152."""
        _, curves = _fig3("case3_target_spectator")
        assert curves["ca_dd"][-1] > curves["none"][-1]
        assert curves["ca_ec"][-1] > curves["none"][-1]

    def test_case4_adjacent_controls(self):
        """Seeds 1001-1005: CA-EC's summed curve beats bare by at least
        0.080 (seed 1005; 0.274 at 1001)."""
        _, curves = _fig3("case4_adjacent_controls")
        assert sum(curves["ca_ec"]) > sum(curves["none"])


class TestFig4MinorErrors:
    def test_stark_shift(self):
        """Fig. 4a: the spectator fringe moves by the calibrated Stark shift.

        Seeds 2001-2005: the fit stays inside the 10 kHz tolerance by at
        least 4.6 kHz (seed 2004; 7.0 kHz at 2001)."""
        result = run_stark()
        assert result.stark_shift == np.float64(result.stark_shift)
        assert abs(result.stark_shift - result.calibrated_stark) < 10e-6

    def test_parity_beating(self):
        """Fig. 4b / eq. 6: the charge-parity sign splits the fringe into
        sidebands a beat away from the applied tone.

        Seeds 2002-2006: the beat is inside its 25 kHz tolerance by at least
        17.5 kHz (seed 2006), and the envelope dips below 0.75 by at least
        0.61 (seed 2003)."""
        applied, delta = 250.0, 40.0  # kHz
        data = run_parity(
            applied_khz=applied, delta_khz=delta,
            times=tuple(np.linspace(0.0, 50000.0, 200)), shots=96,
        )
        signal = np.asarray(data["signal"])
        peak = dominant_frequency(data["times"], signal)
        assert abs(peak - applied * 1e-6) / 1e-6 == pytest.approx(delta, abs=25.0)
        envelope_min = np.min(np.abs(signal[:180]).reshape(30, 6).max(axis=1))
        assert envelope_min < 0.75

    def test_nnn_walsh_hierarchy(self):
        """Fig. 4c: on the collision triple, 3-colour Walsh DD beats 2-colour
        staggered DD, which beats aligned DD and no DD.

        Seeds 2003-2007: the tightest margin is staggered over aligned,
        0.058 at the default seed 2003 (0.42 or more elsewhere); Walsh
        beats staggered by at least 0.144 (seed 2004)."""
        curves = run_nnn_walsh().curves
        assert curves["walsh"][-1] > curves["staggered"][-1]
        assert curves["staggered"][-1] > curves["none"][-1]
        assert curves["staggered"][-1] > curves["aligned"][-1]


def test_fig6_ising_boundary_correlator():
    """Fig. 6: CA-EC and CA-DD both recover the alternating boundary
    correlator better than the twirl-only baseline.

    Seeds 3001-3005: the total error drops by at least 0.376 (CA-EC) and
    0.294 (CA-DD), both at the default seed 3001."""
    result = run_fig6()
    ideal = np.asarray(result.ideal)

    def total_error(name):
        return float(np.sum(np.abs(np.asarray(result.curves[name]) - ideal)))

    assert total_error("ca_ec") < total_error("none")
    assert total_error("ca_dd") < total_error("none")


class TestFig9Dynamic:
    def test_feedforward_calibration_sweep(self):
        """Fig. 9c: bare fidelity collapses (paper 9.5%), CA-EC recovers it
        (paper 78.1%), and the sweep peaks at the true feedforward time.

        Seeds 6001-6005: bare stays under 0.2 by at least 0.060 and the
        improvement over 4 by at least 2.1 (both seed 6004); the peak clears
        0.75 by at least 0.104 (seed 6002); the best estimate is within
        50 ns of the true time on every seed (250 ns inside the bound)."""
        result = run_fig9()
        assert result.bare_fidelity < 0.2
        assert result.peak_fidelity > 0.75
        assert result.improvement > 4.0
        assert abs(result.best_estimate - result.true_feedforward) <= 300.0

    def test_conditional_variant_matches(self):
        """Fig. 9b: the conditional-branch construction performs like the
        generic CA-EC compilation at the true feedforward time.

        Seeds 6001-6005: the two agree within 0.08 by at least 0.017 (seed
        6003; 0.044 at 6001)."""
        result = run_fig9(estimates=[1150.0])
        assert result.conditional_fidelity == pytest.approx(
            result.fidelities[0], abs=0.08
        )


def test_table1_error_taxonomy():
    """Table 1: each error source yields to the techniques marked with a
    check and resists the ones marked with a cross.

    Seeds 8001-8005: the tightest row is Stark Z, whose EC and DD residuals
    stay under 0.2 x bare by at least 0.006 (seed 8004; 0.051 at 8001).
    Every other assert keeps at least 0.065 (active ZZ, seed 8004)."""
    rows = {r.error: r for r in run_table1().entries}

    idle = rows["Z+ZZ (idle)"]
    assert idle.residual_ec < 0.2 * idle.residual_none
    assert idle.residual_dd < 0.2 * idle.residual_none

    active = rows["ZZ (active)"]
    assert active.residual_ec < active.residual_none

    stark = rows["Stark Z"]
    assert stark.residual_ec < 0.2 * stark.residual_none
    assert stark.residual_dd < 0.2 * stark.residual_none

    slow = rows["Slow Z"]
    assert slow.residual_dd < slow.residual_ec

    nnn = rows["NNN ZZ"]
    nnn2 = rows["NNN ZZ(2col)"]
    assert nnn.residual_dd < nnn.residual_none
    assert nnn.residual_dd < nnn2.residual_dd + 0.05
