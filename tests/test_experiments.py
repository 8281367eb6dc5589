"""Smoke tests for the experiment drivers (tiny parameters).

Each driver's defaults are its full-size figure, and the paper's claims are
asserted in ``tests/test_claims.py`` and the ``benchmarks/bench_fig*``
files; these verify that every driver runs end-to-end and reports sane
structures.
"""

import numpy as np
import pytest

from repro.experiments import (
    run_fig3,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_nnn_walsh,
    run_parity,
    run_stark,
    run_table1,
)


class TestFig3:
    def test_case1_only(self):
        result = run_fig3(
            depths=(0, 4), shots=8, realizations=2, cases=("case1_idle_pair",)
        )
        assert set(result.curves) == {"case1_idle_pair"}
        for curve in result.curves["case1_idle_pair"].values():
            assert len(curve) == 2
            assert curve[0] == pytest.approx(1.0, abs=0.05)
        assert result.rows()

    def test_case4_runs_twirled(self):
        result = run_fig3(
            depths=(0, 2), shots=6, realizations=2,
            cases=("case4_adjacent_controls",),
        )
        assert "ca_ec" in result.curves["case4_adjacent_controls"]


class TestFig4:
    def test_parity_beating_returns_series(self):
        data = run_parity(times=tuple(np.linspace(0, 4000, 12)), shots=24)
        assert len(data["signal"]) == 12

    def test_nnn_curves_present(self):
        result = run_nnn_walsh(depths=(0, 4), shots=8)
        assert set(result.curves) == {"none", "aligned", "staggered", "walsh"}

    @pytest.mark.slow
    def test_stark_matches_calibration(self):
        s = run_stark(times=tuple(np.linspace(500.0, 40000.0, 60)), shots=12)
        assert s.stark_shift == pytest.approx(s.calibrated_stark, rel=0.5)


class TestFig6:
    def test_rows_and_ideal(self):
        result = run_fig6(steps=(0, 1), shots=6, realizations=2)
        assert result.ideal == [1.0, -1.0]
        assert set(result.curves) == {"none", "ca_ec", "ca_dd"}
        assert result.rows()


class TestFig7:
    def test_small_ring(self):
        result = run_fig7(
            num_qubits=6, steps=(0, 1), shots=4, realizations=2
        )
        assert "ca_ec" in result.curves
        assert len(result.ideal) == 2
        assert result.fits["none"].rate <= 1.0
        assert result.rows()


class TestFig8:
    def test_two_strategies(self):
        result = run_fig8(
            depths=(1, 2), samples=2, shots=4, strategies=("none", "ca_ec")
        )
        table = dict((name, lf) for name, lf, _g in result.table())
        assert 0.0 < table["none"] <= 1.0
        assert result.rows()


class TestFig9:
    def test_peak_structure(self):
        result = run_fig9(estimates=[0.0, 1150.0, 2300.0], shots=40)
        assert result.peak_fidelity >= result.bare_fidelity
        assert len(result.fidelities) == 3
        assert result.rows()

    def test_peak_at_true_value(self):
        result = run_fig9(estimates=[0.0, 1150.0, 2300.0], shots=60)
        assert result.best_estimate == pytest.approx(1150.0)


class TestFig10:
    def test_curves(self):
        result = run_fig10(steps=(0, 1), shots=6, realizations=2)
        assert set(result.curves) == {"none", "ca_dd", "ca_ec", "ca_ec+dd"}
        for curve in result.curves.values():
            assert curve[0] == pytest.approx(1.0, abs=0.05)
        assert result.rows()


class TestTable1:
    def test_pattern(self):
        result = run_table1(depth=4, shots=24)
        rows = {r.error: r for r in result.entries}
        idle = rows["Z+ZZ (idle)"]
        assert idle.residual_ec < idle.residual_none
        assert idle.residual_dd < idle.residual_none
        parity = rows["Slow Z"]
        assert parity.residual_dd < parity.residual_ec  # EC can't fix slow Z
        assert result.rows()
