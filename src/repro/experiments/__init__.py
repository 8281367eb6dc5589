"""Experiment drivers: one per paper figure/table."""

from .fig3 import CASES, CASE_STRATEGIES, Fig3Result, run_fig3
from .fig4 import Fig4Result, NNNResult, run_fig4, run_nnn_walsh, run_parity, run_stark
from .fig6 import Fig6Result, run_fig6
from .fig7 import Fig7Result, run_fig7
from .fig8 import Fig8Result, fig8_device, fig8_layer, run_fig8
from .fig9 import Fig9Result, run_fig9
from .fig10 import Fig10Result, run_fig10
from .table1 import Table1Result, TableRow, run_table1

__all__ = [
    "CASES",
    "CASE_STRATEGIES",
    "Fig3Result",
    "run_fig3",
    "Fig4Result",
    "run_fig4",
    "NNNResult",
    "run_nnn_walsh",
    "run_parity",
    "run_stark",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "fig8_device",
    "fig8_layer",
    "run_fig8",
    "Fig9Result",
    "run_fig9",
    "Fig10Result",
    "run_fig10",
    "Table1Result",
    "TableRow",
    "run_table1",
]
