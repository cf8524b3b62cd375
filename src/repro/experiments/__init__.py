"""Experiment harness: one module per table/figure in the paper's evaluation.

``python -m repro.experiments`` lists every module with the first line of
its docstring.
"""

from . import (availability, common, fig2, fig8, fig9, fig10, fig11,
               fig12, table2)

__all__ = ["availability", "common", "fig2", "fig8", "fig9", "fig10",
           "fig11", "fig12", "table2"]
