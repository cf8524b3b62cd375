"""Experiment harness: one module per table/figure in the paper's evaluation.

=============  ===========================================================
Module         Reproduces
=============  ===========================================================
``fig2``       Figure 2(a)/(b): multi-tenant MongoDB latency root cause
``fig8``       Figure 8(a)/(b): gWRITE / gMEMCPY latency vs message size
``table2``     Table 2: gCAS latency statistics
``fig9``       Figure 9: gWRITE throughput + backup CPU vs message size
``fig10``      Figure 10(a)/(b): tail latency vs replication group size
``fig11``      Figure 11: replicated RocksDB latency, three systems
``fig12``      Figure 12: MongoDB latency across YCSB workloads
=============  ===========================================================
"""

from . import (availability, common, fig2, fig8, fig9, fig10, fig11,
               fig12, table2)

__all__ = ["availability", "common", "fig2", "fig8", "fig9", "fig10",
           "fig11", "fig12", "table2"]
