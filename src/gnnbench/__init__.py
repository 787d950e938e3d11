"""Framework-independent GNN inference kernels and benchmark suite.

Builds GCN, GIN, and GraphSAGE inference pipelines from four core kernels
(index_select, scatter, sgemm, and sparse multiplication) under both the
message-passing and sparse-matrix computational models, with an
instrumented runner producing per-kernel timing and operation-breakdown
reports.
"""

from .graph import CooGraph

__version__ = "0.1.0"
