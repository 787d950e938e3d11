"""Framework-independent GNN inference kernels and benchmark suite.

Builds GCN, GIN, and GraphSAGE inference pipelines from four core kernels
(index_select, scatter, sgemm, and sparse multiplication) under both the
message-passing and sparse-matrix computational models, with an
instrumented runner producing per-kernel timing and operation-breakdown
reports.
"""

from .bench import (
    Instrumentation,
    KernelStats,
    RunReport,
    instrumented_run,
    parse_report_json,
)
from .data import DatasetRecord, gen_er_graph, gen_features, load_edge_list, \
    load_features, registry
from .errors import (
    CapacityError,
    ConfigError,
    ConsistencyError,
    FormatError,
    IndexRangeError,
    NormalizationError,
    ParseError,
    ShapeError,
)
from .graph import (
    CooGraph,
    CsrGraph,
    add_self_loops,
    coo,
    coo_to_csr,
    coo_to_dense,
    normalized_edges,
)
from .kernels import (
    OpCounters,
    ReduceOp,
    index_select,
    scatter,
    sgemm,
    spmm,
)
from .models import (
    Activation,
    CompModel,
    LayerParams,
    Model,
    ModelSpec,
    forward,
    init_weights,
    relu,
    sigmoid,
)

__version__ = "0.1.0"
