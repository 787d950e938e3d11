"""Graph representations and conversions.

Three interchangeable representations flow between kernels:

- ``CooGraph``: coordinate edge list (src, dst, weight triples). Duplicate
  edges are permitted and contribute independently.
- ``CsrGraph``: compressed sparse row adjacency in canonical form (columns
  strictly increasing within each row, duplicates coalesced by summation).
- dense ``numpy.ndarray``: materialized adjacency, used as a test oracle and
  guarded by a node-count limit.

Edge direction convention: messages flow src -> dst, and adjacency rows
index the destination, i.e. row i of the CSR matrix lists the in-neighbors
of node i. With that convention a sparse-times-dense product against the
feature matrix directly produces per-node aggregations.

Both edge layouts the models read are built here, from one primitive,
``_node_sort``: scipy's compiled stable counting sort (``coo_tocsr``) by a
node array, which moves the edges' other endpoints and weights as its
payload and returns them with the row pointer, in O(e + n) and with no
permutation to gather by. :func:`coo_to_csr`, the sparse-matrix layout, is
one of its passes, by source, followed by scipy's compiled stable
transpose and duplicate sum; :func:`coo_to_incidence`, the message-passing
layout (a :class:`MessagePassing`), is one pass by destination.

The graph types, ``CooGraph``, ``CsrGraph`` and ``MessagePassing``, are
all immutable after construction, with read-only arrays, and safe to share
across concurrent executors; each compares equal only to its own type with
the same bytes. :func:`frozen` and :func:`bitwise_eq` are those two
contracts, public so that ``models.LayerParams`` keeps them too. Every
operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse import _sparsetools

from .errors import CapacityError, FormatError, NormalizationError

# Dense materialization guard; the dense path exists as an oracle, not a
# production code path.
DEFAULT_DENSE_LIMIT = 4096


def frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only C-contiguous array; one that is already
    C-contiguous is marked read-only in place, not copied."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _frozen_floats(a) -> np.ndarray:
    """``a`` as a read-only float array; any other dtype becomes float64."""
    a = np.asarray(a)
    return frozen(a if a.dtype.kind == "f" else a.astype(np.float64))


def _contents(v):
    return (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v


def bitwise_eq(self, other) -> bool:
    """The ``__eq__`` of every graph type and of ``models.LayerParams``: the
    same type, equal fields, and arrays of the same dtype, shape and bytes,
    so ``-0.0`` and ``+0.0`` differ and a float32 copy never equals its
    float64 source."""
    return type(other) is type(self) and all(
        _contents(getattr(self, f.name)) == _contents(getattr(other, f.name))
        for f in fields(self))


@dataclass(frozen=True, eq=False)
class CooGraph:
    """Edge-list graph: ``weights[k]`` sits on the edge ``src[k] -> dst[k]``.

    The constructor takes ownership of its arrays and marks them read-only.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        src = frozen(np.asarray(self.src, dtype=np.int64))
        dst = frozen(np.asarray(self.dst, dtype=np.int64))
        weights = _frozen_floats(np.ones(len(src)) if self.weights is None
                                 else self.weights)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weights", weights)
        if self.num_nodes < 0:
            raise FormatError("num_nodes must be non-negative")
        if not (src.ndim == dst.ndim == weights.ndim == 1):
            raise FormatError("src, dst, and weights must be one-dimensional")
        if not (len(src) == len(dst) == len(weights)):
            raise FormatError(
                f"edge array lengths differ: src {len(src)}, dst {len(dst)}, "
                f"weights {len(weights)}"
            )
        if len(src) and (src.min() < 0 or src.max() >= self.num_nodes):
            raise FormatError("src index out of range [0, num_nodes)")
        if len(dst) and (dst.min() < 0 or dst.max() >= self.num_nodes):
            raise FormatError("dst index out of range [0, num_nodes)")
        if not np.isfinite(weights).all():
            k = int(np.flatnonzero(~np.isfinite(weights))[0])
            raise FormatError(f"edge {k} has non-finite weight {weights[k]}")

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def astype(self, dtype) -> "CooGraph":
        """Same graph with edge weights cast to ``dtype``."""
        if self.weights.dtype == np.dtype(dtype):
            return self
        return CooGraph(self.num_nodes, self.src, self.dst,
                        self.weights.astype(dtype))

    __eq__ = bitwise_eq


@dataclass(frozen=True, eq=False)
class CsrGraph:
    """Canonical compressed sparse row matrix.

    Invariants: ``row_ptr[0] == 0``, non-decreasing, ``row_ptr[-1] == nnz``;
    column indices strictly increasing within each row (duplicates were
    coalesced by summation when the matrix was built). The constructor takes
    ownership of its arrays and marks them read-only.
    """

    num_rows: int
    num_cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        row_ptr = frozen(np.asarray(self.row_ptr, dtype=np.int64))
        col_idx = frozen(np.asarray(self.col_idx, dtype=np.int64))
        values = _frozen_floats(self.values)
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col_idx", col_idx)
        object.__setattr__(self, "values", values)
        if self.num_rows < 0 or self.num_cols < 0:
            raise FormatError("matrix dimensions must be non-negative")
        if not (row_ptr.ndim == col_idx.ndim == values.ndim == 1):
            raise FormatError("row_ptr, col_idx and values must be one-dimensional")
        if len(row_ptr) != self.num_rows + 1:
            raise FormatError(
                f"row_ptr length {len(row_ptr)} != num_rows + 1 = {self.num_rows + 1}"
            )
        if len(row_ptr) == 0 or row_ptr[0] != 0:
            raise FormatError("row_ptr must start at 0")
        if np.any(np.diff(row_ptr) < 0):
            raise FormatError("row_ptr must be non-decreasing")
        nnz = int(row_ptr[-1])
        if len(col_idx) != nnz or len(values) != nnz:
            raise FormatError(
                f"nnz mismatch: row_ptr ends at {nnz}, col_idx has {len(col_idx)}, "
                f"values has {len(values)}"
            )
        if nnz and (col_idx.min() < 0 or col_idx.max() >= self.num_cols):
            raise FormatError("col_idx out of range [0, num_cols)")
        if nnz > 1:
            # strictly increasing inside each row: a non-increase is only
            # legal where a new row starts
            increase = col_idx[1:] > col_idx[:-1]
            row_start = np.zeros(nnz - 1, dtype=bool)
            starts = row_ptr[1:-1]
            row_start[starts[(starts > 0) & (starts < nnz)] - 1] = True
            if not np.all(increase | row_start):
                raise FormatError("col_idx not strictly increasing within a row")

    @property
    def nnz(self) -> int:
        return len(self.col_idx)

    __eq__ = bitwise_eq


def _node_sort(nodes: np.ndarray, n: int, cols: np.ndarray,
               values: np.ndarray) -> tuple:
    """``(row_ptr, cols, values)`` of a stable counting sort by ``nodes``,
    whose values lie in ``[0, n)``, in O(e + n).

    ``cols`` and ``values`` come back in the order ``np.argsort(nodes,
    kind="stable")`` gives them, and node ``v``'s entries run from
    ``row_ptr[v]`` up to ``row_ptr[v + 1]``. This is scipy's compiled
    COO-to-CSR conversion (``coo_tocsr``) called directly, with ``cols`` and
    ``values`` as the payload it moves: one pass, with no permutation to
    gather by. The loop writes at ``row_ptr[nodes[k]]`` unchecked, so
    ``nodes`` must be in range, as ``CooGraph`` guarantees; ``nodes`` and
    ``cols`` are int64.
    """
    e = len(nodes)
    row_ptr = np.empty(n + 1, dtype=np.int64)
    sorted_cols = np.empty(e, dtype=np.int64)
    sorted_values = np.empty(e, dtype=values.dtype)
    _sparsetools.coo_tocsr(n, n, e, nodes, cols, values,
                           row_ptr, sorted_cols, sorted_values)
    return row_ptr, sorted_cols, sorted_values


def coo_to_csr(g: CooGraph) -> CsrGraph:
    """Canonical CSR of the adjacency matrix: entry [dst][src] = summed weight.

    Row i lists the in-neighbors of node i; duplicate (src, dst) pairs are
    coalesced by summation in edge order.
    """
    n, e = g.num_nodes, g.num_edges
    row_ptr = np.empty(n + 1, dtype=np.int64)
    cols = np.empty(e, dtype=np.int64)
    values = np.empty(e, dtype=g.weights.dtype)
    # sorted by source, then transposed by scipy's stable csr_tocsc: each
    # row lists its sources in order, and duplicates keep edge order
    _sparsetools.csr_tocsc(n, n, *_node_sort(g.src, n, g.dst, g.weights),
                           row_ptr, cols, values)
    # sums each run of a repeated column in place, w1 + w2 + ... in edge
    # order; adding +0.0 then gives ((0 + w1) + w2) + ..., so a sum of
    # -0.0 weights, or a lone one, coalesces to +0.0
    _sparsetools.csr_sum_duplicates(n, n, row_ptr, cols, values)
    nnz = row_ptr[n]
    values = values[:nnz]
    values += 0.0
    return CsrGraph(n, n, row_ptr, cols[:nnz], values)


@dataclass(frozen=True, eq=False)
class MessagePassing:
    """Edges as the message-passing model reads them, stably sorted by
    destination. The constructor takes ownership of ``src`` and marks it
    read-only."""

    src: np.ndarray       # the source node of each edge, in that order
    incidence: CsrGraph   # destination x edge; values are the edge weights

    def __post_init__(self):
        object.__setattr__(self, "src", frozen(self.src))

    @property
    def num_rows(self) -> int:
        """The node count: one incidence row per destination."""
        return self.incidence.num_rows

    __eq__ = bitwise_eq


def coo_to_incidence(g: CooGraph) -> MessagePassing:
    """The edges sorted by destination: their sources, and the destination
    x edge incidence whose values are their weights.

    Each destination keeps its edges in edge-list order.
    """
    n, e = g.num_nodes, g.num_edges
    row_ptr, src, weights = _node_sort(g.dst, n, g.src, g.weights)
    return MessagePassing(src, CsrGraph(
        n, e, row_ptr, np.arange(e, dtype=np.int64), weights))


def coo_to_dense(g: CooGraph) -> np.ndarray:
    """Materialize the [n x n] adjacency with entry [dst][src] = summed weight;
    CapacityError past ``DEFAULT_DENSE_LIMIT`` nodes."""
    if g.num_nodes > DEFAULT_DENSE_LIMIT:
        raise CapacityError(f"dense materialization of {g.num_nodes} nodes "
                            f"exceeds limit {DEFAULT_DENSE_LIMIT}")
    dense = np.zeros((g.num_nodes, g.num_nodes), dtype=g.weights.dtype)
    np.add.at(dense, (g.dst, g.src), g.weights)
    return dense


def add_self_loops(g: CooGraph) -> CooGraph:
    """Append a unit-weight loop (v, v) for every node lacking one.

    Existing self-loops are left untouched, so the operation is idempotent.
    Appended loops follow the original edges in ascending node order.
    """
    looped = np.zeros(g.num_nodes, dtype=bool)
    looped[g.src[g.src == g.dst]] = True
    missing = np.flatnonzero(~looped)
    if len(missing) == 0:
        return g
    src = np.concatenate([g.src, missing])
    dst = np.concatenate([g.dst, missing])
    weights = np.concatenate([g.weights, np.ones(len(missing), dtype=g.weights.dtype)])
    return CooGraph(g.num_nodes, src, dst, weights)


def normalized_edges(g: CooGraph) -> CooGraph:
    """GCN's normalized edge list: self-loops added, then each weight scaled
    by 1/sqrt(d_src * d_dst), d being the looped graph's weighted in-degree.

    The edges keep the order :func:`add_self_loops` gives them, so input
    edges keep their indices. Raises :class:`NormalizationError` naming the
    first edge with a non-positive or overflowing degree at either end, a
    degree product that underflows to zero or overflows, or a scaled weight
    that is not finite.
    """
    looped = add_self_loops(g)
    n = looped.num_nodes
    dtype = looped.weights.dtype
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        degrees = np.bincount(looped.dst, weights=looped.weights,
                              minlength=n).astype(dtype, copy=False)
        d_src = degrees[looped.src]
        d_dst = degrees[looped.dst]
        product = d_src * d_dst
        weights = looped.weights * (1.0 / np.sqrt(product))
    bad = np.flatnonzero((d_src <= 0) | (d_dst <= 0) | (product == 0)
                         | ~np.isfinite(product) | ~np.isfinite(weights))
    if len(bad):
        k = int(bad[0])
        raise NormalizationError(
            f"edge {k} ({int(looped.src[k])} -> {int(looped.dst[k])}) of "
            f"weight {looped.weights[k]} joins degrees {d_src[k]} and "
            f"{d_dst[k]}; normalization needs positive degrees whose product "
            "is finite and nonzero, and a finite scaled weight"
        )
    return CooGraph(n, looped.src, looped.dst, weights)


__all__ = [
    "CooGraph",
    "CsrGraph",
    "MessagePassing",
    "coo_to_csr",
    "coo_to_incidence",
    "coo_to_dense",
    "add_self_loops",
    "normalized_edges",
    "bitwise_eq",
    "frozen",
    "DEFAULT_DENSE_LIMIT",
]
