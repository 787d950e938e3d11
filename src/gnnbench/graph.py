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

All types are immutable after construction and safe to share across
concurrent executors; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from .errors import CapacityError, FormatError, NormalizationError

# Dense materialization guard; the dense path exists as an oracle, not a
# production code path.
DEFAULT_DENSE_LIMIT = 4096


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
        src = _frozen(np.asarray(self.src, dtype=np.int64))
        dst = _frozen(np.asarray(self.dst, dtype=np.int64))
        if self.weights is None:
            weights = np.ones(len(src), dtype=np.float64)
        else:
            weights = np.asarray(self.weights)
        if weights.dtype.kind != "f":
            weights = weights.astype(np.float64)
        weights = _frozen(weights)
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CooGraph)
            and self.num_nodes == other.num_nodes
            and _bitwise_equal(self.src, other.src)
            and _bitwise_equal(self.dst, other.dst)
            and _bitwise_equal(self.weights, other.weights)
        )


def coo(num_nodes: int, src=(), dst=(), weights=None) -> CooGraph:
    """Convenience constructor; weights default to all ones."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if weights is None:
        weights = np.ones(len(src), dtype=np.float64)
    return CooGraph(num_nodes, src, dst, np.asarray(weights, dtype=np.float64))


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
        row_ptr = _frozen(np.asarray(self.row_ptr, dtype=np.int64))
        col_idx = _frozen(np.asarray(self.col_idx, dtype=np.int64))
        values = np.asarray(self.values)
        if values.dtype.kind != "f":
            values = values.astype(np.float64)
        values = _frozen(values)
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

    def astype(self, dtype) -> "CsrGraph":
        if self.values.dtype == np.dtype(dtype):
            return self
        return CsrGraph(self.num_rows, self.num_cols, self.row_ptr,
                        self.col_idx, self.values.astype(dtype))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CsrGraph)
            and self.num_rows == other.num_rows
            and self.num_cols == other.num_cols
            and _bitwise_equal(self.row_ptr, other.row_ptr)
            and _bitwise_equal(self.col_idx, other.col_idx)
            and _bitwise_equal(self.values, other.values)
        )


def _stable_node_order(nodes: np.ndarray, n: int) -> tuple:
    """``(order, row_ptr)`` of a stable counting sort of ``nodes``, whose
    values lie in ``[0, n)``, in O(e + n).

    ``order`` is ``np.argsort(nodes, kind="stable")``, and node ``v``'s
    positions in it run from ``row_ptr[v]`` up to ``row_ptr[v + 1]``. This
    is scipy's compiled COO-to-CSR conversion (``coo_tocsr``) of the ``n x
    e`` incidence matrix with a one at ``(nodes[k], k)``, called directly:
    its column indices are the permutation, and its row pointer the
    counts' prefix sum. The loop writes at ``row_ptr[nodes[k]]`` unchecked,
    so ``nodes`` must be in range, as ``CooGraph`` guarantees.
    """
    e = len(nodes)
    order = np.empty(e, dtype=np.int64)
    row_ptr = np.empty(n + 1, dtype=np.int64)
    # the matrix values are never read back, so one zero buffer serves as
    # their input and their output
    values = np.zeros(e, dtype=np.int8)
    _sparsetools.coo_tocsr(n, e, e, np.asarray(nodes, dtype=np.int64),
                           np.arange(e, dtype=np.int64), values,
                           row_ptr, order, values)
    return order, row_ptr


def coo_to_csr(g: CooGraph) -> CsrGraph:
    """Canonical CSR of the adjacency matrix: entry [dst][src] = summed weight.

    Row i lists the in-neighbors of node i; duplicate (src, dst) pairs are
    coalesced by summation in edge order.
    """
    n = g.num_nodes
    # stable passes by source, then destination: duplicates keep edge order
    by_src, _ = _stable_node_order(g.src, n)
    order = by_src[_stable_node_order(g.dst[by_src], n)[0]]
    rows = g.dst[order]
    cols = g.src[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    # accumulated into zeros, so a lone -0.0 weight coalesces to +0.0
    values = np.zeros(int(np.count_nonzero(first)), dtype=g.weights.dtype)
    np.add.at(values, np.cumsum(first) - 1, g.weights[order])
    rows = rows[first]
    cols = cols[first]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
    return CsrGraph(n, n, row_ptr, cols, values)


def csr_to_coo(a: CsrGraph) -> CooGraph:
    """Inverse of :func:`coo_to_csr` on canonical input (bitwise round trip)."""
    if a.num_rows != a.num_cols:
        raise FormatError(
            f"only square matrices convert to graphs, got {a.num_rows}x{a.num_cols}"
        )
    dst = np.repeat(np.arange(a.num_rows, dtype=np.int64), np.diff(a.row_ptr))
    return CooGraph(a.num_rows, a.col_idx.copy(), dst, a.values.copy())


def coo_to_dense(g: CooGraph, limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Materialize the [n x n] adjacency with entry [dst][src] = summed weight."""
    if g.num_nodes > limit:
        raise CapacityError(
            f"dense materialization of {g.num_nodes} nodes exceeds limit {limit}"
        )
    dense = np.zeros((g.num_nodes, g.num_nodes), dtype=g.weights.dtype)
    np.add.at(dense, (g.dst, g.src), g.weights)
    return dense


def csr_to_dense(a: CsrGraph, limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Materialize a CSR matrix densely (same guard as :func:`coo_to_dense`)."""
    if max(a.num_rows, a.num_cols) > limit:
        raise CapacityError(
            f"dense materialization of {a.num_rows}x{a.num_cols} exceeds limit {limit}"
        )
    dense = np.zeros((a.num_rows, a.num_cols), dtype=a.values.dtype)
    rows = np.repeat(np.arange(a.num_rows, dtype=np.int64), np.diff(a.row_ptr))
    dense[rows, a.col_idx] = a.values
    return dense


def add_self_loops(g: CooGraph) -> CooGraph:
    """Append a unit-weight loop (v, v) for every node lacking one.

    Existing self-loops are left untouched, so the operation is idempotent.
    Appended loops follow the original edges in ascending node order.
    """
    looped = np.unique(g.src[g.src == g.dst])
    missing = np.setdiff1d(np.arange(g.num_nodes, dtype=np.int64), looped,
                           assume_unique=True)
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
    "coo",
    "coo_to_csr",
    "csr_to_coo",
    "coo_to_dense",
    "csr_to_dense",
    "add_self_loops",
    "normalized_edges",
    "DEFAULT_DENSE_LIMIT",
]
