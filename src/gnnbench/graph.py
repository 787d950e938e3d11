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
import scipy.sparse

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


def csr_identity(n: int, dtype=np.float64) -> CsrGraph:
    """The n-by-n identity matrix in canonical CSR form."""
    return CsrGraph(n, n, np.arange(n + 1), np.arange(n), np.ones(n, dtype=dtype))


def _stable_node_order(nodes: np.ndarray, n: int) -> np.ndarray:
    """``np.argsort(nodes, kind="stable")`` for values in ``[0, n)``, in O(e + n).

    Row ``v`` of the ``n x e`` incidence matrix holds a one at each column
    ``k`` with ``nodes[k] == v``; its canonical CSR lists each row's columns
    in ascending order, so its column indices are that permutation.
    """
    e = len(nodes)
    incidence = scipy.sparse.coo_array(
        (np.ones(e, dtype=np.int8), (nodes, np.arange(e))), shape=(n, e))
    return incidence.tocsr().indices.astype(np.int64, copy=False)


def sort_by_destination(g: CooGraph) -> CooGraph:
    """The edges stably sorted by destination (each keeps its edges' order)."""
    order = _stable_node_order(g.dst, g.num_nodes)
    return CooGraph(g.num_nodes, g.src[order], g.dst[order], g.weights[order])


def coo_to_csr(g: CooGraph) -> CsrGraph:
    """Canonical CSR of the adjacency matrix: entry [dst][src] = summed weight.

    Row i lists the in-neighbors of node i; duplicate (src, dst) pairs are
    coalesced by summation in edge order.
    """
    n = g.num_nodes
    # stable passes by source, then destination: duplicates keep edge order
    by_src = _stable_node_order(g.src, n)
    order = by_src[_stable_node_order(g.dst[by_src], n)]
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


def compute_degrees(g: CooGraph) -> np.ndarray:
    """Weighted in-degree per node: degrees[i] = sum of weights into i.

    Equals the row sums of the adjacency built by :func:`coo_to_csr`; for
    unit weights this is the plain in-edge count.
    """
    degrees = np.bincount(g.dst, weights=g.weights, minlength=g.num_nodes)
    return degrees.astype(g.weights.dtype, copy=False)


def sym_norm_coefficients(g: CooGraph, degrees: np.ndarray) -> np.ndarray:
    """Per-edge coefficient 1/sqrt(d_src * d_dst).

    Requires strictly positive degrees at both endpoints of every edge, as
    self-loop insertion gives unit-weight graphs, and a product of the two
    that neither underflows to zero nor overflows to infinity.
    """
    d_src = degrees[g.src]
    d_dst = degrees[g.dst]
    with np.errstate(over="ignore"):
        product = d_src * d_dst
    bad = np.flatnonzero((d_src <= 0) | (d_dst <= 0) | (product == 0)
                         | ~np.isfinite(product))
    if len(bad):
        k = int(bad[0])
        raise NormalizationError(
            f"edge {k} ({int(g.src[k])} -> {int(g.dst[k])}) joins degrees "
            f"{d_src[k]} and {d_dst[k]}, whose product is not a positive "
            "finite number"
        )
    return 1.0 / np.sqrt(product)


def normalized_edges(g: CooGraph) -> CooGraph:
    """Self-looped edge list with every weight scaled by 1/sqrt(d_src * d_dst).

    Inserts self-loops and computes weighted degrees on the result; the
    edges keep the order :func:`add_self_loops` gives them.
    """
    looped = add_self_loops(g)
    coeff = sym_norm_coefficients(looped, compute_degrees(looped))
    return CooGraph(looped.num_nodes, looped.src, looped.dst,
                    looped.weights * coeff)


def normalized_adjacency(g: CooGraph) -> CsrGraph:
    """Symmetrically normalized adjacency with self-loops inserted, in
    canonical CSR form: the CSR of :func:`normalized_edges`."""
    return coo_to_csr(normalized_edges(g))


__all__ = [
    "CooGraph",
    "CsrGraph",
    "coo",
    "csr_identity",
    "coo_to_csr",
    "sort_by_destination",
    "csr_to_coo",
    "coo_to_dense",
    "csr_to_dense",
    "add_self_loops",
    "compute_degrees",
    "sym_norm_coefficients",
    "normalized_edges",
    "normalized_adjacency",
    "DEFAULT_DENSE_LIMIT",
]
