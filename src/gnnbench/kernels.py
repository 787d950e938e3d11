"""Core computational kernels with analytic operation counters.

The four primitives every pipeline decomposes into:

- ``index_select``: gather rows of a dense matrix by an index vector,
- ``scatter``: segment-reduce rows back onto destinations (sum/mean/max),
- ``sgemm``: dense matrix multiplication,
- ``spmm`` / ``spgemm``: sparse-times-dense and sparse-times-sparse products.

Every kernel is a pure function and bitwise deterministic: accumulation
order is fixed (ascending edge index, or CSR storage order) regardless of
how the work might be partitioned, so repeated runs on identical inputs
produce identical bytes.

Each kernel has a companion ``*_counters`` function giving the closed-form
operation counts of one call. These formulas are the normative definition
of the cost model (a portable stand-in for instruction-level profiling):

==============  ==========  ============  ==================  =========
kernel          fp_ops      int_ops       loads               stores
==============  ==========  ============  ==================  =========
index_select    0           e*(f+1)       e*(f+1)             e*f
scatter (sum)   e*f         e*(f+1)       e*(f+1)             e*f
scatter (mean)  e*f + n*f   e*(f+1)       e*(f+1)             e*f
sgemm           2*m*k*n     m*n           2*m*k*n             m*n
spmm            2*nnz*f     nnz*(f+1)     nnz*(f+1) + nnz*f   n*f
spgemm          2*w         w + nnz_a     2*w + 2*nnz_a       nnz_out
==============  ==========  ============  ==================  =========

where ``w`` is the spgemm multiply-add work, the number of (a-entry,
b-entry) contribution pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IndexRangeError, ShapeError
from .graph import CsrGraph

__all__ = [
    "ReduceOp",
    "OpCounters",
    "index_select",
    "scatter",
    "sgemm",
    "spmm",
    "spgemm",
    "index_select_counters",
    "scatter_counters",
    "sgemm_counters",
    "spmm_counters",
    "spgemm_counters",
    "spgemm_work",
]


class ReduceOp(Enum):
    """Aggregator applied by :func:`scatter`."""

    SUM = "sum"
    MEAN = "mean"
    MAX = "max"


@dataclass
class OpCounters:
    """Analytic operation counts; additive across kernel invocations."""

    fp_ops: int = 0
    int_ops: int = 0
    loads: int = 0
    stores: int = 0

    def __add__(self, other: "OpCounters") -> "OpCounters":
        return OpCounters(
            self.fp_ops + other.fp_ops,
            self.int_ops + other.int_ops,
            self.loads + other.loads,
            self.stores + other.stores,
        )

    @property
    def total(self) -> int:
        return self.fp_ops + self.int_ops + self.loads + self.stores

    def as_dict(self) -> dict:
        return {
            "fp_ops": self.fp_ops,
            "int_ops": self.int_ops,
            "loads": self.loads,
            "stores": self.stores,
        }


def index_select_counters(e: int, f: int) -> OpCounters:
    return OpCounters(fp_ops=0, int_ops=e * (f + 1), loads=e * (f + 1), stores=e * f)


def scatter_counters(e: int, f: int, n: int, op: ReduceOp) -> OpCounters:
    fp = e * f
    if op is ReduceOp.MEAN:
        fp += n * f
    return OpCounters(fp_ops=fp, int_ops=e * (f + 1), loads=e * (f + 1), stores=e * f)


def sgemm_counters(m: int, k: int, n: int) -> OpCounters:
    return OpCounters(fp_ops=2 * m * k * n, int_ops=m * n, loads=2 * m * k * n,
                      stores=m * n)


def spmm_counters(n: int, nnz: int, f: int) -> OpCounters:
    return OpCounters(fp_ops=2 * nnz * f, int_ops=nnz * (f + 1),
                      loads=nnz * (f + 1) + nnz * f, stores=n * f)


def spgemm_counters(work: int, nnz_a: int, nnz_out: int) -> OpCounters:
    return OpCounters(fp_ops=2 * work, int_ops=work + nnz_a,
                      loads=2 * work + 2 * nnz_a, stores=nnz_out)


def spgemm_work(a: CsrGraph, b: CsrGraph) -> int:
    """Multiply-add pair count of ``spgemm(a, b)``."""
    if a.nnz == 0:
        return 0
    return int(np.diff(b.row_ptr)[a.col_idx].sum())


def _check_index(index: np.ndarray, n: int) -> np.ndarray:
    index = np.asarray(index)
    # an empty list arrives as float64, which holds no value to truncate
    if index.dtype.kind not in "iu" and index.size:
        raise IndexRangeError(f"index must be integers, got dtype {index.dtype}")
    index = index.astype(np.int64, copy=False)
    if index.ndim != 1:
        raise IndexRangeError("index must be one-dimensional")
    bad = np.flatnonzero((index < 0) | (index >= n))
    if len(bad):
        k = int(bad[0])
        raise IndexRangeError(
            f"index[{k}] = {int(index[k])} out of range [0, {n})"
        )
    return index


def index_select(x: np.ndarray, index) -> np.ndarray:
    """Gather: output row k is a copy of ``x[index[k]]``."""
    x = np.asarray(x)
    index = _check_index(index, x.shape[0])
    return x[index]


def scatter(src: np.ndarray, index, n: int, op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
    """Segment-reduce rows of ``src`` onto ``n`` destinations.

    ``out[i]`` reduces ``{src[k] : index[k] == i}``; sum and mean accumulate
    in ascending k order, mean divides by the receiver count. Destinations
    that receive no rows are zero for every reduce op (isolated nodes keep
    finite embeddings).
    """
    src = np.asarray(src)
    if src.ndim != 2:
        raise ShapeError(f"scatter expects a 2-d source, got shape {src.shape}")
    index = _check_index(index, n)
    if len(index) != src.shape[0]:
        raise ShapeError(
            f"index length {len(index)} != source rows {src.shape[0]}"
        )
    f = src.shape[1]
    if op is ReduceOp.SUM or op is ReduceOp.MEAN:
        out = np.zeros((n, f), dtype=src.dtype)
        np.add.at(out, index, src)
        if op is ReduceOp.MEAN:
            counts = np.bincount(index, minlength=n)
            received = counts > 0
            out[received] /= counts[received, None].astype(src.dtype)
        return out
    if op is ReduceOp.MAX:
        out = np.full((n, f), -np.inf, dtype=src.dtype)
        np.maximum.at(out, index, src)
        out[np.bincount(index, minlength=n) == 0] = 0
        return out
    raise ValueError(f"unknown reduce op {op!r}")


def sgemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix product with fixed accumulation order.

    Evaluated as a sequence of rank-1 updates over the inner dimension in
    ascending order, which is bit-identical to the scalar triple loop
    ``out[i][j] += a[i][k] * b[k][j]`` with k innermost and ascending.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"sgemm shape mismatch: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        out += a[:, k, None] * b[None, k, :]
    return out


def spmm(a: CsrGraph, x: np.ndarray) -> np.ndarray:
    """Sparse-times-dense: ``out[i] = sum_j a[i][j] * x[j]``.

    Contributions accumulate in CSR storage order.
    """
    x = np.asarray(x)
    if x.ndim != 2 or a.num_cols != x.shape[0]:
        raise ShapeError(
            f"spmm shape mismatch: {a.num_rows}x{a.num_cols} x {x.shape}"
        )
    out = np.zeros((a.num_rows, x.shape[1]), dtype=np.result_type(a.values, x))
    rows = np.repeat(np.arange(a.num_rows, dtype=np.int64), np.diff(a.row_ptr))
    np.add.at(out, rows, a.values[:, None] * x[a.col_idx])
    return out


def spgemm(a: CsrGraph, b: CsrGraph) -> CsrGraph:
    """Sparse-times-sparse product in canonical CSR form.

    Uses a per-row accumulator; output columns are sorted ascending, and
    entries that cancel to exactly zero are retained explicitly (the result
    keeps the full structural pattern).
    """
    if a.num_cols != b.num_rows:
        raise ShapeError(
            f"spgemm shape mismatch: {a.num_rows}x{a.num_cols} x "
            f"{b.num_rows}x{b.num_cols}"
        )
    dtype = np.result_type(a.values, b.values)
    accum = np.zeros(b.num_cols, dtype=dtype)
    stamp = np.full(b.num_cols, -1, dtype=np.int64)
    out_cols = []
    out_vals = []
    counts = np.zeros(a.num_rows, dtype=np.int64)
    for i in range(a.num_rows):
        touched = []
        for t in range(a.row_ptr[i], a.row_ptr[i + 1]):
            j = a.col_idx[t]
            va = a.values[t]
            lo, hi = b.row_ptr[j], b.row_ptr[j + 1]
            cols = b.col_idx[lo:hi]
            fresh = stamp[cols] != i
            if fresh.any():
                fresh_cols = cols[fresh]
                stamp[fresh_cols] = i
                accum[fresh_cols] = 0
                touched.append(fresh_cols)
            accum[cols] += va * b.values[lo:hi]
        if touched:
            row_cols = np.sort(np.concatenate(touched))
            out_cols.append(row_cols)
            out_vals.append(accum[row_cols].copy())
            counts[i] = len(row_cols)
    row_ptr = np.zeros(a.num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    col_idx = np.concatenate(out_cols) if out_cols else np.zeros(0, dtype=np.int64)
    values = np.concatenate(out_vals) if out_vals else np.zeros(0, dtype=dtype)
    return CsrGraph(a.num_rows, b.num_cols, row_ptr, col_idx, values)
