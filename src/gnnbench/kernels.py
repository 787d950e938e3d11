"""Core computational kernels with analytic operation counters.

The four primitives every pipeline decomposes into:

- ``index_select``: gather rows of a dense matrix by an index vector,
- ``scatter``: segment-reduce rows back onto destinations (sum/mean),
  optionally scaling each row by a per-edge weight as it is summed,
- ``sgemm``: dense matrix multiplication,
- ``spmm``: sparse-times-dense product.

Every kernel is a pure function and bitwise deterministic: accumulation
order is fixed (ascending edge index, or CSR storage order) regardless of
how the work might be partitioned, so repeated runs on identical inputs
produce identical bytes.

``scatter``, ``spmm`` and ``sgemm`` share one primitive, a CSR-times-dense
product evaluated by ``scipy.sparse``: each output row starts from zero and
adds ``values[t] * x[col_idx[t]]`` for its entries ``t`` in storage order,
one rounding per multiply and per add. ``spmm`` passes its matrix as is;
``scatter`` passes the destination-sorted edge permutation, which keeps
ascending edge order within each destination, with its per-edge weights
(unit values when it has none) as the values, so a weighted sum needs no
e x f temporary; ``sgemm`` passes its left operand as a dense CSR that
keeps explicit zeros, so ``inf * 0`` still yields NaN and the inner
dimension is summed in ascending order, as in the scalar triple loop.

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
==============  ==========  ============  ==================  =========

The scatter rows count the accumulation adds only: a weighted scatter's e*f
multiplies are not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse

from .errors import IndexRangeError, ShapeError
from .graph import CsrGraph

__all__ = [
    "ReduceOp",
    "OpCounters",
    "index_select",
    "scatter",
    "sgemm",
    "spmm",
    "index_select_counters",
    "scatter_counters",
    "sgemm_counters",
    "spmm_counters",
]


class ReduceOp(Enum):
    """Aggregator applied by :func:`scatter`."""

    SUM = "sum"
    MEAN = "mean"


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


# Element types scipy's sparsetools loops are compiled for; it upcasts any
# other (float16 to float32), which would change the result dtype.
_SPARSETOOLS_TYPES = frozenset("?bBhHiIlLqQfdgFDG")


def _csr_matmul(row_ptr: np.ndarray, col_idx: np.ndarray, values: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    """``A @ x`` for the CSR matrix ``A = (row_ptr, col_idx, values)``.

    Row ``i`` of the result starts from zero and adds ``values[t] *
    x[col_idx[t]]`` for ``t`` from ``row_ptr[i]`` up to ``row_ptr[i + 1]``,
    in that order. Operands are cast to ``np.result_type(values, x)`` first,
    as numpy's mixed-type arithmetic does.
    """
    dtype = np.result_type(values, x)
    if dtype.char not in _SPARSETOOLS_TYPES:
        raise TypeError(f"no sparse product kernel for dtype {dtype}")
    a = scipy.sparse.csr_array(
        (values.astype(dtype, copy=False), col_idx, row_ptr),
        shape=(len(row_ptr) - 1, x.shape[0]))
    return a @ x.astype(dtype, copy=False)


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


def scatter(src: np.ndarray, index, n: int, op: ReduceOp = ReduceOp.SUM,
            weights=None) -> np.ndarray:
    """Segment-reduce rows of ``src`` onto ``n`` destinations.

    ``out[i]`` reduces ``{src[k] : index[k] == i}``; sum and mean accumulate
    in ascending k order, mean divides by the receiver count. Destinations
    that receive no rows are zero (isolated nodes keep finite embeddings).

    An optional per-row ``weights`` vector scales each row as it is summed:
    ``out[i] = sum_k weights[k] * src[k]`` with one rounding per multiply
    and per add, the same bytes as scattering ``weights[:, None] * src``.
    """
    src = np.asarray(src)
    if src.ndim != 2:
        raise ShapeError(f"scatter expects a 2-d source, got shape {src.shape}")
    index = _check_index(index, n)
    if len(index) != src.shape[0]:
        raise ShapeError(
            f"index length {len(index)} != source rows {src.shape[0]}"
        )
    if weights is not None:
        weights = np.asarray(weights)
        if weights.shape != index.shape:
            raise ShapeError(
                f"weights shape {weights.shape} != ({len(index)},), one per "
                "source row"
            )
    if not isinstance(op, ReduceOp):
        raise ValueError(f"unknown reduce op {op!r}")
    counts = np.bincount(index, minlength=n)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    # a stable sort keeps ascending k within each destination
    order = np.argsort(index, kind="stable")
    values = (np.ones(len(index), dtype=src.dtype) if weights is None
              else weights[order])
    out = _csr_matmul(row_ptr, order, values, src)
    if op is ReduceOp.MEAN:
        received = counts > 0
        out[received] /= counts[received, None].astype(out.dtype)
    return out


def sgemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix product with fixed accumulation order.

    ``a`` enters the sparse product as a CSR matrix holding every entry,
    zeros included, so the result is bit-identical to the scalar triple
    loop ``out[i][j] += a[i][k] * b[k][j]`` with k innermost and ascending.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"sgemm shape mismatch: {a.shape} x {b.shape}")
    m, k = a.shape
    row_ptr = np.arange(m + 1, dtype=np.int64) * k
    col_idx = np.tile(np.arange(k, dtype=np.int64), m)
    return _csr_matmul(row_ptr, col_idx, a.ravel(), b)


def spmm(a: CsrGraph, x: np.ndarray) -> np.ndarray:
    """Sparse-times-dense: ``out[i] = sum_j a[i][j] * x[j]``.

    Contributions accumulate in CSR storage order.
    """
    x = np.asarray(x)
    if x.ndim != 2 or a.num_cols != x.shape[0]:
        raise ShapeError(
            f"spmm shape mismatch: {a.num_rows}x{a.num_cols} x {x.shape}"
        )
    return _csr_matmul(a.row_ptr, a.col_idx, a.values, x)

