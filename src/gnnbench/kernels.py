"""Core computational kernels with analytic operation counters.

The four primitives every pipeline decomposes into:

- ``index_select``: gather rows of a dense matrix by an index vector,
- ``scatter``: segment-reduce rows back onto destinations (sum/mean)
  through a prepared destination x edge incidence matrix, scaling each row
  by its edge's weight as it is summed,
- ``sgemm``: dense matrix multiplication,
- ``spmm``: sparse-times-dense product.

Every kernel is a pure function and bitwise deterministic: accumulation
order is fixed (ascending edge index, or CSR storage order) regardless of
how the work might be partitioned, so repeated runs on identical inputs
produce identical bytes.

``scatter``, ``spmm`` and ``sgemm`` share one primitive, scipy's compiled
CSR-times-dense loop (``csr_matvecs``, or ``csr_matvec`` for a single
column): each output row starts from zero and adds ``values[t] *
x[col_idx[t]]`` for its entries ``t`` in storage order, one rounding per
multiply and per add. The loop is called directly, through the private
module ``scipy.sparse._sparsetools``, with no ``scipy.sparse`` object built
per call. It is the loop ``csr_array @ x`` reaches, and a contract test
pins the two to the same bytes, so a scipy release that changes either
fails the test suite instead of changing outputs; perfbench's reference
outputs stay on the public ``scipy.sparse`` API. ``spmm`` passes its matrix
as is; ``scatter`` passes the incidence the caller prepared once per graph
(see ``gnnbench.models.prepare``), whose row i lists the edges into i in
ascending edge order with their weights as the values, so a call does no
sort, count or weight gather and a weighted sum needs no e x f temporary;
``sgemm`` passes its left operand, in blocks of rows, as a dense CSR that
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
from functools import lru_cache

import numpy as np
from scipy.sparse import _sparsetools

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


def _product_dtype(values: np.ndarray, x: np.ndarray) -> np.dtype:
    """``np.result_type(values, x)``, as numpy's mixed-type arithmetic
    gives it; TypeError for a type the sparsetools loops are not built for."""
    dtype = np.result_type(values, x)
    if dtype.char not in _SPARSETOOLS_TYPES:
        raise TypeError(f"no sparse product kernel for dtype {dtype}")
    return dtype


def _csr_matmul(row_ptr: np.ndarray, col_idx: np.ndarray, values: np.ndarray,
                num_cols: int, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """``A @ x`` for the ``len(row_ptr) - 1`` x ``num_cols`` CSR matrix
    ``A = (row_ptr, col_idx, values)``.

    Row ``i`` of the result starts from zero and adds ``values[t] *
    x[col_idx[t]]`` for ``t`` from ``row_ptr[i]`` up to ``row_ptr[i + 1]``,
    in that order. Operands are cast to ``np.result_type(values, x)`` first,
    as numpy's mixed-type arithmetic does. The products are added into
    ``out`` when it is given, a zeroed C-contiguous array of the result's
    shape and dtype, else into a new one.

    The index arrays are int64 and must hold a valid CSR pattern:
    ``row_ptr`` non-decreasing from 0 and every ``col_idx`` entry in
    ``[0, num_cols)``, as ``CsrGraph`` guarantees. The compiled loop trusts
    them; the O(1) checks here are the lengths and shapes it would otherwise
    read or write past.
    """
    dtype = _product_dtype(values, x)
    n_row = len(row_ptr) - 1
    if (x.ndim != 2 or x.shape[0] != num_cols
            or not len(col_idx) == len(values) == row_ptr[-1]):
        raise ShapeError(
            f"CSR matrix of {n_row}x{num_cols} with {row_ptr[-1]} entries "
            f"({len(col_idx)} columns, {len(values)} values) x {x.shape}")
    n_vecs = x.shape[1]
    if out is None:
        out = np.zeros((n_row, n_vecs), dtype=dtype)
    elif (out.shape != (n_row, n_vecs) or out.dtype != dtype
          or not out.flags.c_contiguous):
        raise ShapeError(f"output {out.shape} {out.dtype} is not a C-contiguous "
                         f"({n_row}, {n_vecs}) {dtype} array")
    values = values.astype(dtype, copy=False)
    x = x.astype(dtype, copy=False).ravel()
    # as in csr_array @ x, one column goes through the one-vector loop:
    # where two NaNs meet, the two loops can keep different ones
    if n_vecs == 1:
        _sparsetools.csr_matvec(n_row, num_cols, row_ptr, col_idx, values, x,
                                out.ravel())
    else:
        _sparsetools.csr_matvecs(n_row, num_cols, n_vecs, row_ptr, col_idx,
                                 values, x, out.ravel())
    return out


def _check_index(index: np.ndarray, n: int) -> np.ndarray:
    index = np.asarray(index)
    # an empty list arrives as float64, which holds no value to truncate
    if index.dtype.kind not in "iu" and index.size:
        raise IndexRangeError(f"index must be integers, got dtype {index.dtype}")
    index = index.astype(np.int64, copy=False)
    if index.ndim != 1:
        raise IndexRangeError("index must be one-dimensional")
    if index.size and (index.min() < 0 or index.max() >= n):
        k = int(np.flatnonzero((index < 0) | (index >= n))[0])
        raise IndexRangeError(
            f"index[{k}] = {int(index[k])} out of range [0, {n})"
        )
    return index


def index_select(x: np.ndarray, index) -> np.ndarray:
    """Gather: output row k is a copy of ``x[index[k]]``."""
    x = np.asarray(x)
    index = _check_index(index, x.shape[0])
    return np.take(x, index, axis=0)


def scatter(src: np.ndarray, incidence: CsrGraph,
            op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
    """Segment-reduce rows of ``src`` onto the rows of ``incidence``.

    ``incidence`` is a destination x edge matrix with one column per source
    row: ``out[i] = sum_t values[t] * src[col_idx[t]]`` over row ``i``'s
    entries in storage order, one rounding per multiply and per add. With
    unit values that is the plain sum, and a scaled entry gives the same
    bytes as scattering ``weights[:, None] * src``. Mean divides each row's
    sum by its entry count. Rows with no entries are zero (isolated nodes
    keep finite embeddings).
    """
    src = np.asarray(src)
    if src.ndim != 2:
        raise ShapeError(f"scatter expects a 2-d source, got shape {src.shape}")
    if incidence.num_cols != src.shape[0]:
        raise ShapeError(
            f"incidence has {incidence.num_cols} columns != source rows "
            f"{src.shape[0]}"
        )
    if not isinstance(op, ReduceOp):
        raise ValueError(f"unknown reduce op {op!r}")
    out = _csr_matmul(incidence.row_ptr, incidence.col_idx, incidence.values,
                      incidence.num_cols, src)
    if op is ReduceOp.MEAN:
        counts = np.diff(incidence.row_ptr)
        received = counts > 0
        out[received] /= counts[received, None].astype(out.dtype)
    return out


# sgemm's left operand enters the sparse product in blocks of at most this
# many entries, so the dense pattern of a block stays small enough to cache.
_SGEMM_BLOCK = 2**16


@lru_cache(maxsize=8)
def _dense_pattern(rows: int, k: int) -> tuple:
    """Read-only ``(row_ptr, col_idx)`` of a dense ``rows x k`` CSR block."""
    row_ptr = np.arange(rows + 1, dtype=np.int64) * k
    col_idx = np.tile(np.arange(k, dtype=np.int64), rows)
    row_ptr.setflags(write=False)
    col_idx.setflags(write=False)
    return row_ptr, col_idx


def sgemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix product with fixed accumulation order.

    ``a`` enters the sparse product as a CSR matrix holding every entry,
    zeros included, so the result is bit-identical to the scalar triple
    loop ``out[i][j] += a[i][k] * b[k][j]`` with k innermost and ascending.
    Rows go through in blocks of at most ``_SGEMM_BLOCK`` entries of ``a``,
    each into its slice of one output; a row's sum never spans two blocks,
    so blocking leaves every byte as it is.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"sgemm shape mismatch: {a.shape} x {b.shape}")
    dtype = _product_dtype(a, b)
    a = np.ascontiguousarray(a, dtype=dtype)
    b = np.ascontiguousarray(b, dtype=dtype)
    m, k = a.shape
    out = np.zeros((m, b.shape[1]), dtype=dtype)
    rows = max(1, min(m, _SGEMM_BLOCK // max(k, 1)))
    for start in range(0, m, rows):
        block = a[start:start + rows]
        row_ptr, col_idx = _dense_pattern(len(block), k)
        _csr_matmul(row_ptr, col_idx, block.ravel(), k, b,
                    out[start:start + rows])
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
    return _csr_matmul(a.row_ptr, a.col_idx, a.values, a.num_cols, x)

