"""Independent reference implementations used as test oracles.

Most of this is deliberately naive pure-Python arithmetic over nested
lists: scalar triple-loop matrix multiplication, explicit edge-walking for
densification, degrees, normalization, and segment reduction, plus the
sequential SplitMix64 stream that ``gnnbench.rng`` vectorizes. None of the
package's kernel code paths are reused, so agreement between a kernel and
its oracle is meaningful evidence.

The numpy section at the end keeps the implementations the package used
before its sparse product primitive, its sort-based CSR build, its
self-loop mask and its block-wise graph generator: ``np.add.at`` scatter and
spmm, rank-1 sgemm, ``np.unique`` coalescing and loop finding, and the
whole-array Erdos-Renyi formula, which compares float draws with ``p``
where the package compares integers. It also holds the CSR-to-COO and
CSR-to-dense conversions, which only tests use. They work in the operands'
own dtype, so they pin f32 results bit for bit where the list-based
oracles, which compute in Python floats, cannot.
"""

import math

import numpy as np

from gnnbench.errors import FormatError
from gnnbench.graph import CooGraph, CsrGraph


def csr_identity(n, dtype=np.float64):
    """The n-by-n identity matrix in canonical CSR form."""
    return CsrGraph(n, n, np.arange(n + 1), np.arange(n), np.ones(n, dtype=dtype))


def to_lists(x):
    return [list(map(float, row)) for row in x]


def naive_matmul(a, b):
    """Scalar triple loop, k innermost and ascending; lists in, lists out."""
    m, kdim, n = len(a), len(b), len(b[0]) if b else 0
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        ai = a[i]
        oi = out[i]
        for j in range(n):
            s = 0.0
            for k in range(kdim):
                s = s + ai[k] * b[k][j]
            oi[j] = s
    return out


def dense_adjacency(g):
    """[dst][src] summed-weight matrix walked straight off the edge list."""
    n = g.num_nodes
    a = [[0.0] * n for _ in range(n)]
    for k in range(g.num_edges):
        a[int(g.dst[k])][int(g.src[k])] += float(g.weights[k])
    return a


def dense_self_looped(g):
    """Adjacency plus a unit loop for every node lacking a loop edge."""
    a = dense_adjacency(g)
    has_loop = {int(g.src[k]) for k in range(g.num_edges)
                if int(g.src[k]) == int(g.dst[k])}
    for v in range(g.num_nodes):
        if v not in has_loop:
            a[v][v] += 1.0
    return a


def dense_normalized(g):
    """Symmetric normalization of the self-looped adjacency."""
    a = dense_self_looped(g)
    d = [sum(row) for row in a]
    inv = [1.0 / math.sqrt(x) for x in d]
    return [[inv[i] * a[i][j] * inv[j] for j in range(len(a))]
            for i in range(len(a))]


def act_identity(m):
    return [row[:] for row in m]


def act_relu(m):
    return [[v if v > 0 else 0.0 for v in row] for row in m]


def act_sigmoid(m):
    out = []
    for row in m:
        new = []
        for v in row:
            if v >= 0:
                new.append(1.0 / (1.0 + math.exp(-v)))
            else:
                ev = math.exp(v)
                new.append(ev / (1.0 + ev))
        out.append(new)
    return out


ACTS = {"identity": act_identity, "relu": act_relu, "sigmoid": act_sigmoid}


def dense_gcn_layer(g, x, theta, act="identity"):
    h = naive_matmul(naive_matmul(dense_normalized(g), to_lists(x)),
                     to_lists(theta))
    return ACTS[act](h)


def dense_gin_layer(g, x, theta, eps, act="identity"):
    op = dense_adjacency(g)
    for v in range(g.num_nodes):
        op[v][v] += 1.0 + eps
    h = naive_matmul(naive_matmul(op, to_lists(x)), to_lists(theta))
    return ACTS[act](h)


def dense_sage_layer(g, x, w1, w2, act="identity"):
    n = g.num_nodes
    xl = to_lists(x)
    f = len(xl[0]) if n else 0
    sums = [[0.0] * f for _ in range(n)]
    counts = [0] * n
    has_loop = {int(g.src[k]) for k in range(g.num_edges)
                if int(g.src[k]) == int(g.dst[k])}
    edges = [(int(g.src[k]), int(g.dst[k])) for k in range(g.num_edges)]
    edges += [(v, v) for v in range(n) if v not in has_loop]
    for u, v in edges:
        counts[v] += 1
        for j in range(f):
            sums[v][j] += xl[u][j]
    mean = [[sums[i][j] / counts[i] for j in range(f)] for i in range(n)]
    self_part = naive_matmul(xl, to_lists(w1))
    neigh_part = naive_matmul(mean, to_lists(w2))
    h = [[self_part[i][j] + neigh_part[i][j] for j in range(len(self_part[0]))]
         for i in range(n)]
    return ACTS[act](h)


def dense_layer(model, g, x, params, act="identity", eps=0.0):
    if model == "gcn":
        return dense_gcn_layer(g, x, params.theta, act)
    if model == "gin":
        return dense_gin_layer(g, x, params.theta, eps, act)
    return dense_sage_layer(g, x, params.w1, params.w2, act)


def gather_reference(x, index):
    xl = to_lists(x)
    return [xl[int(i)][:] for i in index]


def scatter_reference(src, index, n, op):
    rows = to_lists(src)
    f = len(rows[0]) if rows else (src.shape[1] if hasattr(src, "shape") else 0)
    groups = [[] for _ in range(n)]
    for k, i in enumerate(index):
        groups[int(i)].append(rows[k])
    out = [[0.0] * f for _ in range(n)]
    for i, members in enumerate(groups):
        if not members:
            continue
        acc = [0.0] * f
        for row in members:
            for j in range(f):
                acc[j] = acc[j] + row[j]
        if op == "mean":
            acc = [v / len(members) for v in acc]
        out[i] = acc
    return out


def dense_from_csr(a):
    """Densify a CSR matrix by walking its arrays directly."""
    out = [[0.0] * a.num_cols for _ in range(a.num_rows)]
    for i in range(a.num_rows):
        for t in range(int(a.row_ptr[i]), int(a.row_ptr[i + 1])):
            out[i][int(a.col_idx[t])] = float(a.values[t])
    return out


def csr_from_dense(matrix):
    """Canonical CSR triple (row_ptr, col_idx, values) from a dense oracle."""
    row_ptr = [0]
    col_idx = []
    values = []
    for row in matrix:
        for j, v in enumerate(row):
            if v != 0.0:
                col_idx.append(j)
                values.append(v)
        row_ptr.append(len(col_idx))
    return row_ptr, col_idx, values


# SplitMix64's published constants, written out here rather than imported,
# so the stream oracles share no code with ``gnnbench.rng``.
_MASK64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Sequential SplitMix64 stream, one step per draw on Python ints."""

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self):
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


# -- numpy oracles: the replaced implementations ------------------------------

def add_at_scatter(src, index, n, op):
    """Segment sum or mean by unbuffered ``np.add.at`` in ascending k."""
    out = np.zeros((n, src.shape[1]), dtype=src.dtype)
    np.add.at(out, index, src)
    if op == "mean":
        counts = np.bincount(index, minlength=n)
        received = counts > 0
        out[received] /= counts[received, None].astype(src.dtype)
    return out


def add_at_spmm(a, x):
    """CSR times dense: per-entry products added in storage order."""
    out = np.zeros((a.num_rows, x.shape[1]), dtype=np.result_type(a.values, x))
    rows = np.repeat(np.arange(a.num_rows, dtype=np.int64), np.diff(a.row_ptr))
    np.add.at(out, rows, a.values[:, None] * x[a.col_idx])
    return out


def rank1_sgemm(a, b):
    """Dense product as rank-1 updates over the inner dimension, ascending."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        out += a[:, k, None] * b[None, k, :]
    return out


def csr_to_coo(a):
    """The edge list of a square CSR matrix, rows as destinations: the
    inverse of ``coo_to_csr`` on canonical input, bit for bit."""
    if a.num_rows != a.num_cols:
        raise FormatError(
            f"only square matrices convert to graphs, got {a.num_rows}x{a.num_cols}"
        )
    dst = np.repeat(np.arange(a.num_rows, dtype=np.int64), np.diff(a.row_ptr))
    return CooGraph(a.num_rows, a.col_idx.copy(), dst, a.values.copy())


def csr_to_dense(a):
    """A CSR matrix densified in its values' own dtype."""
    dense = np.zeros((a.num_rows, a.num_cols), dtype=a.values.dtype)
    rows = np.repeat(np.arange(a.num_rows, dtype=np.int64), np.diff(a.row_ptr))
    dense[rows, a.col_idx] = a.values
    return dense


def unique_coo_to_csr(g):
    """Canonical CSR by ``np.unique`` over (dst, src) pairs; duplicates are
    added into zeros in edge order."""
    n = g.num_nodes
    if g.num_edges == 0:
        return CsrGraph(n, n, np.zeros(n + 1, dtype=np.int64),
                        np.zeros(0, dtype=np.int64),
                        np.zeros(0, dtype=g.weights.dtype))
    pairs = np.stack([g.dst, g.src], axis=1)
    unique_pairs, inverse = np.unique(pairs, axis=0, return_inverse=True)
    values = np.zeros(len(unique_pairs), dtype=g.weights.dtype)
    np.add.at(values, inverse.ravel(), g.weights)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(unique_pairs[:, 0], minlength=n), out=row_ptr[1:])
    return CsrGraph(n, n, row_ptr, unique_pairs[:, 1], values)


def unique_add_self_loops(g):
    """A unit loop appended for every node with none, in ascending node
    order, the looped nodes found by ``np.unique`` and ``np.setdiff1d``."""
    looped = np.unique(g.src[g.src == g.dst])
    missing = np.setdiff1d(np.arange(g.num_nodes, dtype=np.int64), looped,
                           assume_unique=True)
    if len(missing) == 0:
        return g
    ones = np.ones(len(missing), dtype=g.weights.dtype)
    return CooGraph(g.num_nodes, np.concatenate([g.src, missing]),
                    np.concatenate([g.dst, missing]),
                    np.concatenate([g.weights, ones]))


def whole_array_er(n, p, seed):
    """Erdos-Renyi (src, dst) from all n(n-1) draws at once, row-major.

    The draws are the whole stream as one vectorized counter-based formula,
    state ``seed + i * GOLDEN`` at step ``i``, converted to float and
    compared with ``p``.
    """
    num_pairs = n * (n - 1) if n > 1 else 0
    if num_pairs == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    steps = np.arange(1, num_pairs + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + steps * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    draws = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    u = np.repeat(np.arange(n, dtype=np.int64), n - 1)
    pos = np.tile(np.arange(n - 1, dtype=np.int64), n)
    v = pos + (pos >= u)
    keep = draws < p
    return u[keep], v[keep]


def same_bits(got, want):
    """Equal dtype, shape and bytes, except that a NaN matches any NaN.

    IEEE 754 leaves the sign and payload of a NaN result unspecified, and
    numpy itself varies them: adding a negative NaN into a positive one
    with ``+=`` keeps one sign for a 1-element array and the other for a
    3-element one. So NaN positions must agree, not their bits.
    """
    got = np.asarray(got)
    want = np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    nan = np.isnan(got)
    if not np.array_equal(nan, np.isnan(want)):
        return False
    return np.ascontiguousarray(got[~nan]).tobytes() == \
        np.ascontiguousarray(want[~nan]).tobytes()
