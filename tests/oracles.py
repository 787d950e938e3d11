"""Independent reference implementations used as test oracles.

Most of this is deliberately naive pure-Python arithmetic over nested
lists: scalar triple-loop matrix multiplication, explicit edge-walking for
densification, degrees, normalization, and segment reduction. None of the
package's kernel code paths are reused, so agreement between a kernel and
its oracle is meaningful evidence.

The numpy section at the end keeps the implementations the package used
before its sparse product primitive, its sort-based CSR build and its
block-wise graph generator: ``np.add.at`` scatter and spmm, rank-1 sgemm,
``np.unique`` coalescing and the whole-array Erdos-Renyi formula. They
work in the operands' own dtype, so they pin f32 results bit for bit where
the list-based oracles, which compute in Python floats, cannot.
"""

import math

import numpy as np

from gnnbench.graph import CsrGraph
from gnnbench.rng import uniform_array


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


def dense_layer(model, g, x, params, act="identity"):
    if model == "gcn":
        return dense_gcn_layer(g, x, params.theta, act)
    if model == "gin":
        return dense_gin_layer(g, x, params.theta, params.epsilon, act)
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
        if op in ("sum", "mean"):
            acc = [0.0] * f
            for row in members:
                for j in range(f):
                    acc[j] = acc[j] + row[j]
            if op == "mean":
                acc = [v / len(members) for v in acc]
            out[i] = acc
        else:  # max
            acc = members[0][:]
            for row in members[1:]:
                for j in range(f):
                    if row[j] > acc[j]:
                        acc[j] = row[j]
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


def whole_array_er(n, p, seed):
    """Erdos-Renyi (src, dst) from all n(n-1) draws at once, row-major."""
    num_pairs = n * (n - 1) if n > 1 else 0
    if num_pairs == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    draws = uniform_array(seed, num_pairs)
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
