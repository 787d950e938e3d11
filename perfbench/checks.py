"""Output checks that do not trust the program under test.

Each check returns ``(ok, detail)``. The reference evaluation uses
``scipy.sparse`` and numpy only: it imports nothing from ``gnnbench.graph``,
``gnnbench.kernels`` or ``gnnbench.reference``, so a fault shared by those
modules cannot hide itself here. The closed-form counters are written out
from the cost-model table in the ``gnnbench.kernels`` docstring and fed with
n, e, nnz and dims that this module derives from the raw edge arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

TOLERANCE = 1e-9  # f64 agreement bound, the same as ``gnnbench check``

COUNTER_FIELDS = ("fp_ops", "int_ops", "loads", "stores")


def _adjacency(n, src, dst, weights):
    """CSR with entry [dst][src] = summed weight (duplicates add)."""
    a = sp.coo_matrix((weights, (dst, src)), shape=(n, n)).tocsr()
    a.sum_duplicates()
    return a


def _looped(n, src, dst, weights):
    """Edges plus one unit self-loop for every node that has none."""
    has_loop = np.zeros(n, dtype=bool)
    has_loop[src[src == dst]] = True
    missing = np.flatnonzero(~has_loop)
    return (np.concatenate([src, missing]), np.concatenate([dst, missing]),
            np.concatenate([weights, np.ones(len(missing))]))


def reference_forward(model, graph, x, params, epsilon):
    """The model's update rule, with ReLU after every layer, evaluated with
    scipy.sparse and numpy.

    ``graph`` is ``(n, src, dst, weights)``; ``params`` is the list the
    program's ``models.init_weights`` returns (weights are inputs here, not
    something under test).
    """
    n, src, dst, w = graph
    h = np.asarray(x, dtype=np.float64)
    if model == "gcn":
        ls, ld, lw = _looped(n, src, dst, w)
        a = _adjacency(n, ls, ld, lw)
        d = np.asarray(a.sum(axis=1)).ravel()
        inv = sp.diags(1.0 / np.sqrt(d))
        op = (inv @ a @ inv).tocsr()
        for p in params:
            h = np.maximum(op @ h @ p.theta, 0.0)
        return h
    if model == "gin":
        op = (_adjacency(n, src, dst, w) + (1.0 + epsilon) * sp.identity(n)).tocsr()
        for p in params:
            h = np.maximum(op @ h @ p.theta, 0.0)
        return h
    if model == "sage":
        # mean over gathered rows of N(v) + {v}: one row per edge, weights unused
        ls, ld, _ = _looped(n, src, dst, w)
        mult = _adjacency(n, ls, ld, np.ones(len(ls)))
        counts = np.bincount(ld, minlength=n).astype(np.float64)
        for p in params:
            mean = (mult @ h) / counts[:, None]
            h = np.maximum(h @ p.w1 + mean @ p.w2, 0.0)
        return h
    raise ValueError(f"unknown model {model!r}")


def max_abs_diff(a, b):
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def check_close(name, out, ref, tol=TOLERANCE):
    diff = max_abs_diff(out, ref)
    return diff <= tol, f"{name}: max abs diff {diff:.3e} (tolerance {tol:.0e})"


def check_bitwise(name, baseline: bytes, out):
    same = out.tobytes() == baseline
    return same, f"{name}: {'bitwise equal' if same else 'differs'} from first forward"


# Closed-form counters, one function per kernel (see gnnbench.kernels).

def _index_select(e, f):
    return (0, e * (f + 1), e * (f + 1), e * f)


def _scatter(e, f, n, mean):
    return (e * f + (n * f if mean else 0), e * (f + 1), e * (f + 1), e * f)


def _sgemm(m, k, n):
    return (2 * m * k * n, m * n, 2 * m * k * n, m * n)


def _spmm(n, nnz, f):
    return (2 * nnz * f, nnz * (f + 1), nnz * (f + 1) + nnz * f, n * f)


def graph_sizes(graph):
    """n, raw e, self-looped e and the CSR nnz of the GCN and GIN operators."""
    n, src, dst, w = graph
    ls, ld, lw = _looped(n, src, dst, w)
    gin = _adjacency(n, src, dst, w) + sp.identity(n)
    return {
        "n": n,
        "e": len(src),
        "e_looped": len(ls),
        "nnz_gcn": _adjacency(n, ls, ld, lw).nnz,
        "nnz_gin": gin.tocsr().nnz,
    }


def expected_counters(model, comp, sizes, dims):
    """``{kernel: (calls, (fp_ops, int_ops, loads, stores))}`` of one forward."""
    n = sizes["n"]
    out = {}

    def add(name, counts):
        calls, total = out.get(name, (0, (0, 0, 0, 0)))
        out[name] = (calls + 1, tuple(a + b for a, b in zip(total, counts)))

    for f_in, f_out in zip(dims[:-1], dims[1:]):
        if comp == "spmm":
            nnz = sizes["nnz_gcn" if model == "gcn" else "nnz_gin"]
            add("spmm", _spmm(n, nnz, f_in))
            add("sgemm", _sgemm(n, f_in, f_out))
        elif model == "gcn":
            e = sizes["e_looped"]
            add("sgemm", _sgemm(n, f_in, f_out))
            add("index_select", _index_select(e, f_out))
            add("scatter", _scatter(e, f_out, n, mean=False))
        elif model == "gin":
            e = sizes["e"]
            add("index_select", _index_select(e, f_in))
            add("scatter", _scatter(e, f_in, n, mean=False))
            add("sgemm", _sgemm(n, f_in, f_out))
        else:
            e = sizes["e_looped"]
            add("index_select", _index_select(e, f_in))
            add("scatter", _scatter(e, f_in, n, mean=True))
            add("sgemm", _sgemm(n, f_in, f_out))
            add("sgemm", _sgemm(n, f_in, f_out))
    return out


def check_counters(name, got, want):
    """``got`` has the shape of :func:`expected_counters`."""
    ok = got == want
    if ok:
        return True, f"{name}: counters equal the closed form"
    bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return False, f"{name}: counters differ from the closed form for {bad}"


def snapshot_counters(snapshot):
    """``Instrumentation.snapshot()`` in the shape of :func:`expected_counters`."""
    return {k: (calls, tuple(getattr(c, f) for f in COUNTER_FIELDS))
            for k, (calls, _, c) in snapshot.items()}


def report_counters(report):
    """A parsed report's kernel rows in the shape of :func:`expected_counters`."""
    return {s.kernel: (s.calls, tuple(getattr(s.counters, f) for f in COUNTER_FIELDS))
            for s in report.per_kernel if s.kernel != "other"}


def check_report(name, report, want_spec, want_dataset, repeats):
    """The parsed report echoes the configuration it was run with."""
    wrong = [k for k, v in want_spec.items() if report.spec.get(k) != v]
    wrong += [f"dataset.{k}" for k, v in want_dataset.items()
              if report.dataset.get(k) != v]
    if report.repeats != repeats:
        wrong.append("repeats")
    if wrong:
        return False, f"{name}: report does not echo {wrong}"
    return True, f"{name}: report parses and echoes its configuration"
