"""Dense reference evaluation for run-time consistency checks.

Evaluates each model's defining update rule directly on materialized dense
matrices, without touching the sparse kernels or the message-passing code
paths. The ``check`` CLI command compares pipeline output against this
route; the test suite additionally keeps its own scalar-loop oracle, so the
kernels, this module, and the tests form three independent routes.

Dense materialization is guarded by ``graph.DEFAULT_DENSE_LIMIT``, which
keeps this a desk-scale facility: a larger graph raises CapacityError, and
``check`` reports the comparison as skipped.
"""

from __future__ import annotations

import numpy as np

from .graph import CooGraph, add_self_loops, coo_to_dense
from .models import Model, ModelSpec, apply_activation

__all__ = ["dense_forward"]


def _dense_normalized(g: CooGraph) -> np.ndarray:
    looped = add_self_loops(g)
    a_hat = coo_to_dense(looped)
    d = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    return inv_sqrt[:, None] * a_hat * inv_sqrt[None, :]


def _receiver_counts(g: CooGraph) -> np.ndarray:
    # edge multiplicities into each node, including the inserted self-loop
    looped = add_self_loops(g)
    return np.bincount(looped.dst, minlength=g.num_nodes).astype(np.float64)


def dense_forward(spec: ModelSpec, params, g: CooGraph, x: np.ndarray) -> np.ndarray:
    """Dense evaluation of the full pipeline defined by ``spec``;
    CapacityError for a graph past ``DEFAULT_DENSE_LIMIT`` nodes."""
    h = np.asarray(x, dtype=np.float64)
    if spec.model is Model.GCN:
        op = _dense_normalized(g)
        for p in params:
            h = apply_activation(op @ h @ np.asarray(p.theta, dtype=np.float64),
                                 spec.activation)
        return h
    if spec.model is Model.GIN:
        a = coo_to_dense(g)
        op = a + (1.0 + spec.epsilon) * np.eye(g.num_nodes)
        for p in params:
            h = apply_activation(op @ h @ np.asarray(p.theta, dtype=np.float64),
                                 spec.activation)
        return h
    # SAGE: self transform plus neighbor mean over N(v) and the node itself.
    # The mean is over gathered feature rows, one per edge regardless of
    # weight, so the dense operator is the edge multiplicity matrix.
    looped = add_self_loops(g)
    mult = CooGraph(looped.num_nodes, looped.src, looped.dst,
                    np.ones(looped.num_edges, dtype=np.float64))
    a_hat = coo_to_dense(mult)
    counts = _receiver_counts(g)
    for p in params:
        mean = (a_hat @ h) / counts[:, None]
        h = apply_activation(
            h @ np.asarray(p.w1, dtype=np.float64)
            + mean @ np.asarray(p.w2, dtype=np.float64),
            spec.activation,
        )
    return h
