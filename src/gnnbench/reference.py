"""Dense reference evaluation for run-time consistency checks.

Evaluates each model's defining update rule directly on materialized dense
matrices, without touching the sparse kernels or the message-passing code
paths. The ``check`` CLI command compares pipeline output against this
route; the test suite additionally keeps its own scalar-loop oracle, so the
kernels, this module, and the tests form three independent routes.

Each model's operator is built in place, so the route holds one n x n
float64 array: about 134 MB at ``graph.DEFAULT_DENSE_LIMIT`` = 4096 nodes.
That limit keeps this a desk-scale facility: a larger graph raises
CapacityError, and ``check`` reports the comparison as skipped.
"""

from __future__ import annotations

import numpy as np

from .graph import CooGraph, add_self_loops, coo_to_dense
from .models import Model, ModelSpec, apply_activation

__all__ = ["dense_forward"]


def _dense_normalized(g: CooGraph) -> np.ndarray:
    # (a_ij * inv_i) * inv_j in place: the roundings of inv_i * a_ij * inv_j
    a_hat = coo_to_dense(add_self_loops(g))
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    a_hat *= inv_sqrt[:, None]
    a_hat *= inv_sqrt[None, :]
    return a_hat


def _dense_gin(g: CooGraph, epsilon: float) -> np.ndarray:
    # A + (1 + eps) I in float64, touching the diagonal only: off it the
    # identity adds a signed zero, which changes no entry because
    # coo_to_dense never stores -0.0; the cast copies nothing for float64
    op = coo_to_dense(g).astype(np.float64, copy=False)
    op.flat[:: g.num_nodes + 1] += 1.0 + epsilon
    return op


def dense_forward(spec: ModelSpec, params, g: CooGraph, x: np.ndarray) -> np.ndarray:
    """Dense evaluation of the full pipeline defined by ``spec``;
    CapacityError for a graph past ``DEFAULT_DENSE_LIMIT`` nodes."""
    h = np.asarray(x, dtype=np.float64)
    if spec.model is not Model.SAGE:
        op = (_dense_normalized(g) if spec.model is Model.GCN
              else _dense_gin(g, spec.epsilon))
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
    counts = np.bincount(looped.dst, minlength=g.num_nodes)
    for p in params:
        mean = (a_hat @ h) / counts[:, None]
        h = apply_activation(
            h @ np.asarray(p.w1, dtype=np.float64)
            + mean @ np.asarray(p.w2, dtype=np.float64),
            spec.activation,
        )
    return h
