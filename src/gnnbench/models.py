"""GNN layers and multi-layer pipelines under two computational models.

Three models (GCN, GIN, GraphSAGE) are each expressed over the core
kernels, under both the message-passing (MP) and the sparse-matrix (SpMM)
model:

- GCN-MP: per-node update ``act( sum_{u in N(v)+{v}} x_u Theta / sqrt(d_u d_v) )``,
  realized as linear transform, gather by edge source, then a scatter-sum
  by edge destination that scales each message by its edge's normalized
  weight as it adds it. The linear transform runs first; by linearity
  that is equivalent to transforming after the sum.
- GCN-SpMM: ``act( norm_adj @ X @ Theta )`` with the symmetrically
  normalized self-looped adjacency built once per run.
- GIN-MP: ``act( ((1 + eps) * X + neighbor_sum) @ Theta )`` where the
  neighbor sum runs over the raw edge list (the ``1 + eps`` term carries
  the self contribution, so no self-loops are inserted).
- GIN-SpMM: ``act( (A + (1 + eps) I) @ X @ Theta )``.
- SAGE-MP: ``act( X @ W1 + neighbor_mean @ W2 )`` with the mean taken over
  ``N(v) + {v}`` (self-loops inserted).
- SAGE-SpMM: ``act( X @ W1 + (D^-1 A_hat) @ X @ W2 )``, the mean as the
  row-normalized self-looped adjacency, each edge's unit weight divided by
  its destination's looped in-degree with duplicate edges counted.

Each pipeline is one table entry: the edge list its layers aggregate over
and its layer update, which computes a layer's output before the activation
and reads GIN's epsilon (``LayerParams`` holds matrices only).
:func:`forward` is the one way to run layers, and the one place that
applies the ``ModelSpec``'s activation, after each layer's update.
:func:`prepare` lays the edge list out once per run, as its computational
model reads it; ``_LAYOUT`` names each computational model's ctx type and
its builder, and :func:`forward` checks a caller's ctx against that type.
Both layouts come from ``graph``. Under MP the ctx is a
``graph.MessagePassing`` from ``graph.coo_to_incidence``: the edge sources
stably sorted by destination, which ``index_select`` gathers by, and the
destination x edge incidence ``CsrGraph`` that ``scatter`` reduces through,
its values the per-edge scale (GCN's normalized weights, GIN's raw weights,
SAGE's units). Under SpMM it is the canonical ``CsrGraph`` from
``graph.coo_to_csr``.

The two computational models of the same network agree within floating
point reordering error; that equivalence is the central correctness
property and is enforced by the test suite and the ``check`` CLI command.

Weights are dense matrices drawn uniformly from [-1/sqrt(f_in),
+1/sqrt(f_in)] by a SplitMix64 stream keyed on (seed, layer, role), so a
given ``ModelSpec`` always produces bit-identical weights. The matrices
and their roles belong to the model (``_WEIGHTS``), not to the pipeline, so
both computational models of a model run on the same weights, as ``check``
compares them. There are no bias terms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError, ShapeError
from .graph import (
    CooGraph,
    CsrGraph,
    MessagePassing,
    add_self_loops,
    bitwise_eq,
    coo_to_csr,
    coo_to_incidence,
    frozen,
    normalized_edges,
)
from .kernels import ReduceOp
from .rng import MASK64, mix_key, uniform_array

__all__ = [
    "Model",
    "CompModel",
    "Activation",
    "ModelSpec",
    "LayerParams",
    "Pipeline",
    "PIPELINES",
    "init_weights",
    "prepare",
    "forward",
    "relu",
    "sigmoid",
    "apply_activation",
]


class Model(Enum):
    GCN = "gcn"
    GIN = "gin"
    SAGE = "sage"


class CompModel(Enum):
    MP = "mp"
    SPMM = "spmm"


class Activation(Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)), evaluated in overflow-safe form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def apply_activation(x: np.ndarray, act: Activation) -> np.ndarray:
    if act is Activation.RELU:
        return relu(x)
    if act is Activation.SIGMOID:
        return sigmoid(x)
    return x


@dataclass(frozen=True)
class ModelSpec:
    """Fully determined pipeline description."""

    model: Model
    comp_model: CompModel
    num_layers: int
    dims: tuple
    activation: Activation = Activation.RELU
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.num_layers < 1:
            raise ConfigError("num_layers must be >= 1")
        if len(self.dims) != self.num_layers + 1:
            raise ConfigError(
                f"dims must have num_layers + 1 = {self.num_layers + 1} entries, "
                f"got {len(self.dims)}"
            )
        if any(d < 1 for d in self.dims):
            raise ConfigError("feature widths must be positive")
        if not np.isfinite(self.epsilon):
            raise ConfigError(f"epsilon must be finite, got {self.epsilon}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        # the weight streams keep only the seed's low 64 bits
        if not 0 <= self.seed <= MASK64:
            raise ConfigError(f"seed must be in [0, 2^64), got {self.seed}")

    def summary(self) -> dict:
        return {
            "model": self.model.value,
            "comp": self.comp_model.value,
            "layers": self.num_layers,
            "dims": list(self.dims),
            "activation": self.activation.value,
            "epsilon": self.epsilon,
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class LayerParams:
    """Per-layer weights; which matrices are present depends on the model.

    GCN and GIN carry ``theta`` only; SAGE carries ``w1`` (self) and ``w2``
    (neighbor). The paper-level scalar weights of SAGE are generalized to
    full matrices so layers can change feature width; a scalar is the 1x1
    special case. As the graph types do, the constructor takes ownership
    of its matrices and marks them read-only, and ``==`` compares bytes.
    """

    theta: Optional[np.ndarray] = None
    w1: Optional[np.ndarray] = None
    w2: Optional[np.ndarray] = None

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) is not None:
                object.__setattr__(self, f.name, frozen(getattr(self, f.name)))

    __eq__ = bitwise_eq

    def astype(self, dtype) -> "LayerParams":
        cast = lambda m: None if m is None else m.astype(dtype, copy=False)
        return LayerParams(cast(self.theta), cast(self.w1), cast(self.w2))


def _draw_matrix(seed: int, layer: int, role: int, f_in: int, f_out: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(f_in)
    u = uniform_array(mix_key(seed, layer, role), f_in * f_out)
    return ((2.0 * u - 1.0) * bound).reshape(f_in, f_out)


def init_weights(spec: ModelSpec) -> list:
    """Deterministic weight initialization for every layer of ``spec``.

    Entries are uniform in [-1/sqrt(f_in), +1/sqrt(f_in)]; the stream is
    keyed by (seed, layer index, matrix role), so identical specs yield
    bit-identical weights and different seeds decorrelate.
    """
    params = []
    for layer in range(spec.num_layers):
        f_in, f_out = spec.dims[layer], spec.dims[layer + 1]
        mats = {name: _draw_matrix(spec.seed, layer, role, f_in, f_out)
                for name, role in _WEIGHTS[spec.model]}
        params.append(LayerParams(**mats))
    return params


def _sage_edges(g: CooGraph, epsilon: float) -> CooGraph:
    # the neighbor mean weighs every edge, self-loops included, the same
    looped = add_self_loops(g)
    return CooGraph(looped.num_nodes, looped.src, looped.dst,
                    np.ones(looped.num_edges, dtype=looped.weights.dtype))


def _sage_spmm_edges(g: CooGraph, epsilon: float) -> CooGraph:
    # the neighbor mean as an operator: each looped edge weighs one over its
    # destination's looped in-degree, duplicates counted, since the CSR
    # coalesces them; the division stays in the weights' dtype
    looped = _sage_edges(g, epsilon)
    degrees = np.bincount(looped.dst, minlength=looped.num_nodes)[looped.dst]
    return CooGraph(looped.num_nodes, looped.src, looped.dst,
                    looped.weights / degrees.astype(looped.weights.dtype))


def _gin_spmm_edges(g: CooGraph, epsilon: float) -> CooGraph:
    # A + (1 + eps) I: the raw edges, then one 1 + eps loop per node
    nodes = np.arange(g.num_nodes, dtype=np.int64)
    loops = np.full(g.num_nodes, 1.0 + epsilon, dtype=g.weights.dtype)
    return CooGraph(g.num_nodes, np.concatenate([g.src, nodes]),
                    np.concatenate([g.dst, nodes]),
                    np.concatenate([g.weights, loops]))


# Each update returns a layer's output before the activation, which
# :func:`forward` applies. ``ctx`` is the prepared edge list (see
# :func:`prepare`). ``k`` is the kernel backend: the kernels module itself,
# or an object duck-typing it (instrumented runs).
def _gcn_mp_update(ctx, x, p, epsilon, k):
    msgs = k.index_select(k.sgemm(x, p.theta), ctx.src)
    return k.scatter(msgs, ctx.incidence, ReduceOp.SUM)


def _spmm_update(ctx, x, p, epsilon, k):
    return k.sgemm(k.spmm(ctx, x), p.theta)


def _gin_mp_update(ctx, x, p, epsilon, k):
    agg = k.scatter(k.index_select(x, ctx.src), ctx.incidence, ReduceOp.SUM)
    return k.sgemm((1.0 + epsilon) * x + agg, p.theta)


def _sage_mp_update(ctx, x, p, epsilon, k):
    mean = k.scatter(k.index_select(x, ctx.src), ctx.incidence, ReduceOp.MEAN)
    return k.sgemm(x, p.w1) + k.sgemm(mean, p.w2)


def _sage_spmm_update(ctx, x, p, epsilon, k):
    return k.sgemm(x, p.w1) + k.sgemm(k.spmm(ctx, x), p.w2)


class Pipeline(NamedTuple):
    """How one (model, computational model) pair is built and run."""

    edges: Callable    # (g, epsilon) -> the CooGraph the layers aggregate over
    update: Callable   # (ctx, x, layer params, epsilon, kernels) -> x' unactivated


PIPELINES = {
    (Model.GCN, CompModel.MP): Pipeline(lambda g, eps: normalized_edges(g),
                                        _gcn_mp_update),
    (Model.GCN, CompModel.SPMM): Pipeline(lambda g, eps: normalized_edges(g),
                                          _spmm_update),
    (Model.GIN, CompModel.MP): Pipeline(lambda g, eps: g, _gin_mp_update),
    (Model.GIN, CompModel.SPMM): Pipeline(_gin_spmm_edges, _spmm_update),
    (Model.SAGE, CompModel.MP): Pipeline(_sage_edges, _sage_mp_update),
    (Model.SAGE, CompModel.SPMM): Pipeline(_sage_spmm_edges, _sage_spmm_update),
}

# Each model's weight matrices, as (LayerParams field, weight stream role);
# both computational models of a model run on the same weights. The role
# ids key the weight streams, so they must never change.
_THETA = (("theta", 0),)
_WEIGHTS = {Model.GCN: _THETA, Model.GIN: _THETA,
            Model.SAGE: (("w1", 1), ("w2", 2))}


# How each computational model lays out a pipeline's edges, as (ctx type,
# builder): MP gathers messages in destination order and reduces them
# through the destination x edge incidence; SpMM multiplies by the edges'
# canonical CSR.
_LAYOUT = {CompModel.MP: (MessagePassing, coo_to_incidence),
           CompModel.SPMM: (CsrGraph, coo_to_csr)}


def prepare(spec: ModelSpec, g: CooGraph) -> MessagePassing | CsrGraph:
    """The pipeline's edges in its computational model's layout: a
    :class:`MessagePassing` under MP, the canonical ``CsrGraph`` under
    SpMM."""
    _, build = _LAYOUT[spec.comp_model]
    return build(PIPELINES[spec.model, spec.comp_model].edges(g, spec.epsilon))


def _check_params(spec: ModelSpec, params: Sequence[LayerParams]):
    if len(params) != spec.num_layers:
        raise ShapeError(
            f"expected {spec.num_layers} layer params, got {len(params)}"
        )
    for i, p in enumerate(params):
        want = (spec.dims[i], spec.dims[i + 1])
        for name, _ in _WEIGHTS[spec.model]:
            m = getattr(p, name)
            if m is None or m.shape != want:
                got = None if m is None else m.shape
                raise ShapeError(
                    f"layer {i} weight shape {got} breaks dims chain {want}"
                )


def _check_ctx(spec: ModelSpec, g: CooGraph, ctx):
    want, _ = _LAYOUT[spec.comp_model]
    if not isinstance(ctx, want):
        raise ConfigError(f"a {spec.comp_model.value} pipeline runs on a "
                          f"{want.__name__} ctx, got {type(ctx).__name__}")
    if ctx.num_rows != g.num_nodes:
        raise ShapeError(f"ctx has {ctx.num_rows} rows for {g.num_nodes} nodes")


def forward(spec: ModelSpec, params: Sequence[LayerParams], g: CooGraph,
            x: np.ndarray, instr=None,
            ctx: Optional[MessagePassing | CsrGraph] = None) -> np.ndarray:
    """Run the full pipeline, threading the feature matrix through every layer.

    The activation is applied after every layer including the last. The
    edges in the computational model's layout are prepared once and reused
    across layers. A caller-supplied ``ctx`` (as :func:`prepare` returns it)
    is checked in O(1) for its layout type (ConfigError) and its row count
    (ShapeError); one prepared from another graph with the same node count,
    or for another pipeline of the same computational model, cannot be
    detected.
    """
    if x.ndim != 2 or x.shape[0] != g.num_nodes:
        raise ShapeError(
            f"feature matrix shape {x.shape} does not match {g.num_nodes} nodes"
        )
    if x.shape[1] != spec.dims[0]:
        raise ShapeError(
            f"input feature width {x.shape[1]} != dims[0] = {spec.dims[0]}"
        )
    pipeline = PIPELINES[spec.model, spec.comp_model]
    _check_params(spec, params)
    if ctx is None:
        ctx = prepare(spec, g)
    else:
        _check_ctx(spec, g, ctx)
    k = kernels if instr is None else instr
    h = x
    for p in params:
        h = apply_activation(pipeline.update(ctx, h, p, spec.epsilon, k),
                             spec.activation)
    return h
