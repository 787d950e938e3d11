"""GNN layers and multi-layer pipelines under two computational models.

Three models (GCN, GIN, GraphSAGE) are each expressed over the core
kernels, under the message-passing (MP) model and, for GCN and GIN, the
sparse-matrix (SpMM) model as well:

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
  ``N(v) + {v}`` (self-loops inserted). SAGE has no SpMM formulation here,
  and requesting one is rejected.

Each pipeline is one table entry: the edge list its layers aggregate over
and its layer update, which reads the activation and GIN's epsilon from the
``ModelSpec`` (``LayerParams`` holds matrices only). :func:`forward` is the
one way to run layers. :func:`prepare` lays the edge list out once per run,
as its computational model reads it. Under MP that is a
:class:`MessagePassing`: the edge sources stably sorted by destination,
which ``index_select`` gathers by, and the destination x edge incidence
``CsrGraph`` that ``scatter`` reduces through, its values the per-edge
scale (GCN's normalized weights, GIN's raw weights, SAGE's units). Under
SpMM it is the canonical ``CsrGraph``.

The two computational models of the same network agree within floating
point reordering error; that equivalence is the central correctness
property and is enforced by the test suite and the ``check`` CLI command.

Weights are dense matrices drawn uniformly from [-1/sqrt(f_in),
+1/sqrt(f_in)] by a SplitMix64 stream keyed on (seed, layer, role), so a
given ``ModelSpec`` always produces bit-identical weights. There are no
bias terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError, ShapeError
from .graph import (
    CooGraph,
    CsrGraph,
    _stable_node_order,
    add_self_loops,
    coo_to_csr,
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
    "MessagePassing",
    "pipeline_for",
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
        pipeline_for(self.model, self.comp_model)

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


@dataclass(frozen=True)
class LayerParams:
    """Per-layer weights; which matrices are present depends on the model.

    GCN and GIN carry ``theta`` only; SAGE carries ``w1`` (self) and ``w2``
    (neighbor). The paper-level scalar weights of SAGE are generalized to
    full matrices so layers can change feature width; a scalar is the 1x1
    special case.
    """

    theta: Optional[np.ndarray] = None
    w1: Optional[np.ndarray] = None
    w2: Optional[np.ndarray] = None

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
    weights = PIPELINES[spec.model, spec.comp_model].weights
    params = []
    for layer in range(spec.num_layers):
        f_in, f_out = spec.dims[layer], spec.dims[layer + 1]
        mats = {name: _draw_matrix(spec.seed, layer, role, f_in, f_out)
                for name, role in weights}
        params.append(LayerParams(**mats))
    return params


def _sage_edges(g: CooGraph, epsilon: float) -> CooGraph:
    # the neighbor mean weighs every edge, self-loops included, the same
    looped = add_self_loops(g)
    return CooGraph(looped.num_nodes, looped.src, looped.dst,
                    np.ones(looped.num_edges, dtype=looped.weights.dtype))


def _gin_spmm_edges(g: CooGraph, epsilon: float) -> CooGraph:
    # A + (1 + eps) I: the raw edges, then one 1 + eps loop per node
    nodes = np.arange(g.num_nodes, dtype=np.int64)
    loops = np.full(g.num_nodes, 1.0 + epsilon, dtype=g.weights.dtype)
    return CooGraph(g.num_nodes, np.concatenate([g.src, nodes]),
                    np.concatenate([g.dst, nodes]),
                    np.concatenate([g.weights, loops]))


# ``ctx`` is the prepared edge list (see :func:`prepare`). ``k`` is the
# kernel backend: the kernels module itself, or an object duck-typing it
# (instrumented runs).
def _gcn_mp_apply(ctx, x, p, spec, k):
    msgs = k.index_select(k.sgemm(x, p.theta), ctx.src)
    return apply_activation(k.scatter(msgs, ctx.incidence, ReduceOp.SUM),
                            spec.activation)


def _spmm_apply(ctx, x, p, spec, k):
    return apply_activation(k.sgemm(k.spmm(ctx, x), p.theta), spec.activation)


def _gin_mp_apply(ctx, x, p, spec, k):
    agg = k.scatter(k.index_select(x, ctx.src), ctx.incidence, ReduceOp.SUM)
    return apply_activation(k.sgemm((1.0 + spec.epsilon) * x + agg, p.theta),
                            spec.activation)


def _sage_mp_apply(ctx, x, p, spec, k):
    mean = k.scatter(k.index_select(x, ctx.src), ctx.incidence, ReduceOp.MEAN)
    return apply_activation(k.sgemm(x, p.w1) + k.sgemm(mean, p.w2),
                            spec.activation)


class Pipeline(NamedTuple):
    """How one (model, computational model) pair is built and run."""

    edges: Callable    # (g, epsilon) -> the CooGraph the layers aggregate over
    apply: Callable    # (ctx, x, layer params, spec, kernels) -> x'
    weights: tuple     # (LayerParams field, weight stream role) per matrix


# The role ids key the weight streams, so they must never change.
_THETA = (("theta", 0),)
_SELF_AND_NEIGHBOR = (("w1", 1), ("w2", 2))

PIPELINES = {
    (Model.GCN, CompModel.MP): Pipeline(lambda g, eps: normalized_edges(g),
                                        _gcn_mp_apply, _THETA),
    (Model.GCN, CompModel.SPMM): Pipeline(lambda g, eps: normalized_edges(g),
                                          _spmm_apply, _THETA),
    (Model.GIN, CompModel.MP): Pipeline(lambda g, eps: g, _gin_mp_apply, _THETA),
    (Model.GIN, CompModel.SPMM): Pipeline(_gin_spmm_edges, _spmm_apply, _THETA),
    (Model.SAGE, CompModel.MP): Pipeline(_sage_edges, _sage_mp_apply,
                                         _SELF_AND_NEIGHBOR),
}


class MessagePassing(NamedTuple):
    """A pipeline's edges as MP reads them, stably sorted by destination."""

    src: np.ndarray       # the source node of each edge, in that order
    incidence: CsrGraph   # destination x edge; values are the edge weights


def _message_passing(g: CooGraph) -> MessagePassing:
    n, e = g.num_nodes, g.num_edges
    # each destination keeps its edges in edge-list order
    order, row_ptr = _stable_node_order(g.dst, n)
    return MessagePassing(g.src[order], CsrGraph(
        n, e, row_ptr, np.arange(e, dtype=np.int64), g.weights[order]))


# How each computational model lays out a pipeline's edges: MP gathers
# messages in destination order and reduces them through the destination x
# edge incidence; SpMM multiplies by the edges' canonical CSR.
_LAYOUT = {CompModel.MP: _message_passing, CompModel.SPMM: coo_to_csr}


def pipeline_for(model: Model, comp: CompModel) -> Pipeline:
    """The table entry of ``(model, comp)``; ConfigError if there is none."""
    try:
        return PIPELINES[model, comp]
    except KeyError:
        raise ConfigError(
            f"{model.value} has no {comp.value} formulation; implemented "
            "pipelines: " + ", ".join(f"{m.value}-{c.value}" for m, c in PIPELINES)
        ) from None


def prepare(spec: ModelSpec, g: CooGraph) -> MessagePassing | CsrGraph:
    """The pipeline's edges in its computational model's layout: a
    :class:`MessagePassing` under MP, the canonical ``CsrGraph`` under
    SpMM."""
    edges = PIPELINES[spec.model, spec.comp_model].edges(g, spec.epsilon)
    return _LAYOUT[spec.comp_model](edges)


def _check_params(spec: ModelSpec, weights: tuple, params: Sequence[LayerParams]):
    if len(params) != spec.num_layers:
        raise ShapeError(
            f"expected {spec.num_layers} layer params, got {len(params)}"
        )
    for i, p in enumerate(params):
        want = (spec.dims[i], spec.dims[i + 1])
        for name, _ in weights:
            m = getattr(p, name)
            if m is None or m.shape != want:
                got = None if m is None else m.shape
                raise ShapeError(
                    f"layer {i} weight shape {got} breaks dims chain {want}"
                )


def _check_ctx(spec: ModelSpec, g: CooGraph, ctx):
    mp = spec.comp_model is CompModel.MP
    want = MessagePassing if mp else CsrGraph
    if not isinstance(ctx, want):
        raise ConfigError(f"a {spec.comp_model.value} pipeline runs on a "
                          f"{want.__name__} ctx, got {type(ctx).__name__}")
    rows = (ctx.incidence if mp else ctx).num_rows
    if rows != g.num_nodes:
        raise ShapeError(f"ctx has {rows} rows for {g.num_nodes} nodes")


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
    _check_params(spec, pipeline.weights, params)
    if ctx is None:
        ctx = prepare(spec, g)
    else:
        _check_ctx(spec, g, ctx)
    k = kernels if instr is None else instr
    h = x
    for p in params:
        h = pipeline.apply(ctx, h, p, spec, k)
    return h
