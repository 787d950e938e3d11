"""GNN layers and multi-layer pipelines under two computational models.

Three models (GCN, GIN, GraphSAGE) are each expressed over the core
kernels, under the message-passing (MP) model and, for GCN and GIN, the
sparse-matrix (SpMM) model as well:

- GCN-MP: per-node update ``act( sum_{u in N(v)+{v}} x_u Theta / sqrt(d_u d_v) )``,
  realized as linear transform, gather by edge source, per-edge scaling,
  scatter-sum by edge destination. The linear transform runs first; by
  linearity that is equivalent to transforming after the sum.
- GCN-SpMM: ``act( norm_adj @ X @ Theta )`` with the symmetrically
  normalized self-looped adjacency built once per run.
- GIN-MP: ``act( ((1 + eps) * X + neighbor_sum) @ Theta )`` where the
  neighbor sum runs over the raw edge list (the ``1 + eps`` term carries
  the self contribution, so no self-loops are inserted).
- GIN-SpMM: ``act( (A + (1 + eps) I) @ X @ Theta )``.
- SAGE-MP: ``act( X @ W1 + neighbor_mean @ W2 )`` with the mean taken over
  ``N(v) + {v}`` (self-loops inserted). SAGE has no SpMM formulation here,
  and requesting one is rejected.

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
import scipy.sparse

from . import kernels
from .errors import ConfigError, ShapeError
from .graph import (
    CooGraph,
    CsrGraph,
    add_self_loops,
    compute_degrees,
    coo_to_csr,
    normalized_adjacency,
    sym_norm_coefficients,
)
from .kernels import ReduceOp
from .rng import mix_key, uniform_array

__all__ = [
    "Model",
    "CompModel",
    "Activation",
    "ModelSpec",
    "LayerParams",
    "PipelineContext",
    "Pipeline",
    "PIPELINES",
    "pipeline_for",
    "init_weights",
    "prepare",
    "forward",
    "gcn_layer_mp",
    "gcn_layer_spmm",
    "gin_layer_mp",
    "gin_layer_spmm",
    "sage_layer_mp",
    "relu",
    "sigmoid",
    "apply_activation",
    "gin_operator",
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
    epsilon: float = 0.0

    def astype(self, dtype) -> "LayerParams":
        cast = lambda m: None if m is None else m.astype(dtype, copy=False)
        return LayerParams(cast(self.theta), cast(self.w1), cast(self.w2),
                           self.epsilon)


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
        params.append(LayerParams(**mats, epsilon=spec.epsilon))
    return params


def gin_operator(g: CooGraph, epsilon: float) -> CsrGraph:
    """CSR of ``A + (1 + eps) I`` built from the raw edge list."""
    nodes = np.arange(g.num_nodes, dtype=np.int64)
    src = np.concatenate([g.src, nodes])
    dst = np.concatenate([g.dst, nodes])
    loop_w = np.full(g.num_nodes, 1.0 + epsilon, dtype=g.weights.dtype)
    weights = np.concatenate([g.weights, loop_w])
    return coo_to_csr(CooGraph(g.num_nodes, src, dst, weights))


@dataclass(frozen=True)
class PipelineContext:
    """Per-run edge structures, computed once and reused across layers."""

    src: Optional[np.ndarray] = None
    dst: Optional[np.ndarray] = None
    coeff: Optional[np.ndarray] = None
    adj: Optional[CsrGraph] = None


def _destination_order(dst: np.ndarray, n: int) -> np.ndarray:
    """The stable sort permutation of ``dst`` (values in ``[0, n)``), in O(e + n).

    Row ``v`` of the ``n x e`` destination-incidence matrix holds a one at
    column ``k`` for every edge ``k`` into ``v``; its canonical CSR lists
    each row's columns in ascending order, so the column indices are the
    edges sorted by destination, each destination keeping its edges in
    ascending order, as ``np.argsort(dst, kind="stable")`` gives them.
    """
    e = len(dst)
    incidence = scipy.sparse.coo_array(
        (np.ones(e, dtype=np.int8), (dst, np.arange(e))), shape=(n, e))
    return incidence.tocsr().indices.astype(np.int64, copy=False)


def _mp_context(g: CooGraph, coeff=None) -> PipelineContext:
    # edges sorted by destination, stably, so each destination keeps its
    # edges in ascending order and scatter's own stable sort runs on
    # sorted input
    order = _destination_order(g.dst, g.num_nodes)
    return PipelineContext(src=g.src[order], dst=g.dst[order],
                           coeff=None if coeff is None else coeff[order])


def _gcn_mp_context(g: CooGraph, epsilon: float) -> PipelineContext:
    # per-edge message scale: edge weight times 1/sqrt(d_src * d_dst), so
    # weighted graphs stay equivalent to the normalized-adjacency route
    looped = add_self_loops(g)
    coeff = sym_norm_coefficients(looped, compute_degrees(looped))
    return _mp_context(looped, coeff * looped.weights)


def _gcn_spmm_context(g: CooGraph, epsilon: float) -> PipelineContext:
    return PipelineContext(adj=normalized_adjacency(g))


def _gin_mp_context(g: CooGraph, epsilon: float) -> PipelineContext:
    return _mp_context(g, g.weights)


def _gin_spmm_context(g: CooGraph, epsilon: float) -> PipelineContext:
    return PipelineContext(adj=gin_operator(g, epsilon))


def _sage_mp_context(g: CooGraph, epsilon: float) -> PipelineContext:
    looped = add_self_loops(g)
    return _mp_context(looped)


# ``k`` is the kernel backend: the kernels module itself, or an object
# duck-typing it (instrumented runs).
def _gcn_mp_apply(ctx, n, x, p, act, k):
    msgs = k.index_select(k.sgemm(x, p.theta), ctx.src)
    return apply_activation(k.scatter(msgs, ctx.dst, n, ReduceOp.SUM, ctx.coeff),
                            act)


def _spmm_apply(ctx, n, x, p, act, k):
    return apply_activation(k.sgemm(k.spmm(ctx.adj, x), p.theta), act)


def _gin_mp_apply(ctx, n, x, p, act, k):
    agg = k.scatter(k.index_select(x, ctx.src), ctx.dst, n, ReduceOp.SUM,
                    ctx.coeff)
    return apply_activation(k.sgemm((1.0 + p.epsilon) * x + agg, p.theta), act)


def _sage_mp_apply(ctx, n, x, p, act, k):
    mean = k.scatter(k.index_select(x, ctx.src), ctx.dst, n, ReduceOp.MEAN)
    return apply_activation(k.sgemm(x, p.w1) + k.sgemm(mean, p.w2), act)


class Pipeline(NamedTuple):
    """How one (model, computational model) pair is built and run."""

    prepare: Callable  # (g, epsilon) -> PipelineContext
    apply: Callable    # (ctx, num_nodes, x, params, activation, kernels) -> x'
    weights: tuple     # (LayerParams field, weight stream role) per matrix


# The role ids key the weight streams, so they must never change.
_THETA = (("theta", 0),)
_SELF_AND_NEIGHBOR = (("w1", 1), ("w2", 2))

PIPELINES = {
    (Model.GCN, CompModel.MP): Pipeline(_gcn_mp_context, _gcn_mp_apply, _THETA),
    (Model.GCN, CompModel.SPMM): Pipeline(_gcn_spmm_context, _spmm_apply, _THETA),
    (Model.GIN, CompModel.MP): Pipeline(_gin_mp_context, _gin_mp_apply, _THETA),
    (Model.GIN, CompModel.SPMM): Pipeline(_gin_spmm_context, _spmm_apply, _THETA),
    (Model.SAGE, CompModel.MP): Pipeline(_sage_mp_context, _sage_mp_apply,
                                         _SELF_AND_NEIGHBOR),
}


def pipeline_for(model: Model, comp: CompModel) -> Pipeline:
    """The table entry of ``(model, comp)``; ConfigError if there is none."""
    try:
        return PIPELINES[model, comp]
    except KeyError:
        raise ConfigError(
            f"{model.value} has no {comp.value} formulation; implemented "
            "pipelines: " + ", ".join(f"{m.value}-{c.value}" for m, c in PIPELINES)
        ) from None


def prepare(spec: ModelSpec, g: CooGraph) -> PipelineContext:
    """Precompute the edge structures the selected pipeline needs."""
    return PIPELINES[spec.model, spec.comp_model].prepare(g, spec.epsilon)


def _check_rows(g: CooGraph, x: np.ndarray):
    if x.ndim != 2 or x.shape[0] != g.num_nodes:
        raise ShapeError(
            f"feature matrix shape {x.shape} does not match {g.num_nodes} nodes"
        )


def _single_layer(model: str, comp: str, doc: str):
    pipeline = PIPELINES[Model(model), CompModel(comp)]

    def layer(g: CooGraph, x: np.ndarray, p: LayerParams, act: Activation,
              instr=None) -> np.ndarray:
        _check_rows(g, x)
        ctx = pipeline.prepare(g, p.epsilon)
        return pipeline.apply(ctx, g.num_nodes, x, p, act,
                              kernels if instr is None else instr)

    layer.__name__ = layer.__qualname__ = f"{model}_layer_{comp}"
    layer.__doc__ = doc
    return layer


gcn_layer_mp = _single_layer("gcn", "mp", """One GCN layer under message
    passing (self-loops inserted internally).""")
gcn_layer_spmm = _single_layer("gcn", "spmm", """One GCN layer as
    normalized-adjacency times features times weights.""")
gin_layer_mp = _single_layer("gin", "mp", """One GIN layer under message
    passing over the raw edge list.""")
gin_layer_spmm = _single_layer("gin", "spmm", """One GIN layer as
    ``(A + (1 + eps) I) @ X @ Theta``.""")
sage_layer_mp = _single_layer("sage", "mp", """One GraphSAGE layer; neighbor
    mean is over N(v) plus the node itself.""")


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
        if p.epsilon != spec.epsilon:
            raise ConfigError(
                f"layer {i} epsilon {p.epsilon} differs from the spec's "
                f"epsilon {spec.epsilon}"
            )


def forward(spec: ModelSpec, params: Sequence[LayerParams], g: CooGraph,
            x: np.ndarray, instr=None, ctx: Optional[PipelineContext] = None
            ) -> np.ndarray:
    """Run the full pipeline, threading the feature matrix through every layer.

    The activation is applied after every layer including the last. Edge
    structures are computed once (or taken from a caller-supplied ``ctx``)
    and reused across layers. Every layer's ``epsilon`` must equal the
    spec's, which is the one the edge structures are built with.
    """
    _check_rows(g, x)
    if x.shape[1] != spec.dims[0]:
        raise ShapeError(
            f"input feature width {x.shape[1]} != dims[0] = {spec.dims[0]}"
        )
    pipeline = PIPELINES[spec.model, spec.comp_model]
    _check_params(spec, pipeline.weights, params)
    if ctx is None:
        ctx = pipeline.prepare(g, spec.epsilon)
    k = kernels if instr is None else instr
    h = x
    for p in params:
        h = pipeline.apply(ctx, g.num_nodes, h, p, spec.activation, k)
    return h
