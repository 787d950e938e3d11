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

Each pipeline is one table entry: the edge list its layers aggregate over
and its layer update. :func:`prepare` lays that list out once per run, as
its computational model reads it: a ``CooGraph`` stably sorted by
destination under MP (GCN and GIN pass its weights to ``scatter`` as the
per-edge scale), the canonical ``CsrGraph`` under SpMM.

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
    add_self_loops,
    coo_to_csr,
    normalized_edges,
    sort_by_destination,
)
from .kernels import ReduceOp
from .rng import mix_key, uniform_array

__all__ = [
    "Model",
    "CompModel",
    "Activation",
    "ModelSpec",
    "LayerParams",
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
def _gcn_mp_apply(ctx, x, p, act, k):
    msgs = k.index_select(k.sgemm(x, p.theta), ctx.src)
    return apply_activation(
        k.scatter(msgs, ctx.dst, ctx.num_nodes, ReduceOp.SUM, ctx.weights), act)


def _spmm_apply(ctx, x, p, act, k):
    return apply_activation(k.sgemm(k.spmm(ctx, x), p.theta), act)


def _gin_mp_apply(ctx, x, p, act, k):
    agg = k.scatter(k.index_select(x, ctx.src), ctx.dst, ctx.num_nodes,
                    ReduceOp.SUM, ctx.weights)
    return apply_activation(k.sgemm((1.0 + p.epsilon) * x + agg, p.theta), act)


def _sage_mp_apply(ctx, x, p, act, k):
    mean = k.scatter(k.index_select(x, ctx.src), ctx.dst, ctx.num_nodes,
                     ReduceOp.MEAN)
    return apply_activation(k.sgemm(x, p.w1) + k.sgemm(mean, p.w2), act)


class Pipeline(NamedTuple):
    """How one (model, computational model) pair is built and run."""

    edges: Callable    # (g, epsilon) -> the CooGraph the layers aggregate over
    apply: Callable    # (ctx, x, params, activation, kernels) -> x'
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
    (Model.SAGE, CompModel.MP): Pipeline(lambda g, eps: add_self_loops(g),
                                         _sage_mp_apply, _SELF_AND_NEIGHBOR),
}

# How each computational model lays out a pipeline's edges: MP walks them
# in destination order, so scatter's own stable sort runs on sorted input;
# SpMM multiplies by their canonical CSR.
_LAYOUT = {CompModel.MP: sort_by_destination, CompModel.SPMM: coo_to_csr}


def pipeline_for(model: Model, comp: CompModel) -> Pipeline:
    """The table entry of ``(model, comp)``; ConfigError if there is none."""
    try:
        return PIPELINES[model, comp]
    except KeyError:
        raise ConfigError(
            f"{model.value} has no {comp.value} formulation; implemented "
            "pipelines: " + ", ".join(f"{m.value}-{c.value}" for m, c in PIPELINES)
        ) from None


def prepare(spec: ModelSpec, g: CooGraph) -> CooGraph | CsrGraph:
    """The pipeline's edges in its computational model's layout: a
    ``CooGraph`` stably sorted by destination under MP, the canonical
    ``CsrGraph`` under SpMM."""
    edges = PIPELINES[spec.model, spec.comp_model].edges(g, spec.epsilon)
    return _LAYOUT[spec.comp_model](edges)


def _check_rows(g: CooGraph, x: np.ndarray):
    if x.ndim != 2 or x.shape[0] != g.num_nodes:
        raise ShapeError(
            f"feature matrix shape {x.shape} does not match {g.num_nodes} nodes"
        )


def _single_layer(model: str, comp: str, doc: str):
    comp_model = CompModel(comp)
    pipeline, layout = PIPELINES[Model(model), comp_model], _LAYOUT[comp_model]

    def layer(g: CooGraph, x: np.ndarray, p: LayerParams, act: Activation,
              instr=None) -> np.ndarray:
        _check_rows(g, x)
        return pipeline.apply(layout(pipeline.edges(g, p.epsilon)), x, p, act,
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
            x: np.ndarray, instr=None,
            ctx: Optional[CooGraph | CsrGraph] = None) -> np.ndarray:
    """Run the full pipeline, threading the feature matrix through every layer.

    The activation is applied after every layer including the last. The
    edges in the computational model's layout are prepared once (or taken
    from a caller-supplied ``ctx``, as :func:`prepare` returns them) and
    reused across layers. Every layer's ``epsilon`` must equal the spec's,
    which is the one the edges are prepared with.
    """
    _check_rows(g, x)
    if x.shape[1] != spec.dims[0]:
        raise ShapeError(
            f"input feature width {x.shape[1]} != dims[0] = {spec.dims[0]}"
        )
    pipeline = PIPELINES[spec.model, spec.comp_model]
    _check_params(spec, pipeline.weights, params)
    if ctx is None:
        ctx = prepare(spec, g)
    k = kernels if instr is None else instr
    h = x
    for p in params:
        h = pipeline.apply(ctx, h, p, spec.activation, k)
    return h
