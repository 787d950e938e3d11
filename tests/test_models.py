import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_layer
from oracles import csr_to_dense, dense_layer

from gnnbench import reference
from gnnbench.bench import cast_inputs
from gnnbench.data import gen_er_graph, gen_features
from gnnbench.errors import ConfigError, NormalizationError, ShapeError
from gnnbench.graph import (
    CooGraph,
    CsrGraph,
    add_self_loops,
    coo_to_csr,
    coo_to_dense,
    normalized_edges,
)
from gnnbench.kernels import ReduceOp, index_select, scatter, sgemm
from gnnbench.models import (
    PIPELINES,
    Activation,
    CompModel,
    LayerParams,
    Model,
    ModelSpec,
    forward,
    init_weights,
    prepare,
    relu,
    sigmoid,
)
from gnnbench.models import _LAYOUT

IDENT = Activation.IDENTITY

PIPELINE_NAMES = sorted(f"{m.value}-{c.value}" for m, c in PIPELINES)


def theta_params(theta):
    return LayerParams(theta=np.asarray(theta, dtype=np.float64))


def sage_params(w1, w2):
    return LayerParams(w1=np.asarray(w1, dtype=np.float64),
                       w2=np.asarray(w2, dtype=np.float64))


def spec_for(model, comp, dims, act=Activation.RELU, eps=0.0, seed=0):
    return ModelSpec(Model(model), CompModel(comp), len(dims) - 1, dims, act,
                     eps, seed)


class TestInitWeights:
    def test_deterministic(self):
        spec = spec_for("gcn", "mp", (4, 8, 2), seed=5)
        a = init_weights(spec)
        b = init_weights(spec)
        assert all(x.theta.tobytes() == y.theta.tobytes() for x, y in zip(a, b))

    def test_bound_for_unit_fan_in(self):
        spec = spec_for("gin", "mp", (1, 64), seed=1)
        (p,) = init_weights(spec)
        assert np.abs(p.theta).max() <= 1.0

    def test_seed_sensitivity(self):
        a = init_weights(spec_for("gcn", "mp", (4, 4), seed=1))
        b = init_weights(spec_for("gcn", "mp", (4, 4), seed=2))
        assert a[0].theta.tobytes() != b[0].theta.tobytes()

    def test_roles_per_model(self):
        (gcn,) = init_weights(spec_for("gcn", "mp", (3, 3)))
        assert gcn.theta is not None and gcn.w1 is None and gcn.w2 is None
        (sage,) = init_weights(spec_for("sage", "mp", (3, 3)))
        assert sage.theta is None and sage.w1 is not None and sage.w2 is not None
        assert sage.w1.tobytes() != sage.w2.tobytes()

    @pytest.mark.parametrize("model", [m.value for m in Model])
    def test_both_computational_models_draw_the_same_weights(self, model):
        # check gives one params list to both computational models
        mp, spmm = (init_weights(spec_for(model, comp.value, (4, 8, 2), seed=3))
                    for comp in CompModel)
        assert mp == spmm

    @pytest.mark.parametrize("name", PIPELINE_NAMES)
    def test_params_compare_by_bytes(self, name):
        spec = spec_for(*name.split("-"), (4, 8, 2))
        assert init_weights(spec) == init_weights(spec)
        assert init_weights(spec) != init_weights(spec_for(*name.split("-"),
                                                           (4, 8, 2), seed=1))

    def test_params_of_another_dtype_or_roles_differ(self):
        (p,) = init_weights(spec_for("gcn", "mp", (4, 8)))
        assert p.astype(np.float32) != p
        assert p.astype(np.float64) == p
        # theta against SAGE's absent theta, and w1 and w2 the other way
        assert p != LayerParams(w1=p.theta, w2=p.theta)

    def test_params_are_read_only(self):
        # one params list serves every repeat of a run, so no layer may
        # write to it
        p = init_weights(spec_for("gcn", "mp", (4, 8, 2)))[0]
        with pytest.raises(ValueError, match="read-only"):
            p.theta[0, 0] = 1.0


class TestGcnLayers:
    def test_mp_single_node_identity(self):
        g = CooGraph(1, [], [])
        x = np.array([[2.5, -1.0]])
        out = one_layer("gcn-mp", g, x, theta_params(np.eye(2)))
        assert np.abs(out - x).max() <= 1e-15

    def test_mp_two_node_uniform(self):
        g = CooGraph(2, src=[0, 1], dst=[1, 0])
        out = one_layer("gcn-mp", g, np.array([[1.0], [1.0]]),
                        theta_params([[1.0]]))
        assert np.abs(out - 1.0).max() <= 1e-15

    def test_spmm_loop_only_graph(self):
        x = gen_features(5, 3, 1)
        out = one_layer("gcn-spmm", CooGraph(5, [], []), x,
                        theta_params(np.eye(3)))
        assert np.abs(out - x).max() <= 1e-12

    def test_spmm_single_node_relu(self):
        out = one_layer("gcn-spmm", CooGraph(1, [], []), np.array([[2.0]]),
                        theta_params([[3.0]]), Activation.RELU)
        assert out.tolist() == [[6.0]]

    def test_cross_model_on_er(self):
        g = gen_er_graph(64, 0.1, 42)
        x = gen_features(64, 4, 7)
        p = theta_params(init_weights(spec_for("gcn", "mp", (4, 8)))[0].theta)
        a = one_layer("gcn-mp", g, x, p, Activation.RELU)
        b = one_layer("gcn-spmm", g, x, p, Activation.RELU)
        assert np.abs(a - b).max() <= 1e-9

    def test_duplicate_edges_contribute_independently(self):
        g = CooGraph(2, src=[0, 0, 1], dst=[1, 1, 0])
        x = np.array([[1.0], [2.0]])
        p = theta_params([[1.0]])
        a = one_layer("gcn-mp", g, x, p)
        b = one_layer("gcn-spmm", g, x, p)
        assert np.abs(a - b).max() <= 1e-12
        want = np.array(dense_layer("gcn", g, x, p))
        assert np.abs(a - want).max() <= 1e-9


class TestDegreeProductRange:
    @pytest.mark.parametrize("comp", ["mp", "spmm"])
    @pytest.mark.parametrize("g,edge", [
        # d_0 * d_0 = 1e-400 underflows to zero
        (CooGraph(2, np.array([0, 1]), np.array([0, 1]), np.array([1e-200, 1.0])),
         "0 -> 0"),
        # d_0 * d_0 = 1e400 overflows to inf
        (CooGraph(1, np.array([0]), np.array([0]), np.array([1e200])), "0 -> 0"),
        # d_0 = d_1 = 1e-161: the product 1e-322 is in range, but the scaled
        # weight 1e200 / 1e-161 overflows
        (CooGraph(2, np.array([0, 0, 1, 0]), np.array([1, 1, 1, 0]),
                  np.array([1e200, -1e200, 1e-161, 1e-161])), "0 -> 1"),
    ], ids=["underflow", "overflow", "scaled-weight-overflow"])
    def test_rejected_naming_the_edge(self, g, edge, comp):
        spec = spec_for("gcn", comp, (2, 2))
        x = gen_features(g.num_nodes, 2, 1)
        with pytest.raises(NormalizationError, match=rf"edge 0 \({edge}\)"):
            forward(spec, init_weights(spec), g, x)


class TestGinLayers:
    def test_mp_no_edges_is_input(self):
        x = gen_features(4, 2, 3)
        out = one_layer("gin-mp", CooGraph(4, [], []), x,
                        theta_params(np.eye(2)))
        assert np.abs(out - x).max() == 0.0

    def test_mp_two_node_hand_evaluated(self):
        g = CooGraph(2, src=[0, 1], dst=[1, 0])
        out = one_layer("gin-mp", g, np.array([[1.0], [2.0]]),
                        theta_params([[1.0]]))
        assert out.tolist() == [[3.0], [3.0]]

    def test_spmm_no_edges(self):
        x = gen_features(4, 2, 5)
        theta = init_weights(spec_for("gin", "mp", (2, 3)))[0].theta
        out = one_layer("gin-spmm", CooGraph(4, [], []), x,
                        theta_params(theta), Activation.RELU)
        want = relu(x @ theta)
        assert np.abs(out - want).max() <= 1e-12

    def test_spmm_single_node_epsilon(self):
        out = one_layer("gin-spmm", CooGraph(1, [], []), np.array([[1.0]]),
                        theta_params([[1.0]]), eps=1.0)
        assert out.tolist() == [[2.0]]

    def test_cross_model_on_er(self):
        g = gen_er_graph(64, 0.1, 42)
        x = gen_features(64, 4, 8)
        p = theta_params(init_weights(spec_for("gin", "mp", (4, 8)))[0].theta)
        a = one_layer("gin-mp", g, x, p, Activation.RELU, eps=0.5)
        b = one_layer("gin-spmm", g, x, p, Activation.RELU, eps=0.5)
        assert np.abs(a - b).max() <= 1e-9

    def test_pure_mlp_when_no_edges_and_zero_eps(self):
        x = gen_features(6, 3, 2)
        theta = init_weights(spec_for("gin", "mp", (3, 2)))[0].theta
        want = relu(x @ theta)
        for name in ("gin-mp", "gin-spmm"):
            out = one_layer(name, CooGraph(6, [], []), x, theta_params(theta),
                            Activation.RELU)
            assert np.abs(out - want).max() <= 1e-12

    def test_dataset_self_loops_kept_in_both_models(self):
        # pre-existing loop edges traverse as-is, on top of the (1+eps) term
        g = CooGraph(3, src=[0, 0, 1, 2, 2], dst=[1, 0, 2, 2, 1])
        x = gen_features(3, 2, 1)
        p = theta_params(init_weights(spec_for("gin", "mp", (2, 2)))[0].theta)
        a = one_layer("gin-mp", g, x, p, eps=0.25)
        b = one_layer("gin-spmm", g, x, p, eps=0.25)
        assert np.abs(a - b).max() <= 1e-12
        want = np.array(dense_layer("gin", g, x, p, eps=0.25))
        assert np.abs(a - want).max() <= 1e-9


class TestSageLayer:
    def test_isolated_node_mean_is_self(self):
        x = np.array([[3.0, -2.0]])
        out = one_layer("sage-mp", CooGraph(1, [], []), x,
                        sage_params(np.eye(2), np.eye(2)))
        assert np.abs(out - 2 * x).max() <= 1e-15

    def test_two_node_hand_evaluated(self):
        g = CooGraph(2, src=[0, 1], dst=[1, 0])
        out = one_layer("sage-mp", g, np.array([[0.0], [2.0]]),
                        sage_params([[1.0]], [[1.0]]))
        assert out.tolist() == [[1.0], [3.0]]

    def test_permutation_equivariance(self):
        g = gen_er_graph(20, 0.2, 9)
        x = gen_features(20, 3, 4)
        params = init_weights(spec_for("sage", "mp", (3, 5)))[0]
        perm = np.arange(20)[::-1].copy()  # node v relabeled to perm[v]
        inv = np.argsort(perm)
        pg = CooGraph(20, perm[g.src], perm[g.dst], g.weights)
        out_p = one_layer("sage-mp", pg, x[inv], params, Activation.RELU)
        out = one_layer("sage-mp", g, x, params, Activation.RELU)
        assert np.abs(out_p - out[inv]).max() <= 1e-9

    def test_cross_model_on_er(self):
        g = gen_er_graph(64, 0.1, 42)
        x = gen_features(64, 4, 9)
        params = init_weights(spec_for("sage", "mp", (4, 8)))[0]
        a = one_layer("sage-mp", g, x, params, Activation.RELU)
        b = one_layer("sage-spmm", g, x, params, Activation.RELU)
        assert np.abs(a - b).max() <= 1e-9

    @staticmethod
    def _multigraph():
        # duplicate edges (0 -> 1 three times, 2 -> 3 twice), one self-loop
        # twice and another once, so CSR entries undercount the edges
        src = np.array([0, 0, 0, 2, 2, 4, 4, 3, 1, 1, 5])
        dst = np.array([1, 1, 1, 3, 3, 4, 4, 1, 3, 1, 0])
        return CooGraph(6, src, dst), gen_features(6, 3, 5)

    def _spmm_vs_dense_reference(self, g, x):
        spec = spec_for("sage", "spmm", (3, 4, 2), eps=0.375, seed=3)
        params = init_weights(spec)
        got = forward(spec, params, g, x)
        return np.abs(got - reference.dense_forward(spec, params, g, x)).max()

    def test_spmm_mean_counts_duplicate_edges(self):
        g, x = self._multigraph()
        assert self._spmm_vs_dense_reference(g, x) <= 1e-9

    def test_entry_count_divisor_is_caught(self, monkeypatch):
        # dividing by each CSR row's entry count instead of the edge
        # multiplicity is wrong on a multigraph; the test above must see it
        def entry_count_edges(g, eps):
            looped = add_self_loops(g)
            entries = np.diff(coo_to_csr(looped).row_ptr)[looped.dst]
            return CooGraph(g.num_nodes, looped.src, looped.dst, 1.0 / entries)
        key = Model.SAGE, CompModel.SPMM
        monkeypatch.setitem(PIPELINES, key,
                            PIPELINES[key]._replace(edges=entry_count_edges))
        g, x = self._multigraph()
        assert self._spmm_vs_dense_reference(g, x) > 1e-3

    def test_spmm_at_f32_stays_f32(self):
        spec = spec_for("sage", "spmm", (3, 4))
        g_t, x_t, params = cast_inputs(spec, *self._multigraph(), "f32")
        assert prepare(spec, g_t).values.dtype == np.float32
        assert forward(spec, params, g_t, x_t).dtype == np.float32


class TestDenseOracle:
    @pytest.mark.parametrize("name", PIPELINE_NAMES,
                             ids=lambda name: name.replace("-", "_"))
    @pytest.mark.parametrize("f_in", [1, 4])
    def test_layer_matches_dense_equation(self, name, f_in):
        g = gen_er_graph(24, 0.2, 13)
        x = gen_features(24, f_in, 6)
        model = name.split("-")[0]
        spec = spec_for(model, "mp", (f_in, 5), seed=11)
        (params,) = init_weights(spec)
        got = one_layer(name, g, x, params, Activation.RELU, eps=0.25)
        want = np.array(dense_layer(model, g, x, params, "relu", eps=0.25))
        assert np.abs(got - want).max() <= 1e-9

    def test_weighted_graph_cross_model_consistency(self):
        # weighted edges flow through both computational models identically
        g = CooGraph(5, src=[0, 1, 2, 3, 1], dst=[1, 2, 3, 4, 2],
                     weights=[0.5, 2.0, 1.5, 3.0, 0.25])
        x = gen_features(5, 3, 3)
        p = theta_params(init_weights(spec_for("gcn", "mp", (3, 4)))[0].theta)
        a = one_layer("gcn-mp", g, x, p)
        b = one_layer("gcn-spmm", g, x, p)
        assert np.abs(a - b).max() <= 1e-12
        want = np.array(dense_layer("gcn", g, x, p))
        assert np.abs(a - want).max() <= 1e-9


class TestForward:
    def test_single_layer_equals_layer_call(self):
        # a one-layer forward is exactly the layer's kernel composition
        g = gen_er_graph(10, 0.3, 2)
        x = gen_features(10, 3, 1)
        spec = spec_for("gcn", "mp", (3, 6), seed=4)
        params = init_weights(spec)
        ctx = prepare(spec, g)
        msgs = index_select(sgemm(x, params[0].theta), ctx.src)
        want = relu(scatter(msgs, ctx.incidence, ReduceOp.SUM))
        assert forward(spec, params, g, x).tobytes() == want.tobytes()

    def test_two_layer_cross_model(self):
        g = gen_er_graph(64, 0.1, 42)
        x = gen_features(64, 16, 5)
        pa = spec_for("gcn", "mp", (16, 8, 8), seed=7)
        pb = spec_for("gcn", "spmm", (16, 8, 8), seed=7)
        params = init_weights(pa)
        a = forward(pa, params, g, x)
        b = forward(pb, params, g, x)
        assert np.abs(a - b).max() <= 1e-9

    def test_identity_fixed_point(self):
        x = gen_features(5, 2, 9)
        spec = spec_for("gcn", "mp", (2, 2, 2, 2), act=IDENT)
        params = [theta_params(np.eye(2))] * 3
        out = forward(spec, params, CooGraph(5, [], []), x)
        assert np.abs(out - x).max() <= 1e-12

    def test_dims_chain_mismatch(self):
        spec = spec_for("gcn", "mp", (3, 4))
        with pytest.raises(ShapeError):
            forward(spec, [theta_params(np.zeros((3, 5)))],
                    CooGraph(2, [], []), np.zeros((2, 3)))

    def test_wrong_input_width(self):
        spec = spec_for("gcn", "mp", (3, 4))
        with pytest.raises(ShapeError):
            forward(spec, init_weights(spec), CooGraph(2, [], []),
                    np.zeros((2, 2)))

    @pytest.mark.parametrize("comp,other", [("mp", "spmm"), ("spmm", "mp")])
    def test_ctx_of_the_other_computational_model_rejected(self, comp, other):
        g = gen_er_graph(12, 0.3, 1)
        x = gen_features(12, 3, 1)
        spec = spec_for("gcn", comp, (3, 4))
        ctx = prepare(spec_for("gcn", other, (3, 4)), g)
        with pytest.raises(ConfigError, match=f"{comp} pipeline runs on a"):
            forward(spec, init_weights(spec), g, x, ctx=ctx)

    @pytest.mark.parametrize("comp", ["mp", "spmm"])
    def test_ctx_of_another_node_count_rejected(self, comp):
        # a 2-node ctx would give a 2-row output for a 3-node graph
        g = gen_er_graph(3, 0.5, 1)
        spec = spec_for("gin", comp, (2, 2))
        ctx = prepare(spec, gen_er_graph(2, 0.5, 1))
        with pytest.raises(ShapeError, match="ctx has 2 rows for 3 nodes"):
            forward(spec, init_weights(spec), g, gen_features(3, 2, 1), ctx=ctx)

    def test_output_shape(self):
        g = gen_er_graph(12, 0.2, 3)
        x = gen_features(12, 5, 2)
        spec = spec_for("sage", "mp", (5, 7, 3), seed=2)
        out = forward(spec, init_weights(spec), g, x)
        assert out.shape == (12, 3)


class TestActivations:
    def test_relu(self):
        assert relu(np.array([[-1.0, 2.0]])).tolist() == [[0.0, 2.0]]

    def test_sigmoid_origin(self):
        assert sigmoid(np.array([[0.0]])).tolist() == [[0.5]]

    def test_relu_idempotent(self):
        x = gen_features(4, 4, 20)
        once = relu(x)
        assert relu(once).tobytes() == once.tobytes()

    def test_sigmoid_extremes_finite(self):
        out = sigmoid(np.array([[-1000.0, 1000.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-12)


class TestSpecValidation:
    def test_every_model_runs_under_every_computational_model(self):
        assert set(PIPELINES) == set(itertools.product(Model, CompModel))

    def test_dims_length(self):
        with pytest.raises(ConfigError):
            ModelSpec(Model.GCN, CompModel.MP, 2, (3, 3))

    def test_layer_count(self):
        with pytest.raises(ConfigError):
            ModelSpec(Model.GCN, CompModel.MP, 0, (3,))

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_epsilon(self, eps):
        with pytest.raises(ConfigError, match="epsilon must be finite"):
            spec_for("gin", "spmm", (3, 3), eps=eps)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_u64_rejected(self, seed):
        # the weight streams keep the low 64 bits: seed -1 would draw the
        # weights of 2^64 - 1, and 2^64 those of 0, under another recorded seed
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\^64\)"):
            spec_for("gcn", "mp", (3, 3), seed=seed)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_seed_not_an_int_rejected(self, seed):
        # 1.5 used to fail later inside init_weights, True to be recorded as true
        with pytest.raises(ConfigError, match=f"seed must be an integer, got {seed!r}"):
            spec_for("gcn", "mp", (3, 3), seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_bounds_accepted(self, seed):
        assert spec_for("gcn", "mp", (3, 3), seed=seed).summary()["seed"] == seed


def _expected_edges(name, g, eps):
    if name == "gin-spmm":
        # A + (1 + eps) I: the raw edges, then a 1 + eps loop per node
        nodes = np.arange(g.num_nodes, dtype=np.int64)
        loop_w = np.full(g.num_nodes, 1.0 + eps, dtype=g.weights.dtype)
        return CooGraph(g.num_nodes, np.concatenate([g.src, nodes]),
                        np.concatenate([g.dst, nodes]),
                        np.concatenate([g.weights, loop_w]))
    if name.startswith("sage"):
        # the neighbor mean weighs each looped edge by one under MP, and by
        # one over its destination's looped in-degree under SpMM
        looped = add_self_loops(g)
        w = np.ones(looped.num_edges, dtype=g.weights.dtype)
        if name == "sage-spmm":
            for i, v in enumerate(looped.dst):
                w[i] /= np.count_nonzero(looped.dst == v)
        return CooGraph(g.num_nodes, looped.src, looped.dst, w)
    return {"gcn-mp": normalized_edges(g), "gcn-spmm": normalized_edges(g),
            "gin-mp": g}[name]


class TestPrepare:
    @pytest.mark.parametrize("name", PIPELINE_NAMES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edges_in_their_computational_models_layout(self, name, dtype):
        # a weighted multigraph with duplicates and a self-loop
        g = CooGraph(4, np.array([3, 1, 2, 1, 0, 2, 2]),
                     np.array([2, 0, 2, 0, 3, 0, 2]),
                     np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0], dtype=dtype))
        model, comp = name.split("-")
        eps = 0.375
        edges = PIPELINES[Model(model), CompModel(comp)].edges(g, eps)
        assert edges == _expected_edges(name, g, eps)
        got = prepare(spec_for(model, comp, (3, 3), eps=eps), g)
        # CooGraph and CsrGraph compare equal only to their own type
        if comp == "mp":
            # the edges into each node keep their edge-list order
            order = np.argsort(edges.dst, kind="stable")
            assert got.src.dtype == np.int64
            assert got.src.tobytes() == edges.src[order].tobytes()
            e = edges.num_edges
            row_ptr = np.searchsorted(edges.dst[order], np.arange(g.num_nodes + 1))
            assert got.incidence == CsrGraph(g.num_nodes, e, row_ptr, np.arange(e),
                                             edges.weights[order])
        else:
            assert got == coo_to_csr(edges)
        if name == "gin-spmm":
            eye = (1.0 + eps) * np.eye(g.num_nodes, dtype=dtype)
            assert csr_to_dense(got).tobytes() == (coo_to_dense(g) + eye).tobytes()

    def test_one_layout_per_computational_model(self):
        assert set(_LAYOUT) == set(CompModel)
        # every pipeline's ctx is its computational model's type, one row
        # per node
        g = gen_er_graph(12, 0.3, 4)
        for model, comp in PIPELINES:
            want, _ = _LAYOUT[comp]
            ctx = prepare(spec_for(model.value, comp.value, (3, 3)), g)
            assert isinstance(ctx, want)
            assert ctx.num_rows == g.num_nodes

    @pytest.mark.parametrize("name", PIPELINE_NAMES)
    def test_ctx_is_immutable_and_compares_by_bytes(self, name):
        # one ctx serves every repeat of a run, so no layer may write to it
        g = gen_er_graph(12, 0.3, 4)
        spec = spec_for(*name.split("-"), (3, 3))
        ctx = prepare(spec, g)
        assert ctx == prepare(spec, g)
        if spec.comp_model is CompModel.MP:
            with pytest.raises(ValueError, match="read-only"):
                ctx.src[0] = 1


def _peak_per_message_byte(model, g, x):
    """``tracemalloc`` peak of a forward over the bytes of one e x f array."""
    f = x.shape[1]
    spec = spec_for(model, "mp", (f, f, f))
    params = init_weights(spec)
    ctx = prepare(spec, g)
    forward(spec, params, g, x, ctx=ctx)  # first-call allocations
    tracemalloc.start()
    try:
        forward(spec, params, g, x, ctx=ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (len(ctx.src) * f * x.itemsize)


class TestForwardMemory:
    @pytest.mark.parametrize("model", ["gcn", "gin"])
    def test_one_message_array_per_layer(self, model):
        # the gathered messages are the only e x f array a layer holds: the
        # per-edge scale rides in scatter's CSR values
        g = gen_er_graph(400, 0.05, 1)
        assert _peak_per_message_byte(model, g, gen_features(400, 16, 1)) < 1.5


def _pinned_graphs():
    yield gen_er_graph(40, 0.15, 11), gen_features(40, 6, 11)
    # a weighted multigraph with duplicate edges and self-loops
    src = np.array([3, 1, 2, 1, 0, 2, 2, 4, 4, 0, 3, 3])
    dst = np.array([2, 0, 2, 0, 3, 0, 2, 4, 1, 0, 2, 1])
    w = np.array([0.5, 1.25, 2.0, 0.75, 3.0, 1.5, 0.25, 2.5, 1.0, 0.5, 1.75, 4.0])
    yield CooGraph(5, src, dst, w), gen_features(5, 6, 12)


# SHA-256 over every (graph, precision, activation) output of a pipeline.
# Sigmoid is left out: it goes through the platform's libm exp.
PINNED_OUTPUTS = {
    "gcn-mp": "4bd1f4aa2f73c58d841c1dfee08785881844910a5d7fcebf2ccf5959a0cd00c1",
    "gcn-spmm": "f7ad3f8b1914dcbdc95473fc607d3ae3863d79befa58480b23a2a443b2efee9a",
    "gin-mp": "2cc9a281579c6b20e54a653b970a922cd7ab55e16d68f57045266ca46fadef5b",
    "gin-spmm": "9f117915bcd134ab3ba290f9d85123d6eb18da2e400c760b4d2b7b94e874b371",
    "sage-mp": "8fcf738b020a403c7d8b1f975ba4ebf6b2cef28be1a788f2cb29fb2faf1b39dc",
    "sage-spmm": "da8753c26e37f20812991d42f158d731b451700beaecde22767dc8e9d0c1ebba",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
    def test_outputs_keep_their_bytes(self, name):
        model, comp = name.split("-")
        digest = hashlib.sha256()
        for g, x in _pinned_graphs():
            for precision in ("f32", "f64"):
                for act in (Activation.RELU, IDENT):
                    spec = spec_for(model, comp, (6, 5, 3), act, eps=0.375, seed=9)
                    g_t, x_t, params = cast_inputs(spec, g, x, precision)
                    out = forward(spec, params, g_t, x_t)
                    digest.update(out.dtype.str.encode())
                    digest.update(repr(out.shape).encode())
                    digest.update(out.tobytes())
        assert digest.hexdigest() == PINNED_OUTPUTS[name]


def _context_graphs():
    yield gen_er_graph(40, 0.15, 11)
    # a small-files-style edge list: unit weights, every seventh edge
    # repeated, and self-loops (one of them twice), in a scrambled order
    er = gen_er_graph(60, 0.05, 21)
    again = np.arange(0, er.num_edges, 7)
    loops = np.array([0, 5, 5, 17, 59])
    src = np.concatenate([er.src, er.src[again], loops])
    dst = np.concatenate([er.dst, er.dst[again], loops])
    order = np.argsort((np.arange(len(src)) * 0x9E3779B1) & 0xFFFF, kind="stable")
    yield CooGraph(60, src[order], dst[order])
    # a weighted multigraph: four copies of 0 -> 1, whose weights sum to
    # other bits in another order, a lone -0.0 on 2 -> 3, an all -0.0 group
    # on 1 -> 4, and a kept loop on 5; every degree stays positive, so GCN
    # normalizes it
    src = np.array([0, 2, 1, 0, 3, 1, 0, 5, 1, 0, 4, 3, 0, 2])
    dst = np.array([1, 3, 4, 1, 2, 4, 4, 5, 4, 1, 0, 2, 1, 0])
    w = np.array([0.1, -0.0, -0.0, 0.7, 1.5, -0.0, 2.0, 0.75, -0.0, 0.2,
                  0.25, 3.0, 0.3, 1.0])
    yield CooGraph(6, src, dst, w)
    yield CooGraph(5, np.zeros(0, np.int64), np.zeros(0, np.int64))


# SHA-256 over every (graph, precision) context a pipeline prepares: MP's
# sources and incidence arrays, SpMM's CSR arrays.
PINNED_CONTEXTS = {
    "gcn-mp": "6518d6d67a242ef4c09b769f96b7afe870addb8f15fe42c0fafcb6d5949090ae",
    "gcn-spmm": "1cbb90d0c1e64a7c449924b97ee8c531f5718baf0a832e9706fe5d0473a776f7",
    "gin-mp": "e89fc6683dd5a2b0dc5ce7605af6a518e7e19718648aaa68cb396b4289ab2d62",
    "gin-spmm": "efda2c949b0777e30de8e1caa5bba4510ea11c5540c9dc772488be8b89a73e93",
    "sage-mp": "571240a88eb76dbe90e4b3dd5b62e5084e654af2451584b71c395aa36312f543",
    "sage-spmm": "cdc7509c3aadc5fbd677fe9dffeec7a5cf81e5b88a4f50734c90e2fe62a1f9f0",
}


class TestPinnedContexts:
    @pytest.mark.parametrize("name", sorted(PINNED_CONTEXTS))
    def test_contexts_keep_their_bytes(self, name):
        model, comp = name.split("-")
        spec = spec_for(model, comp, (6, 5, 3), eps=0.375, seed=9)
        digest = hashlib.sha256()
        for g in _context_graphs():
            for precision in ("f32", "f64"):
                g_t, _, _ = cast_inputs(spec, g, np.zeros((g.num_nodes, 6)),
                                        precision)
                ctx = prepare(spec, g_t)
                csr = ctx.incidence if comp == "mp" else ctx
                arrays = [ctx.src] if comp == "mp" else []
                for a in arrays + [csr.row_ptr, csr.col_idx, csr.values]:
                    digest.update(a.dtype.str.encode())
                    digest.update(repr(a.shape).encode())
                    digest.update(a.tobytes())
        assert digest.hexdigest() == PINNED_CONTEXTS[name]


def test_every_pipeline_is_pinned():
    # a pipeline cannot land without its output and context digests
    assert sorted(PINNED_OUTPUTS) == sorted(PINNED_CONTEXTS) == PIPELINE_NAMES
