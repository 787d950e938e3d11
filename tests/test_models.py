import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_layer

from gnnbench.bench import cast_inputs
from gnnbench.data import gen_er_graph, gen_features
from gnnbench.errors import ConfigError, NormalizationError, ShapeError
from gnnbench.graph import (
    CooGraph,
    add_self_loops,
    coo,
    coo_to_csr,
    coo_to_dense,
    csr_to_dense,
    normalized_edges,
)
from gnnbench.models import (
    PIPELINES,
    Activation,
    CompModel,
    LayerParams,
    Model,
    ModelSpec,
    forward,
    gcn_layer_mp,
    gcn_layer_spmm,
    gin_layer_mp,
    gin_layer_spmm,
    init_weights,
    prepare,
    relu,
    sage_layer_mp,
    sigmoid,
)
from gnnbench.models import _LAYOUT

IDENT = Activation.IDENTITY

LAYER_FNS = {
    "gcn_mp": lambda g, x, p, act: gcn_layer_mp(g, x, p, act),
    "gcn_spmm": lambda g, x, p, act: gcn_layer_spmm(g, x, p, act),
    "gin_mp": lambda g, x, p, act: gin_layer_mp(g, x, p, act),
    "gin_spmm": lambda g, x, p, act: gin_layer_spmm(g, x, p, act),
    "sage_mp": lambda g, x, p, act: sage_layer_mp(g, x, p, act),
}


def theta_params(theta, eps=0.0):
    return LayerParams(theta=np.asarray(theta, dtype=np.float64), epsilon=eps)


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


class TestGcnLayers:
    def test_mp_single_node_identity(self):
        g = coo(1)
        x = np.array([[2.5, -1.0]])
        out = gcn_layer_mp(g, x, theta_params(np.eye(2)), IDENT)
        assert np.abs(out - x).max() <= 1e-15

    def test_mp_two_node_uniform(self):
        g = coo(2, src=[0, 1], dst=[1, 0])
        out = gcn_layer_mp(g, np.array([[1.0], [1.0]]), theta_params([[1.0]]),
                           IDENT)
        assert np.abs(out - 1.0).max() <= 1e-15

    def test_spmm_loop_only_graph(self):
        x = gen_features(5, 3, 1)
        out = gcn_layer_spmm(coo(5), x, theta_params(np.eye(3)), IDENT)
        assert np.abs(out - x).max() <= 1e-12

    def test_spmm_single_node_relu(self):
        out = gcn_layer_spmm(coo(1), np.array([[2.0]]), theta_params([[3.0]]),
                             Activation.RELU)
        assert out.tolist() == [[6.0]]

    def test_cross_model_on_er(self):
        g = gen_er_graph(64, 0.1, 42)
        x = gen_features(64, 4, 7)
        p = theta_params(init_weights(spec_for("gcn", "mp", (4, 8)))[0].theta)
        a = gcn_layer_mp(g, x, p, Activation.RELU)
        b = gcn_layer_spmm(g, x, p, Activation.RELU)
        assert np.abs(a - b).max() <= 1e-9

    def test_duplicate_edges_contribute_independently(self):
        g = coo(2, src=[0, 0, 1], dst=[1, 1, 0])
        x = np.array([[1.0], [2.0]])
        p = theta_params([[1.0]])
        a = gcn_layer_mp(g, x, p, IDENT)
        b = gcn_layer_spmm(g, x, p, IDENT)
        assert np.abs(a - b).max() <= 1e-12
        want = np.array(dense_layer("gcn", g, x, p, "identity"))
        assert np.abs(a - want).max() <= 1e-9


class TestDegreeProductRange:
    @pytest.mark.parametrize("comp", ["mp", "spmm"])
    @pytest.mark.parametrize("g", [
        # d_0 * d_0 = 1e-400 underflows to zero
        CooGraph(2, np.array([0, 1]), np.array([0, 1]), np.array([1e-200, 1.0])),
        # d_0 * d_0 = 1e400 overflows to inf
        CooGraph(1, np.array([0]), np.array([0]), np.array([1e200])),
    ], ids=["underflow", "overflow"])
    def test_rejected_naming_the_edge(self, g, comp):
        spec = spec_for("gcn", comp, (2, 2))
        x = gen_features(g.num_nodes, 2, 1)
        with pytest.raises(NormalizationError, match=r"edge 0 \(0 -> 0\)"):
            forward(spec, init_weights(spec), g, x)


class TestGinLayers:
    def test_mp_no_edges_is_input(self):
        x = gen_features(4, 2, 3)
        out = gin_layer_mp(coo(4), x, theta_params(np.eye(2)), IDENT)
        assert np.abs(out - x).max() == 0.0

    def test_mp_two_node_hand_evaluated(self):
        g = coo(2, src=[0, 1], dst=[1, 0])
        out = gin_layer_mp(g, np.array([[1.0], [2.0]]), theta_params([[1.0]]),
                           IDENT)
        assert out.tolist() == [[3.0], [3.0]]

    def test_spmm_no_edges(self):
        x = gen_features(4, 2, 5)
        theta = init_weights(spec_for("gin", "mp", (2, 3)))[0].theta
        out = gin_layer_spmm(coo(4), x, theta_params(theta), Activation.RELU)
        want = relu(x @ theta)
        assert np.abs(out - want).max() <= 1e-12

    def test_spmm_single_node_epsilon(self):
        out = gin_layer_spmm(coo(1), np.array([[1.0]]),
                             theta_params([[1.0]], eps=1.0), IDENT)
        assert out.tolist() == [[2.0]]

    def test_cross_model_on_er(self):
        g = gen_er_graph(64, 0.1, 42)
        x = gen_features(64, 4, 8)
        p = theta_params(init_weights(spec_for("gin", "mp", (4, 8)))[0].theta,
                         eps=0.5)
        a = gin_layer_mp(g, x, p, Activation.RELU)
        b = gin_layer_spmm(g, x, p, Activation.RELU)
        assert np.abs(a - b).max() <= 1e-9

    def test_pure_mlp_when_no_edges_and_zero_eps(self):
        x = gen_features(6, 3, 2)
        theta = init_weights(spec_for("gin", "mp", (3, 2)))[0].theta
        want = relu(x @ theta)
        for fn in (gin_layer_mp, gin_layer_spmm):
            out = fn(coo(6), x, theta_params(theta), Activation.RELU)
            assert np.abs(out - want).max() <= 1e-12

    def test_dataset_self_loops_kept_in_both_models(self):
        # pre-existing loop edges traverse as-is, on top of the (1+eps) term
        g = coo(3, src=[0, 0, 1, 2, 2], dst=[1, 0, 2, 2, 1])
        x = gen_features(3, 2, 1)
        p = theta_params(init_weights(spec_for("gin", "mp", (2, 2)))[0].theta,
                         eps=0.25)
        a = gin_layer_mp(g, x, p, IDENT)
        b = gin_layer_spmm(g, x, p, IDENT)
        assert np.abs(a - b).max() <= 1e-12
        want = np.array(dense_layer("gin", g, x, p, "identity"))
        assert np.abs(a - want).max() <= 1e-9


class TestSageLayer:
    def test_isolated_node_mean_is_self(self):
        x = np.array([[3.0, -2.0]])
        out = sage_layer_mp(coo(1), x, sage_params(np.eye(2), np.eye(2)), IDENT)
        assert np.abs(out - 2 * x).max() <= 1e-15

    def test_two_node_hand_evaluated(self):
        g = coo(2, src=[0, 1], dst=[1, 0])
        out = sage_layer_mp(g, np.array([[0.0], [2.0]]),
                            sage_params([[1.0]], [[1.0]]), IDENT)
        assert out.tolist() == [[1.0], [3.0]]

    def test_permutation_equivariance(self):
        g = gen_er_graph(20, 0.2, 9)
        x = gen_features(20, 3, 4)
        params = init_weights(spec_for("sage", "mp", (3, 5)))[0]
        perm = np.arange(20)[::-1].copy()  # node v relabeled to perm[v]
        inv = np.argsort(perm)
        pg = CooGraph(20, perm[g.src], perm[g.dst], g.weights)
        out_p = sage_layer_mp(pg, x[inv], params, Activation.RELU)
        out = sage_layer_mp(g, x, params, Activation.RELU)
        assert np.abs(out_p - out[inv]).max() <= 1e-9


class TestDenseOracle:
    @pytest.mark.parametrize("name", list(LAYER_FNS))
    @pytest.mark.parametrize("f_in", [1, 4])
    def test_layer_matches_dense_equation(self, name, f_in):
        g = gen_er_graph(24, 0.2, 13)
        x = gen_features(24, f_in, 6)
        model = name.split("_")[0]
        spec = spec_for(model, "mp", (f_in, 5), seed=11)
        (params,) = init_weights(spec)
        params = LayerParams(params.theta, params.w1, params.w2, 0.25)
        got = LAYER_FNS[name](g, x, params, Activation.RELU)
        want = np.array(dense_layer(model, g, x, params, "relu"))
        assert np.abs(got - want).max() <= 1e-9

    def test_weighted_graph_cross_model_consistency(self):
        # weighted edges flow through both computational models identically
        g = coo(5, src=[0, 1, 2, 3, 1], dst=[1, 2, 3, 4, 2],
                weights=[0.5, 2.0, 1.5, 3.0, 0.25])
        x = gen_features(5, 3, 3)
        p = theta_params(init_weights(spec_for("gcn", "mp", (3, 4)))[0].theta)
        a = gcn_layer_mp(g, x, p, IDENT)
        b = gcn_layer_spmm(g, x, p, IDENT)
        assert np.abs(a - b).max() <= 1e-12
        want = np.array(dense_layer("gcn", g, x, p, "identity"))
        assert np.abs(a - want).max() <= 1e-9


class TestForward:
    def test_single_layer_equals_layer_call(self):
        g = gen_er_graph(10, 0.3, 2)
        x = gen_features(10, 3, 1)
        spec = spec_for("gcn", "mp", (3, 6), seed=4)
        params = init_weights(spec)
        assert forward(spec, params, g, x).tobytes() == \
            gcn_layer_mp(g, x, params[0], spec.activation).tobytes()

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
        out = forward(spec, params, coo(5), x)
        assert np.abs(out - x).max() <= 1e-12

    def test_dims_chain_mismatch(self):
        spec = spec_for("gcn", "mp", (3, 4))
        with pytest.raises(ShapeError):
            forward(spec, [theta_params(np.zeros((3, 5)))], coo(2),
                    np.zeros((2, 3)))

    def test_wrong_input_width(self):
        spec = spec_for("gcn", "mp", (3, 4))
        with pytest.raises(ShapeError):
            forward(spec, init_weights(spec), coo(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("comp", ["mp", "spmm"])
    def test_params_epsilon_must_match_spec(self, comp):
        # hand-built params with another epsilon would make GIN-MP (which
        # reads the params) and GIN-SpMM (which reads the spec) disagree
        g = gen_er_graph(32, 0.2, 1)
        x = gen_features(32, 4, 1)
        spec = spec_for("gin", comp, (4, 4), eps=0.0)
        (p,) = init_weights(spec)
        with pytest.raises(ConfigError, match="epsilon"):
            forward(spec, [LayerParams(p.theta, epsilon=0.5)], g, x)

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
    def test_sage_spmm_rejected(self):
        with pytest.raises(ConfigError, match="spmm"):
            spec_for("sage", "spmm", (3, 3))

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


def _expected_edges(name, g, eps):
    if name == "gin-spmm":
        # A + (1 + eps) I: the raw edges, then a 1 + eps loop per node
        nodes = np.arange(g.num_nodes, dtype=np.int64)
        loop_w = np.full(g.num_nodes, 1.0 + eps, dtype=g.weights.dtype)
        return CooGraph(g.num_nodes, np.concatenate([g.src, nodes]),
                        np.concatenate([g.dst, nodes]),
                        np.concatenate([g.weights, loop_w]))
    return {"gcn-mp": normalized_edges(g), "gcn-spmm": normalized_edges(g),
            "gin-mp": g, "sage-mp": add_self_loops(g)}[name]


class TestPrepare:
    @pytest.mark.parametrize("name", sorted(f"{m.value}-{c.value}"
                                            for m, c in PIPELINES))
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
            assert got == CooGraph(g.num_nodes, edges.src[order],
                                   edges.dst[order], edges.weights[order])
        else:
            assert got == coo_to_csr(edges)
        if name == "gin-spmm":
            eye = (1.0 + eps) * np.eye(g.num_nodes, dtype=dtype)
            assert csr_to_dense(got).tobytes() == (coo_to_dense(g) + eye).tobytes()

    def test_one_layout_per_computational_model(self):
        assert set(_LAYOUT) == set(CompModel)


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
