import numpy as np
import pytest

from oracles import dense_layer

from gnnbench.data import gen_er_graph, gen_features
from gnnbench.errors import ConfigError, ShapeError
from gnnbench.graph import CooGraph, coo
from gnnbench.models import (
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
    relu,
    sage_layer_mp,
    sigmoid,
)

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
