import tracemalloc

import numpy as np
import pytest

from oracles import dense_layer

from gnnbench.data import gen_features
from gnnbench.graph import CooGraph, add_self_loops, coo_to_dense
from gnnbench.models import Activation, CompModel, Model, ModelSpec, init_weights
from gnnbench.reference import dense_forward

MODELS = ("gcn", "gin", "sage")
EPSILONS = (0.5, -1.5)


def spec_for(model, act="relu", eps=0.0, dims=(3, 4, 2)):
    return ModelSpec(Model(model), CompModel.MP, len(dims) - 1, dims,
                     Activation(act), eps, seed=5)


def awkward_graph(weighted, dtype=np.float64):
    """Duplicate edges (0 -> 1 twice, 3 -> 0 twice), self-loops on 2 and 4,
    and node 5 with no edge at all."""
    src = [0, 0, 1, 2, 3, 3, 4, 4, 1]
    dst = [1, 1, 2, 2, 0, 0, 4, 3, 4]
    weights = ([0.5, 2.0, 1.25, 3.0, 0.75, 1.5, 0.25, 4.0, 1.0] if weighted
               else np.ones(len(src)))
    return CooGraph(6, src, dst, np.asarray(weights, dtype=dtype))


def oracle_forward(model, g, x, params, act, eps):
    """The scalar oracle chained over the layers, the activation after each."""
    h = x
    for p in params:
        h = np.array(dense_layer(model, g, h, p, act, eps))
    return h


class TestMatchesScalarOracle:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("act", [a.value for a in Activation])
    @pytest.mark.parametrize("model", MODELS)
    def test_every_model_and_activation(self, model, act, eps, weighted):
        g = awkward_graph(weighted)
        x = gen_features(g.num_nodes, 3, 8)
        spec = spec_for(model, act, eps)
        params = init_weights(spec)
        got = dense_forward(spec, params, g, x)
        want = oracle_forward(model, g, x, params, act, eps)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def out_of_place(model, eps, g, x, params):
    """GCN's and GIN's dense route with each operator built out of place."""
    if model == "gcn":
        a_hat = coo_to_dense(add_self_loops(g))
        inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
        op = inv_sqrt[:, None] * a_hat * inv_sqrt[None, :]
    else:
        op = coo_to_dense(g) + (1.0 + eps) * np.eye(g.num_nodes)
    h = x
    for p in params:
        h = op @ h @ p.theta
    return h


class TestSameBytes:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("model,eps", [("gcn", 0.0)]
                             + [("gin", eps) for eps in EPSILONS])
    def test_operator_built_in_place(self, model, eps, dtype):
        g = awkward_graph(weighted=True, dtype=dtype)
        x = gen_features(g.num_nodes, 3, 8)
        spec = spec_for(model, "identity", eps)
        params = init_weights(spec)
        got = dense_forward(spec, params, g, x)
        assert got.tobytes() == out_of_place(model, eps, g, x, params).tobytes()


class TestMemory:
    @pytest.mark.parametrize("model", MODELS)
    def test_one_dense_operator(self, model):
        # every model's dense route holds one n x n float64 array
        n = 1000
        nodes = np.arange(n)
        g = CooGraph(n, np.concatenate([nodes, nodes]),
                     np.concatenate([(nodes + 1) % n, (nodes + 7) % n]))
        x = gen_features(n, 4, 3)
        spec = spec_for(model, eps=-1.5, dims=(4, 4, 4))
        params = init_weights(spec)
        tracemalloc.start()
        try:
            dense_forward(spec, params, g, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8
