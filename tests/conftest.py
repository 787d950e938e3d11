import numpy as np
import pytest
from hypothesis import strategies as st

from gnnbench.cli import CONFIG_ENV_VAR
from gnnbench.graph import CooGraph
from gnnbench.models import Activation, CompModel, Model, ModelSpec, forward


@pytest.fixture(scope="session", autouse=True)
def _no_config_file_from_env():
    # a GSUITE_CONFIG in the caller's environment would change what every
    # parse_config and main call resolves
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV_VAR, raising=False)
        yield


@st.composite
def coo_graphs(draw, max_nodes=10, max_edges=24, unit_weights=False):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    e = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=e, max_size=e))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=e, max_size=e))
    if unit_weights:
        weights = np.ones(e)
    else:
        weights = draw(st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False,
                      allow_infinity=False),
            min_size=e, max_size=e))
    return CooGraph(n, src, dst, np.asarray(weights, dtype=np.float64))


def symmetric_graph(g: CooGraph) -> CooGraph:
    """Mirror every edge so the weighted edge set is symmetric."""
    src = np.concatenate([g.src, g.dst])
    dst = np.concatenate([g.dst, g.src])
    weights = np.concatenate([g.weights, g.weights])
    return CooGraph(g.num_nodes, src, dst, weights)


def one_layer(name, g, x, params, act=Activation.IDENTITY, eps=0.0):
    """One layer of pipeline ``name`` (``"gin-spmm"``, ...) through
    ``forward``, with a one-layer spec shaped by ``x`` and ``params``."""
    model, comp = name.split("-")
    f_out = (params.w1 if params.theta is None else params.theta).shape[1]
    spec = ModelSpec(Model(model), CompModel(comp), 1, (x.shape[1], f_out),
                     act, eps)
    return forward(spec, [params], g, x)
