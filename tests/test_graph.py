import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coo_graphs, symmetric_graph
from oracles import (
    csr_from_dense,
    dense_adjacency,
    dense_normalized,
    unique_coo_to_csr,
)

from gnnbench.errors import CapacityError, FormatError, NormalizationError
from gnnbench.graph import (
    CooGraph,
    CsrGraph,
    add_self_loops,
    compute_degrees,
    coo,
    coo_to_csr,
    coo_to_dense,
    csr_identity,
    csr_to_coo,
    csr_to_dense,
    normalized_adjacency,
    sym_norm_coefficients,
)
from gnnbench.data import gen_er_graph


def edge_set(g):
    return sorted(zip(g.src.tolist(), g.dst.tolist(), g.weights.tolist()))


class TestCooToCsr:
    def test_three_node_example(self):
        g = coo(3, src=[0, 1, 0], dst=[1, 2, 2])
        a = coo_to_csr(g)
        assert a.row_ptr.tolist() == [0, 0, 1, 3]
        assert a.col_idx.tolist() == [0, 0, 1]
        assert a.values.tolist() == [1.0, 1.0, 1.0]
        # cross-check against the dense conversion oracle
        ptr, cols, vals = csr_from_dense(dense_adjacency(g))
        assert a.row_ptr.tolist() == ptr
        assert a.col_idx.tolist() == cols
        assert a.values.tolist() == vals

    def test_empty_graph(self):
        for dtype in (np.float32, np.float64):
            a = coo_to_csr(coo(2).astype(dtype))
            assert a.row_ptr.tolist() == [0, 0, 0]
            assert a.col_idx.tolist() == []
            assert a.values.tolist() == []
            assert a.row_ptr.dtype == a.col_idx.dtype == np.int64
            assert a.values.dtype == dtype

    def test_duplicate_edges_sum(self):
        g = coo(2, src=[0, 0], dst=[1, 1])
        a = coo_to_csr(g)
        assert a.row_ptr.tolist() == [0, 0, 1]
        assert a.values.tolist() == [2.0]
        ptr, cols, vals = csr_from_dense(dense_adjacency(g))
        assert (a.row_ptr.tolist(), a.col_idx.tolist(), a.values.tolist()) == \
            (ptr, cols, vals)


class TestCsrToCoo:
    def test_identity(self):
        g = csr_to_coo(csr_identity(2))
        assert g.src.tolist() == [0, 1]
        assert g.dst.tolist() == [0, 1]
        assert g.weights.tolist() == [1.0, 1.0]

    def test_empty(self):
        g = csr_to_coo(CsrGraph(3, 3, [0, 0, 0, 0], [], []))
        assert g.num_nodes == 3
        assert g.num_edges == 0

    def test_inverse_of_example(self):
        a = CsrGraph(3, 3, [0, 0, 1, 3], [0, 0, 1], [1.0, 1.0, 1.0])
        g = csr_to_coo(a)
        assert g.dst.tolist() == [1, 2, 2]
        assert g.src.tolist() == [0, 0, 1]

    def test_rectangular_rejected(self):
        with pytest.raises(FormatError):
            csr_to_coo(CsrGraph(1, 2, [0, 1], [1], [1.0]))


class TestCooToDense:
    def test_single_edge_placement(self):
        d = coo_to_dense(coo(2, src=[0], dst=[1]))
        assert d.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_empty_is_zero(self):
        assert coo_to_dense(coo(2)).tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_duplicate_edge_sums(self):
        d = coo_to_dense(coo(2, src=[0, 0], dst=[1, 1]))
        assert d[1][0] == 2.0

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            coo_to_dense(coo(10), limit=9)


class TestAddSelfLoops:
    def test_empty_becomes_identity(self):
        g = add_self_loops(coo(2))
        assert edge_set(g) == [(0, 0, 1.0), (1, 1, 1.0)]

    def test_existing_loop_untouched(self):
        g = add_self_loops(coo(2, src=[0], dst=[0]))
        assert edge_set(g) == [(0, 0, 1.0), (1, 1, 1.0)]
        assert g.num_edges == 2

    def test_mixed(self):
        g = add_self_loops(coo(3, src=[0], dst=[1]))
        assert edge_set(g) == [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0)]


class TestComputeDegrees:
    def test_fully_connected_with_loops(self):
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        g = add_self_loops(coo(3, [u for u, _ in pairs], [v for _, v in pairs]))
        assert compute_degrees(g).tolist() == [3.0, 3.0, 3.0]

    def test_isolated_node_after_loops(self):
        g = add_self_loops(coo(1))
        assert compute_degrees(g).tolist() == [1.0]

    def test_duplicate_edges_count(self):
        g = coo(2, src=[0, 0], dst=[1, 1])
        assert compute_degrees(g).tolist() == [0.0, 2.0]


class TestSymNormCoefficients:
    def test_equal_degree_three(self):
        g = coo(2, src=[0], dst=[1])
        c = sym_norm_coefficients(g, np.array([3.0, 3.0]))
        assert c.tolist() == [pytest.approx(1 / 3)]

    def test_self_loop_degree_one(self):
        g = coo(1, src=[0], dst=[0])
        assert sym_norm_coefficients(g, np.array([1.0])).tolist() == [1.0]

    def test_mixed_degrees(self):
        g = coo(2, src=[0], dst=[1])
        assert sym_norm_coefficients(g, np.array([1.0, 4.0])).tolist() == [0.5]

    def test_zero_degree_rejected(self):
        g = coo(2, src=[0], dst=[1])
        with pytest.raises(NormalizationError):
            sym_norm_coefficients(g, np.array([0.0, 1.0]))


class TestNormalizedAdjacency:
    def test_single_node(self):
        a = normalized_adjacency(coo(1))
        assert csr_to_dense(a).tolist() == [[1.0]]

    def test_two_node_bidirectional(self):
        a = normalized_adjacency(coo(2, src=[0, 1], dst=[1, 0]))
        dense = csr_to_dense(a)
        assert dense.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert dense.sum(axis=1).tolist() == [1.0, 1.0]

    def test_er_graph_matches_dense_oracle(self):
        g = gen_er_graph(16, 0.3, 7)
        got = csr_to_dense(normalized_adjacency(g))
        want = np.array(dense_normalized(g))
        assert np.abs(got - want).max() <= 1e-12

    @given(coo_graphs(unit_weights=True))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_input_gives_symmetric_output(self, g):
        sym = symmetric_graph(g)
        dense = csr_to_dense(normalized_adjacency(sym))
        assert np.abs(dense - dense.T).max() == 0.0


class TestProperties:
    @given(coo_graphs())
    @settings(max_examples=100, deadline=None)
    def test_csr_round_trip_bitwise(self, g):
        a = coo_to_csr(g)
        assert coo_to_csr(csr_to_coo(a)) == a

    @given(coo_graphs())
    @settings(max_examples=100, deadline=None)
    def test_dense_agreement(self, g):
        direct = coo_to_dense(g)
        via_csr = csr_to_dense(coo_to_csr(g))
        assert direct.tobytes() == via_csr.tobytes()
        # and both agree with the edge-walking oracle
        assert np.array_equal(direct, np.array(dense_adjacency(g)).reshape(direct.shape))

    @given(coo_graphs(max_nodes=6, max_edges=30),
           st.sampled_from([np.float32, np.float64]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_coo_to_csr_matches_unique_oracle(self, g, dtype, data):
        # signed zeros among the weights: a lone -0.0 coalesces to +0.0
        zeros = data.draw(st.lists(st.sampled_from([None, 0.0, -0.0]),
                                   min_size=g.num_edges, max_size=g.num_edges))
        w = np.array([x if z is None else z for x, z in zip(g.weights, zeros)],
                     dtype=dtype)
        g = CooGraph(g.num_nodes, g.src, g.dst, w)
        assert coo_to_csr(g) == unique_coo_to_csr(g)

    @given(coo_graphs())
    @settings(max_examples=60, deadline=None)
    def test_self_loop_idempotence(self, g):
        once = add_self_loops(g)
        twice = add_self_loops(once)
        assert once == twice

    @given(coo_graphs(unit_weights=True))
    @settings(max_examples=60, deadline=None)
    def test_degrees_at_least_one_after_loops(self, g):
        d = compute_degrees(add_self_loops(g))
        assert (d >= 1.0).all()


class TestValidation:
    def test_src_out_of_range(self):
        with pytest.raises(FormatError):
            coo(2, src=[2], dst=[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(FormatError, match="edge 1 has non-finite weight"):
            coo(3, src=[0, 1, 2], dst=[1, 2, 0], weights=[1.0, bad, 1.0])
        with pytest.raises(FormatError, match="non-finite"):
            CooGraph(2, np.array([0]), np.array([1]), np.array([bad], np.float32))

    def test_length_mismatch(self):
        with pytest.raises(FormatError):
            CooGraph(2, np.array([0]), np.array([0, 1]), np.array([1.0]))

    def test_csr_row_ptr_must_start_at_zero(self):
        with pytest.raises(FormatError):
            CsrGraph(1, 1, [1, 1], [], [])

    def test_csr_columns_strictly_increasing(self):
        with pytest.raises(FormatError):
            CsrGraph(1, 3, [0, 2], [1, 1], [1.0, 1.0])

    def test_csr_nnz_mismatch(self):
        with pytest.raises(FormatError):
            CsrGraph(1, 2, [0, 2], [0], [1.0])

    def test_immutability(self):
        g = coo(2, src=[0], dst=[1])
        with pytest.raises(ValueError):
            g.src[0] = 1
