import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coo_graphs, symmetric_graph
from oracles import (
    csr_from_dense,
    csr_identity,
    csr_to_coo,
    csr_to_dense,
    dense_adjacency,
    dense_normalized,
    unique_add_self_loops,
    unique_coo_to_csr,
)

from gnnbench.errors import CapacityError, FormatError, NormalizationError
from gnnbench.graph import (
    DEFAULT_DENSE_LIMIT,
    CooGraph,
    CsrGraph,
    add_self_loops,
    coo_to_csr,
    coo_to_dense,
    coo_to_incidence,
    normalized_edges,
)
from gnnbench.graph import _node_sort
from gnnbench.data import gen_er_graph


def edge_set(g):
    return sorted(zip(g.src.tolist(), g.dst.tolist(), g.weights.tolist()))


@st.composite
def multigraphs(draw):
    """Up to 2^17 nodes, with endpoints drawn from a pool of at most eight
    nodes so that edges repeat at every size."""
    n = draw(st.one_of(st.integers(1, 6), st.integers(1, 2**9),
                       st.integers(2**16 + 1, 2**17)))
    pool = st.sampled_from(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                         max_size=8)))
    e = draw(st.one_of(st.integers(0, 30), st.integers(31, 300)))
    src = draw(st.lists(pool, min_size=e, max_size=e))
    dst = draw(st.lists(pool, min_size=e, max_size=e))
    weights = draw(st.lists(st.floats(-8, 8, allow_nan=False,
                                      allow_infinity=False),
                            min_size=e, max_size=e))
    return CooGraph(n, src, dst, weights)


class TestCooToCsr:
    def test_three_node_example(self):
        g = CooGraph(3, src=[0, 1, 0], dst=[1, 2, 2])
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
            a = coo_to_csr(CooGraph(2, [], []).astype(dtype))
            assert a.row_ptr.tolist() == [0, 0, 0]
            assert a.col_idx.tolist() == []
            assert a.values.tolist() == []
            assert a.row_ptr.dtype == a.col_idx.dtype == np.int64
            assert a.values.dtype == dtype

    def test_duplicate_edges_sum(self):
        g = CooGraph(2, src=[0, 0], dst=[1, 1])
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
        d = coo_to_dense(CooGraph(2, src=[0], dst=[1]))
        assert d.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_empty_is_zero(self):
        d = coo_to_dense(CooGraph(2, [], []))
        assert d.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_duplicate_edge_sums(self):
        d = coo_to_dense(CooGraph(2, src=[0, 0], dst=[1, 1]))
        assert d[1][0] == 2.0

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            coo_to_dense(CooGraph(DEFAULT_DENSE_LIMIT + 1, [], []))


def _coo_of(size=3, values=(0.5, 0.0), dtype=np.float64):
    return CooGraph(size, [0, 1], [1, 2], np.array(values, dtype))


def _csr_of(size=3, values=(0.5, 0.0), dtype=np.float64):
    return CsrGraph(3, size, [0, 1, 1, 2], [1, 2], np.array(values, dtype))


GRAPH_TYPES = {"coo": _coo_of, "csr": _csr_of,
               "mp": lambda **kw: coo_to_incidence(_coo_of(**kw))}


class TestBitwiseEquality:
    @pytest.mark.parametrize("kind", sorted(GRAPH_TYPES))
    def test_equal_copy(self, kind):
        make = GRAPH_TYPES[kind]
        assert make() == make()
        assert not make() != make()

    # a float32 copy of the same values, a -0.0 where the other holds +0.0,
    # and another node count (num_cols for a CSR matrix)
    @pytest.mark.parametrize("change", [{"dtype": np.float32},
                                        {"values": (0.5, -0.0)}, {"size": 4}],
                             ids=["float32", "negative-zero", "size"])
    @pytest.mark.parametrize("kind", sorted(GRAPH_TYPES))
    def test_unequal_copy(self, kind, change):
        make = GRAPH_TYPES[kind]
        assert make() != make(**change)
        assert make(**change) != make()

    @pytest.mark.parametrize("kind", sorted(GRAPH_TYPES))
    def test_other_values_are_unequal(self, kind):
        g = GRAPH_TYPES[kind]()
        other_type = [make() for name, make in GRAPH_TYPES.items() if name != kind]
        for other in [None, "graph"] + other_type:
            assert (g == other) is False
            assert (other == g) is False

    @pytest.mark.parametrize("kind", sorted(GRAPH_TYPES))
    def test_unhashable(self, kind):
        with pytest.raises(TypeError):
            hash(GRAPH_TYPES[kind]())


class TestAddSelfLoops:
    def test_empty_becomes_identity(self):
        g = add_self_loops(CooGraph(2, [], []))
        assert edge_set(g) == [(0, 0, 1.0), (1, 1, 1.0)]

    def test_existing_loop_untouched(self):
        g = add_self_loops(CooGraph(2, src=[0], dst=[0]))
        assert edge_set(g) == [(0, 0, 1.0), (1, 1, 1.0)]
        assert g.num_edges == 2

    def test_mixed(self):
        g = add_self_loops(CooGraph(3, src=[0], dst=[1]))
        assert edge_set(g) == [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0)]


def normalized_csr(g):
    return coo_to_csr(normalized_edges(g))


class TestNormalizedDegrees:
    """Weighted in-degrees of the self-looped graph, read through the
    normalized weights ``w / sqrt(d_src * d_dst)``."""

    def test_fully_connected_with_loops(self):
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        g = CooGraph(3, [u for u, _ in pairs], [v for _, v in pairs])
        assert normalized_edges(g).weights.tolist() == [1 / math.sqrt(9)] * 9

    def test_isolated_node_after_loops(self):
        assert normalized_edges(CooGraph(1, [], [])).weights.tolist() == [1.0]

    def test_duplicate_edges_count(self):
        # d_0 = 1 (its loop), d_1 = 2 + 1: both copies of 0 -> 1 count
        g = normalized_edges(CooGraph(2, src=[0, 0], dst=[1, 1]))
        assert edge_set(g) == [(0, 0, 1.0), (0, 1, 1 / math.sqrt(3)),
                               (0, 1, 1 / math.sqrt(3)), (1, 1, 1 / math.sqrt(9))]


class TestNormalizedWeights:
    """Each weight scaled by 1/sqrt(d_src * d_dst), and the edges whose
    scaled weight is out of range rejected."""

    def test_equal_degree_three(self):
        # loops of weight 3 and 2 give d_0 = 3 and d_1 = 1 + 2 = 3
        g = CooGraph(2, src=[0, 0, 1], dst=[1, 0, 1], weights=[1.0, 3.0, 2.0])
        assert normalized_edges(g).weights[0] == pytest.approx(1 / 3)

    def test_self_loop_degree_one(self):
        g = CooGraph(1, src=[0], dst=[0])
        assert normalized_edges(g).weights.tolist() == [1.0]

    def test_mixed_degrees(self):
        # d_0 = 1 from its appended loop, d_1 = 1 + 3
        g = CooGraph(2, src=[0, 1], dst=[1, 1], weights=[1.0, 3.0])
        assert normalized_edges(g).weights.tolist() == [0.5, 0.75, 1.0]

    def test_zero_degree_rejected(self):
        # node 0's own zero-weight loop leaves it degree 0
        g = CooGraph(2, src=[0, 0], dst=[1, 0], weights=[1.0, 0.0])
        with pytest.raises(NormalizationError, match=r"edge 0 \(0 -> 1\)"):
            normalized_edges(g)

    @pytest.mark.parametrize("degrees", [[1e-30, 1e-20], [1e20, 1e30],
                                         [1.0, 6e38]])
    def test_f32_degree_product_out_of_range_rejected(self, degrees):
        # d_2 = 1, and d_0 * d_1 underflows to zero or overflows to inf in
        # float32, or d_1 itself does; d_1 is half edge 0 -> 1, half node
        # 1's loop
        d0, d1 = degrees
        g = CooGraph(3, np.array([2, 0, 0, 1]), np.array([2, 1, 0, 1]),
                     np.array([1.0, d1 / 2, d0, d1 / 2], dtype=np.float32))
        with pytest.raises(NormalizationError, match=r"edge 1 \(0 -> 1\)"):
            normalized_edges(g)


class TestNormalizedAdjacency:
    def test_single_node(self):
        a = normalized_csr(CooGraph(1, [], []))
        assert csr_to_dense(a).tolist() == [[1.0]]

    def test_two_node_bidirectional(self):
        a = normalized_csr(CooGraph(2, src=[0, 1], dst=[1, 0]))
        dense = csr_to_dense(a)
        assert dense.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert dense.sum(axis=1).tolist() == [1.0, 1.0]

    def test_er_graph_matches_dense_oracle(self):
        g = gen_er_graph(16, 0.3, 7)
        got = csr_to_dense(normalized_csr(g))
        want = np.array(dense_normalized(g))
        assert np.abs(got - want).max() <= 1e-12

    @given(coo_graphs(unit_weights=True))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_input_gives_symmetric_output(self, g):
        sym = symmetric_graph(g)
        dense = csr_to_dense(normalized_csr(sym))
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

    @given(coo_graphs(), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=100, deadline=None)
    def test_incidence_sums_to_csr_bitwise(self, g, dtype):
        # MP's layout, added into zeros per (destination, source) in its
        # storage order, is SpMM's layout: both sum duplicates in edge order
        g = g.astype(dtype)
        mp = coo_to_incidence(g)
        a = mp.incidence
        rows = np.repeat(np.arange(a.num_rows), np.diff(a.row_ptr))
        summed = np.zeros((g.num_nodes, g.num_nodes), dtype=dtype)
        np.add.at(summed, (rows, mp.src), a.values)
        assert summed.tobytes() == csr_to_dense(coo_to_csr(g)).tobytes()

    @given(multigraphs(), st.sampled_from([np.float32, np.float64]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_coo_to_csr_matches_unique_oracle(self, g, dtype, data):
        # signed zeros among the weights: a lone -0.0 coalesces to +0.0
        zeros = data.draw(st.lists(st.sampled_from([None, 0.0, -0.0]),
                                   min_size=g.num_edges, max_size=g.num_edges))
        w = np.array([x if z is None else z for x, z in zip(g.weights, zeros)],
                     dtype=dtype)
        g = CooGraph(g.num_nodes, g.src, g.dst, w)
        assert coo_to_csr(g) == unique_coo_to_csr(g)

    @given(st.one_of(coo_graphs(), multigraphs()),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=100, deadline=None)
    def test_add_self_loops_matches_unique_oracle(self, g, dtype):
        g = g.astype(dtype)
        assert add_self_loops(g) == unique_add_self_loops(g)

    @given(coo_graphs())
    @settings(max_examples=60, deadline=None)
    def test_self_loop_idempotence(self, g):
        once = add_self_loops(g)
        twice = add_self_loops(once)
        assert once == twice

    @given(coo_graphs(unit_weights=True))
    @settings(max_examples=60, deadline=None)
    def test_degrees_at_least_one_after_loops(self, g):
        # unit weights: every degree is at least 1 iff no normalized weight,
        # 1/sqrt(d_src * d_dst), exceeds 1 (a node's own loop gives 1/d)
        w = normalized_edges(g).weights
        assert ((w > 0.0) & (w <= 1.0)).all()


class TestNodeSort:
    @given(st.data(), st.sampled_from([np.int8, np.float32, np.float64]))
    @settings(max_examples=150, deadline=None)
    def test_matches_stable_argsort(self, data, dtype):
        # n crosses the int16 and uint16 ranges; nodes repeat and many
        # appear nowhere
        n = data.draw(st.one_of(st.integers(1, 4), st.integers(1, 2**17)))
        e = data.draw(st.integers(0, 40))
        draw_nodes = lambda: np.array(data.draw(st.lists(
            st.integers(0, n - 1), min_size=e, max_size=e)), dtype=np.int64)
        nodes, cols = draw_nodes(), draw_nodes()
        values = np.arange(e).astype(dtype)
        row_ptr, got_cols, got_values = _node_sort(nodes, n, cols, values)
        assert row_ptr.dtype == got_cols.dtype == np.int64
        assert got_values.dtype == dtype
        order = np.argsort(nodes, kind="stable")
        assert np.array_equal(got_cols, cols[order])
        assert got_values.tobytes() == values[order].tobytes()
        assert np.array_equal(row_ptr[1:], np.cumsum(np.bincount(nodes, minlength=n)))
        assert row_ptr[0] == 0

    def test_no_edges(self):
        empty = np.zeros(0, dtype=np.int64)
        row_ptr, cols, values = _node_sort(empty, 1, empty, np.zeros(0))
        assert cols.shape == values.shape == (0,)
        assert row_ptr.tolist() == [0, 0]


class TestValidation:
    def test_src_out_of_range(self):
        with pytest.raises(FormatError):
            CooGraph(2, src=[2], dst=[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(FormatError, match="edge 1 has non-finite weight"):
            CooGraph(3, src=[0, 1, 2], dst=[1, 2, 0], weights=[1.0, bad, 1.0])
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

    @pytest.mark.parametrize("row_ptr,col_idx,values", [
        ([[0, 2]], [0, 1], [1.0, 2.0]),
        ([0, 2], [[0, 1]], [1.0, 2.0]),
        ([0, 2], [0, 1], [[1.0], [2.0]]),
    ])
    def test_csr_arrays_one_dimensional(self, row_ptr, col_idx, values):
        with pytest.raises(FormatError, match="one-dimensional"):
            CsrGraph(1, 2, row_ptr, col_idx, values)

    def test_immutability(self):
        g = CooGraph(2, src=[0], dst=[1])
        with pytest.raises(ValueError):
            g.src[0] = 1
