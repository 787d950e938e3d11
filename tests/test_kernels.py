import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coo_graphs
from oracles import (
    add_at_scatter,
    add_at_spmm,
    csr_identity,
    csr_to_dense,
    dense_from_csr,
    gather_reference,
    naive_matmul,
    rank1_sgemm,
    same_bits,
    scatter_reference,
    to_lists,
)

from gnnbench.errors import FormatError, IndexRangeError, ShapeError
from gnnbench.graph import (
    CooGraph,
    CsrGraph,
    coo_to_csr,
    normalized_edges,
)
from gnnbench import bench, kernels
from gnnbench.kernels import (
    OpCounters,
    ReduceOp,
    index_select,
    index_select_counters,
    scatter,
    scatter_counters,
    sgemm,
    sgemm_counters,
    spmm,
    spmm_counters,
)
from gnnbench.data import gen_er_graph
from gnnbench.rng import uniform_array


def rand(shape, seed):
    return (2 * uniform_array(seed, int(np.prod(shape))) - 1).reshape(shape)


def incidence(index, n, weights=None):
    """The n x e incidence that scatters row k onto ``index[k]``, scaled by
    ``weights[k]`` (unit weights by default)."""
    index = np.asarray(index, dtype=np.int64)
    order = np.argsort(index, kind="stable")
    row_ptr = np.searchsorted(index[order], np.arange(n + 1))
    values = np.ones(len(index)) if weights is None else np.asarray(weights)[order]
    return CsrGraph(n, len(index), row_ptr, order, values)


class TestIndexSelect:
    def test_basic(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert index_select(x, [2, 0]).tolist() == [[5.0, 6.0], [1.0, 2.0]]

    def test_identity_gather(self):
        x = rand((5, 3), 1)
        assert index_select(x, range(5)).tobytes() == x.tobytes()

    def test_repeated_index(self):
        x = np.array([[1.0], [9.0]])
        assert index_select(x, [1, 1]).tolist() == [[9.0], [9.0]]

    def test_out_of_range_names_position(self):
        x = np.zeros((2, 1))
        with pytest.raises(IndexRangeError, match=r"index\[1\] = 2"):
            index_select(x, [0, 2])

    @pytest.mark.parametrize("index,bad", [
        ([1, -1, 5], r"index\[1\] = -1"),
        ([0, 7, -3], r"index\[1\] = 7"),
        ([2, 2], r"index\[0\] = 2"),
    ])
    def test_first_bad_position_named(self, index, bad):
        # whichever bound fails, the message names the earliest offender
        with pytest.raises(IndexRangeError, match=bad):
            index_select(np.zeros((2, 1)), index)

    def test_uint64_past_int64_named_as_given(self):
        # not as -1, the int64 that 2^64 - 1 casts to
        index = np.array([0, 2**64 - 1], np.uint64)
        with pytest.raises(IndexRangeError,
                           match=r"^index\[1\] = 18446744073709551615 out of range \[0, 3\)$"):
            index_select(np.ones((3, 2)), index)

    def test_two_dimensional_index_rejected(self):
        with pytest.raises(IndexRangeError, match="one-dimensional"):
            index_select(np.zeros((2, 1)), [[0], [1]])

    def test_float_index_rejected(self):
        # a float index must not be silently truncated to rows 1 and 0
        x = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(IndexRangeError, match="integers"):
            index_select(x, np.array([1.7, 0.2]))

    def test_matches_reference(self):
        x = rand((6, 4), 3)
        idx = [5, 0, 0, 3, 2]
        assert index_select(x, idx).tolist() == gather_reference(x, idx)

    def test_counters(self):
        c = index_select_counters(e=7, f=3)
        assert (c.fp_ops, c.int_ops, c.loads, c.stores) == (0, 28, 28, 21)


class TestScatter:
    def test_sum(self):
        src = np.array([[1.0], [2.0], [3.0]])
        out = scatter(src, incidence([0, 0, 1], 2), ReduceOp.SUM)
        assert out.tolist() == [[3.0], [3.0]]

    def test_mean_with_empty_destination(self):
        out = scatter(np.array([[4.0]]), incidence([0], 2), ReduceOp.MEAN)
        assert out.tolist() == [[4.0], [0.0]]

    def test_out_of_range(self):
        # a destination outside [0, n) cannot enter an incidence matrix
        for index in ([5], [-1], [0, 2]):
            with pytest.raises(FormatError):
                incidence(index, 2)

    def test_index_length_mismatch(self):
        with pytest.raises(ShapeError, match=r"2x1 with 1 entries .* x \(2, 1\)"):
            scatter(np.zeros((2, 1)), incidence([0], 2), ReduceOp.SUM)

    @pytest.mark.parametrize("op", ["sum", "mean"])
    def test_matches_reference_bitwise(self, op):
        # the reference accumulates in ascending k per destination, which is
        # exactly the documented kernel order
        src = rand((12, 3), 17)
        idx = (uniform_array(5, 12) * 5).astype(np.int64)
        got = scatter(src, incidence(idx, 5), ReduceOp(op))
        want = np.array(scatter_reference(src, idx, 5, op))
        assert got.tobytes() == want.tobytes()

    @given(coo_graphs(max_nodes=6, max_edges=12, unit_weights=True),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mean_times_count_near_sum(self, g, seed):
        # mean then multiply by receiver counts recovers the sum up to one
        # rounding of the intermediate division
        e = g.num_edges
        src = np.floor(rand((e, 2), seed) * 4)
        idx = g.dst
        a = incidence(idx, g.num_nodes)
        total = scatter(src, a, ReduceOp.SUM)
        mean = scatter(src, a, ReduceOp.MEAN)
        counts = np.bincount(idx, minlength=g.num_nodes).astype(float)
        recovered = mean * np.maximum(counts, 1)[:, None]
        assert np.abs(recovered - total).max() <= 1e-12 * max(1, np.abs(total).max())

    def test_mean_times_count_exact_for_pow2_counts(self):
        # powers of two divide exactly, so the round trip is bitwise
        src = np.arange(24, dtype=np.float64).reshape(12, 2)
        a = incidence([0] * 8 + [1] * 4, 2)
        total = scatter(src, a, ReduceOp.SUM)
        mean = scatter(src, a, ReduceOp.MEAN)
        recovered = mean * np.array([8.0, 4.0])[:, None]
        assert recovered.tobytes() == total.tobytes()

    def test_counters_sum_vs_mean(self):
        base = scatter_counters(e=10, f=4, n=3, op=ReduceOp.SUM)
        assert (base.fp_ops, base.int_ops, base.loads, base.stores) == \
            (40, 50, 50, 40)
        mean = scatter_counters(e=10, f=4, n=3, op=ReduceOp.MEAN)
        assert mean.fp_ops == 40 + 12


class TestSgemm:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert sgemm(np.eye(2), b).tolist() == b.tolist()

    def test_dot_product(self):
        assert sgemm(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])).tolist() \
            == [[11.0]]

    def test_matches_naive_triple_loop_bitwise(self):
        a = rand((8, 8), 11)
        b = rand((8, 8), 12)
        want = np.array(naive_matmul(to_lists(a), to_lists(b)))
        assert sgemm(a, b).tobytes() == want.tobytes()

    def test_shape_error_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) x \(2, 2\)"):
            sgemm(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_counters(self):
        c = sgemm_counters(m=2, k=3, n=4)
        assert (c.fp_ops, c.int_ops, c.loads, c.stores) == (48, 8, 48, 8)

    def test_fp_dominated(self):
        c = sgemm_counters(m=4, k=1, n=4)
        assert c.fp_ops / (c.fp_ops + c.int_ops) > 0.5


class TestSpmm:
    def test_identity(self):
        x = rand((4, 3), 2)
        assert spmm(csr_identity(4), x).tobytes() == x.tobytes()

    def test_zero_matrix(self):
        zero = CsrGraph(3, 3, [0, 0, 0, 0], [], [])
        assert spmm(zero, rand((3, 2), 5)).tolist() == [[0.0, 0.0]] * 3

    def test_normalized_er_matches_dense_oracle(self):
        a = coo_to_csr(normalized_edges(gen_er_graph(32, 0.2, 3)))
        x = rand((32, 5), 9)
        want = np.array(naive_matmul(dense_from_csr(a), to_lists(x)))
        assert np.abs(spmm(a, x) - want).max() <= 1e-12

    def test_identity_columns_densifies(self):
        a = coo_to_csr(gen_er_graph(8, 0.4, 1))
        assert spmm(a, np.eye(8)).tobytes() == csr_to_dense(a).tobytes()

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            spmm(csr_identity(3), np.zeros((4, 2)))

    def test_counters(self):
        c = spmm_counters(n=4, nnz=10, f=3)
        assert (c.fp_ops, c.int_ops, c.loads, c.stores) == (60, 40, 70, 12)


class TestCrossKernelProperties:
    @given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gather_scatter_adjoint(self, n, e, seed):
        idx = (uniform_array(seed, e) * n).astype(np.int64)
        x = rand((n, 3), seed ^ 0xABCD)
        via_kernels = scatter(index_select(x, idx), incidence(idx, n),
                              ReduceOp.SUM)
        m = coo_to_csr(CooGraph(n, src=idx, dst=idx))
        via_spmm = spmm(m, x)
        oracle = np.array(naive_matmul(dense_from_csr(m), to_lists(x)))
        assert np.abs(via_kernels - oracle).max() <= 1e-12
        assert np.abs(via_spmm - oracle).max() <= 1e-12

    def test_determinism_across_calls(self):
        a = rand((16, 16), 21)
        b = rand((16, 16), 22)
        first = sgemm(a, b).tobytes()
        assert all(sgemm(a, b).tobytes() == first for _ in range(3))

    def test_counters_additive(self):
        total = OpCounters(1, 2, 3, 4) + OpCounters(10, 20, 30, 40)
        assert (total.fp_ops, total.int_ops, total.loads, total.stores) == \
            (11, 22, 33, 44)

    def test_int_dominates_gather_scatter(self):
        for c in (index_select_counters(100, 8),
                  scatter_counters(100, 8, 50, ReduceOp.SUM)):
            assert c.int_ops / (c.fp_ops + c.int_ops) >= 0.5


SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 0.0)
FLOATS = (np.float32, np.float64)


@st.composite
def special_arrays(draw, shape, dtype):
    """Entries mixing small finite values with NaN, +-inf and signed zeros;
    C- or F-ordered."""
    size = int(np.prod(shape))
    cells = draw(st.lists(st.one_of(st.sampled_from(SPECIALS), st.floats(-4, 4)),
                          min_size=size, max_size=size))
    a = np.array(cells, dtype=dtype).reshape(shape)
    return np.asfortranarray(a) if draw(st.booleans()) else a


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the oracles
class TestSparseProductPrimitive:
    """scatter (sum/mean), spmm and sgemm against the implementations they
    replaced, bit for bit (a NaN matches any NaN)."""

    @given(st.data(), st.sampled_from(["sum", "mean"]), st.sampled_from(FLOATS))
    @settings(max_examples=100, deadline=None)
    def test_scatter_matches_add_at(self, data, op, dtype):
        n = data.draw(st.integers(0, 5))
        e = data.draw(st.integers(0, 10)) if n else 0
        f = data.draw(st.integers(0, 3))
        index = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                            min_size=e, max_size=e)), dtype=np.int64)
        src = data.draw(special_arrays((e, f), dtype))
        want = add_at_scatter(src, index, n, op)
        assert same_bits(scatter(src, incidence(index, n, np.ones(e, dtype)),
                                 ReduceOp(op)), want)

    @given(st.data(), st.sampled_from(FLOATS), st.sampled_from(FLOATS))
    @settings(max_examples=100, deadline=None)
    def test_spmm_matches_add_at(self, data, a_dtype, x_dtype):
        g = data.draw(coo_graphs(max_nodes=5, max_edges=12))
        a = coo_to_csr(g)
        values = data.draw(special_arrays((a.nnz,), a_dtype))
        a = CsrGraph(a.num_rows, a.num_cols, a.row_ptr, a.col_idx, values)
        x = data.draw(special_arrays((a.num_cols, data.draw(st.integers(0, 3))),
                                     x_dtype))
        assert same_bits(spmm(a, x), add_at_spmm(a, x))

    @given(st.data(), st.sampled_from(FLOATS), st.sampled_from(FLOATS))
    @settings(max_examples=100, deadline=None)
    def test_sgemm_matches_rank1(self, data, a_dtype, b_dtype):
        m, k, n = (data.draw(st.integers(0, 4)) for _ in range(3))
        a = data.draw(special_arrays((m, k), a_dtype))
        b = data.draw(special_arrays((k, n), b_dtype))
        assert same_bits(sgemm(a, b), rank1_sgemm(a, b))

    def test_accumulates_in_ascending_order(self):
        # 1 is absorbed by 1e16 when added first; a reversed sum gives 1
        terms = np.array([1.0, 1e16, -1e16])
        assert scatter(terms[:, None], incidence([0, 0, 0], 1)).tolist() == [[0.0]]
        row = CsrGraph(1, 3, [0, 3], [0, 1, 2], terms)
        assert spmm(row, np.ones((3, 2))).tolist() == [[0.0, 0.0]]
        assert sgemm(terms[None, :], np.ones((3, 1))).tolist() == [[0.0]]

    def test_empty_shapes(self):
        # no inner dimension, no rows, no edges, no nodes
        assert sgemm(np.ones((3, 0)), np.ones((0, 2))).tolist() == [[0.0] * 2] * 3
        assert sgemm(np.ones((0, 2)), np.ones((2, 3))).shape == (0, 3)
        assert scatter(np.ones((0, 2)), incidence([], 3), ReduceOp.MEAN).tolist() \
            == [[0.0] * 2] * 3
        assert scatter(np.ones((0, 2)), incidence([], 0), ReduceOp.SUM).shape == \
            (0, 2)
        assert spmm(CsrGraph(0, 0, [0], [], []), np.ones((0, 4))).shape == (0, 4)

    def test_inf_times_zero_is_nan(self):
        # the dense operand keeps its zeros, as in the triple loop
        out = sgemm(np.array([[0.0, 1.0]]), np.array([[np.inf], [2.0]]))
        assert np.isnan(out[0, 0])

    def test_result_dtype_follows_numpy(self):
        a = rand((3, 2), 1).astype(np.float32)
        assert sgemm(a, rand((2, 2), 2)).dtype == np.float64
        assert sgemm(a, a.T).dtype == np.float32

    def test_unsupported_dtype_rejected(self):
        # scipy would compute float16 in float32 and return float32
        half = np.ones((2, 2), dtype=np.float16)
        with pytest.raises(TypeError, match="float16"):
            sgemm(half, half)
        with pytest.raises(TypeError, match="float16"):
            scatter(half, incidence([0, 1], 2, np.ones(2, np.float16)),
                    ReduceOp.SUM)
        with pytest.raises(TypeError, match="float16"):
            spmm(csr_identity(2, dtype=np.float16), half)

    def test_one_primitive_behind_three_kernels(self, monkeypatch):
        calls = []
        primitive = kernels._csr_matmul

        def spy(*args):
            calls.append(len(args[0]) - 1)
            return primitive(*args)

        monkeypatch.setattr(kernels, "_csr_matmul", spy)
        x = rand((3, 2), 4)
        scatter(x, incidence([2, 0, 2], 4), ReduceOp.SUM)
        scatter(x, incidence([2, 0, 2], 5), ReduceOp.MEAN)
        spmm(csr_identity(3), x)
        sgemm(x, rand((2, 6), 5))
        assert calls == [4, 5, 3, 3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the oracles
class TestWeightedScatter:
    """``scatter`` through an incidence whose values are per-edge weights,
    against the route it replaces: scale the rows by ``weights[:, None] *
    src``, then scatter the products."""

    @given(st.data(), st.sampled_from(["sum", "mean"]), st.sampled_from(FLOATS),
           st.sampled_from(FLOATS))
    @settings(max_examples=150, deadline=None)
    def test_matches_scaled_add_at(self, data, op, src_dtype, w_dtype):
        n = data.draw(st.integers(1, 5))
        e = data.draw(st.integers(0, 10))
        f = data.draw(st.integers(0, 3))
        index = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                            min_size=e, max_size=e)), dtype=np.int64)
        src = data.draw(special_arrays((e, f), src_dtype))
        weights = data.draw(special_arrays((e,), w_dtype))
        want = add_at_scatter(weights[:, None] * src, index, n, op)
        assert same_bits(scatter(src, incidence(index, n, weights), ReduceOp(op)),
                         want)

    @pytest.mark.parametrize("op", ["sum", "mean"])
    @pytest.mark.parametrize("e,f", [(0, 1), (0, 3), (7, 1)])
    def test_no_edges_and_one_feature(self, op, e, f):
        src = rand((e, f), 3)
        index = (uniform_array(4, e) * 3).astype(np.int64)
        weights = rand((e,), 5)
        want = add_at_scatter(weights[:, None] * src, index, 3, op)
        assert same_bits(scatter(src, incidence(index, 3, weights), ReduceOp(op)),
                         want)

    def test_special_weights(self):
        # NaN, +-inf and -0.0 weights act as they do in the products
        src = np.array([[1.0, 0.0], [0.0, -3.0], [4.0, 5.0], [-1.0, 1.0]])
        weights = np.array([np.nan, np.inf, -np.inf, -0.0])
        index = [3, 0, 1, 2]
        got = scatter(src, incidence(index, 4, weights), ReduceOp.SUM)
        assert same_bits(got, add_at_scatter(weights[:, None] * src,
                                             np.array(index), 4, "sum"))
        assert np.isnan(got[3]).all() and np.isnan(got[0, 0])  # inf * 0
        assert got[0, 1] == -np.inf and (got[1] == -np.inf).all()
        assert not np.signbit(got[2]).any()  # each sum starts from +0.0

    def test_unit_weights_are_the_unweighted_sum(self):
        src = rand((9, 4), 6)
        index = np.array([4, 0, 2, 0, 4, 1, 1, 0, 3])
        assert same_bits(scatter(src, incidence(index, 5), ReduceOp.SUM),
                         add_at_scatter(src, index, 5, "sum"))

    @pytest.mark.parametrize("weights", [np.ones(2), np.ones(4), np.ones((3, 1))])
    def test_wrong_weights_shape(self, weights):
        # the incidence of index [0, 1, 0] holds one weight per edge
        with pytest.raises(FormatError):
            CsrGraph(2, 3, [0, 2, 3], [0, 2, 1], weights)

    @pytest.mark.parametrize("op", [ReduceOp.SUM, ReduceOp.MEAN])
    def test_counters_ignore_weights(self, op):
        # the cost-model row counts the accumulation adds only
        src = rand((6, 3), 7)
        index = [1, 0, 1, 2, 0, 1]
        plain, weighted = bench.Instrumentation(), bench.Instrumentation()
        plain.scatter(src, incidence(index, 4), op)
        weighted.scatter(src, incidence(index, 4, rand((6,), 8)), op)
        (calls, _, counters), = plain.snapshot().values()
        (w_calls, _, w_counters), = weighted.snapshot().values()
        assert (w_calls, w_counters) == (calls, counters) == \
            (1, scatter_counters(6, 3, 4, op))


@st.composite
def csr_patterns(draw, max_rows=5, max_cols=5, max_per_row=4):
    """``(row_ptr, col_idx, num_cols)`` with empty rows, repeated and
    unsorted columns allowed."""
    n_row = draw(st.integers(0, max_rows))
    n_col = draw(st.integers(0, max_cols))
    per_row = [draw(st.integers(0, max_per_row if n_col else 0))
               for _ in range(n_row)]
    col_idx = np.array(draw(st.lists(st.integers(0, max(n_col - 1, 0)),
                                     min_size=sum(per_row), max_size=sum(per_row))),
                       dtype=np.int64)
    row_ptr = np.concatenate([[0], np.cumsum(per_row, dtype=np.int64)])
    return row_ptr, col_idx, n_col


class TestDirectCsrLoop:
    """``_csr_matmul`` calls scipy's compiled loop directly; it must give the
    bytes of the public ``csr_array @ x`` that reaches the same loop."""

    @given(st.data(), csr_patterns(), st.sampled_from(FLOATS),
           st.sampled_from(FLOATS))
    @settings(max_examples=200, deadline=None)
    def test_matches_public_csr_array(self, data, pattern, v_dtype, x_dtype):
        row_ptr, col_idx, n_col = pattern
        values = data.draw(special_arrays((len(col_idx),), v_dtype))
        f = data.draw(st.integers(0, 3))
        if data.draw(st.booleans()):
            x = data.draw(special_arrays((n_col, 2 * f), x_dtype))[:, ::2]
        else:
            x = data.draw(special_arrays((n_col, f), x_dtype))  # C or F order
        x.setflags(write=data.draw(st.booleans()))
        want = scipy.sparse.csr_array((values, col_idx, row_ptr),
                                      shape=(len(row_ptr) - 1, n_col)) @ x
        got = kernels._csr_matmul(row_ptr, col_idx, values, n_col, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_special_products(self):
        # -0.0 products into a +0.0 start, and inf * 0 is NaN
        row_ptr = np.array([0, 1, 3], dtype=np.int64)
        col_idx = np.array([0, 0, 1], dtype=np.int64)
        values = np.array([-0.0, np.inf, 2.0])
        x = np.array([[1.0, 0.0], [-0.0, 3.0]])
        got = kernels._csr_matmul(row_ptr, col_idx, values, 2, x)
        want = scipy.sparse.csr_array((values, col_idx, row_ptr), shape=(2, 2)) @ x
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[0]).any() and np.isnan(got[1, 1])

    @pytest.mark.parametrize("rows", [2, 4])
    def test_operand_rows_must_match_columns(self, rows):
        # the compiled loop checks nothing: a short x would be read past
        row_ptr = np.array([0, 1, 2], dtype=np.int64)
        col_idx = np.array([0, 2], dtype=np.int64)
        with pytest.raises(ShapeError, match=rf"2x3 with 2 entries .* x \({rows}, 2\)"):
            kernels._csr_matmul(row_ptr, col_idx, np.ones(2), 3, np.ones((rows, 2)))

    def test_entry_count_must_match(self):
        row_ptr = np.array([0, 3], dtype=np.int64)
        col_idx = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ShapeError, match="3 entries"):
            kernels._csr_matmul(row_ptr, col_idx, np.ones(2), 2, np.ones((2, 1)))

    @pytest.mark.parametrize("out", [np.zeros((2, 2)), np.zeros((1, 3)),
                                     np.zeros((1, 4))[:, ::2],
                                     np.zeros((1, 2), dtype=np.float32)])
    def test_output_must_fit(self, out):
        # a wrong shape would be written past; a strided or converted copy
        # would take the products and leave ``out`` zero
        row_ptr = np.array([0, 1], dtype=np.int64)
        col_idx = np.array([0], dtype=np.int64)
        with pytest.raises(ShapeError, match="output"):
            kernels._csr_matmul(row_ptr, col_idx, np.ones(1), 1, np.ones((1, 2)),
                                out)


class TestSgemmBlocks:
    """sgemm runs ``a`` through the product in row blocks of at most
    ``_SGEMM_BLOCK`` entries; blocking must leave every byte as the triple
    loop gives it."""

    def calls(self, monkeypatch, a, b):
        rows = []
        primitive = kernels._csr_matmul

        def spy(*args):
            rows.append(len(args[0]) - 1)
            return primitive(*args)

        monkeypatch.setattr(kernels, "_csr_matmul", spy)
        out = sgemm(a, b)
        assert out.tobytes() == np.array(naive_matmul(to_lists(a), to_lists(b))).tobytes()
        return rows

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_around_one_block(self, monkeypatch, extra):
        k = 4096
        block = kernels._SGEMM_BLOCK // k
        m = block + extra
        rows = self.calls(monkeypatch, rand((m, k), 31), rand((k, 2), 32))
        assert rows == ([m] if extra <= 0 else [block, 1])

    def test_one_row_per_block(self, monkeypatch):
        k = kernels._SGEMM_BLOCK + 1
        assert self.calls(monkeypatch, rand((3, k), 33), rand((k, 1), 34)) \
            == [1, 1, 1]

    def test_inner_dimension_one(self, monkeypatch):
        assert self.calls(monkeypatch, rand((7, 1), 35), rand((1, 3), 36)) == [7]

    def test_cached_pattern_is_read_only(self):
        row_ptr, col_idx = kernels._dense_pattern(3, 2)
        assert not row_ptr.flags.writeable and not col_idx.flags.writeable
        assert row_ptr.tolist() == [0, 2, 4, 6] and col_idx.tolist() == [0, 1] * 3

    def test_peak_memory_below_twice_the_output(self):
        # an m x k column index would take about 31 MB at this Cora-width
        # shape; the warm-up call builds the cached block patterns
        a = rand((2708, 1433), 37)
        b = rand((1433, 16), 38)
        want = sgemm(a, b)
        tracemalloc.start()
        try:
            got = sgemm(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < 2 * got.nbytes


class TestNoFusedMultiplyAdd:
    """Every pinned digest assumes the compiled loop rounds each product
    before it adds it. For the row ``[1, 1 + 2**-27]`` times the column
    ``[-1, 1 - 2**-27]`` that gives -1 + 1 = 0.0; a fused multiply-add keeps
    the second product exact and gives -2**-54."""

    @pytest.mark.parametrize("cols", [1, 2])
    def test_probe_row_sums_to_zero(self, cols):
        row = np.array([1.0, 1.0 + 2.0**-27])
        column = np.array([-1.0, 1.0 - 2.0**-27])
        x = np.repeat(column[:, None], cols, axis=1)
        a = CsrGraph(1, 2, [0, 2], [0, 1], row)
        why = ("-2**-54 means the compiled loop fuses multiply and add, so "
               "every pinned digest would fail on this build")
        assert spmm(a, x).tolist() == [[0.0] * cols], why
        assert sgemm(row[None, :], x).tolist() == [[0.0] * cols], why
