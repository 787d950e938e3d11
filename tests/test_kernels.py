import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coo_graphs
from oracles import (
    dense_from_csr,
    gather_reference,
    naive_matmul,
    scatter_reference,
    to_lists,
)

from gnnbench.errors import IndexRangeError, ShapeError
from gnnbench.graph import (
    CsrGraph,
    coo,
    coo_to_csr,
    csr_identity,
    csr_to_dense,
    normalized_adjacency,
)
from gnnbench.kernels import (
    OpCounters,
    ReduceOp,
    index_select,
    index_select_counters,
    scatter,
    scatter_counters,
    sgemm,
    sgemm_counters,
    spgemm,
    spgemm_counters,
    spgemm_work,
    spmm,
    spmm_counters,
)
from gnnbench.data import gen_er_graph
from gnnbench.rng import uniform_array


def rand(shape, seed):
    return (2 * uniform_array(seed, int(np.prod(shape))) - 1).reshape(shape)


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

    def test_float_index_rejected(self):
        # a float index must not be silently truncated to rows 1 and 0
        x = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(IndexRangeError, match="integers"):
            index_select(x, np.array([1.7, 0.2]))
        with pytest.raises(IndexRangeError, match="integers"):
            scatter(x, np.array([0.0, 1.0, 1.0]), 2, ReduceOp.SUM)

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
        out = scatter(src, [0, 0, 1], 2, ReduceOp.SUM)
        assert out.tolist() == [[3.0], [3.0]]

    def test_mean_with_empty_destination(self):
        out = scatter(np.array([[4.0]]), [0], 2, ReduceOp.MEAN)
        assert out.tolist() == [[4.0], [0.0]]

    def test_max_with_empty_destination(self):
        src = np.array([[1.0], [5.0], [2.0]])
        out = scatter(src, [1, 1, 1], 2, ReduceOp.MAX)
        assert out.tolist() == [[0.0], [5.0]]

    def test_max_of_negatives_stays_negative(self):
        src = np.array([[-3.0], [-1.0]])
        out = scatter(src, [0, 0], 1, ReduceOp.MAX)
        assert out.tolist() == [[-1.0]]

    def test_out_of_range(self):
        with pytest.raises(IndexRangeError):
            scatter(np.zeros((1, 1)), [5], 2, ReduceOp.SUM)

    def test_index_length_mismatch(self):
        with pytest.raises(ShapeError):
            scatter(np.zeros((2, 1)), [0], 2, ReduceOp.SUM)

    @pytest.mark.parametrize("op", ["sum", "mean", "max"])
    def test_matches_reference_bitwise(self, op):
        # the reference accumulates in ascending k per destination, which is
        # exactly the documented kernel order
        src = rand((12, 3), 17)
        idx = (uniform_array(5, 12) * 5).astype(np.int64)
        got = scatter(src, idx, 5, ReduceOp(op))
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
        total = scatter(src, idx, g.num_nodes, ReduceOp.SUM)
        mean = scatter(src, idx, g.num_nodes, ReduceOp.MEAN)
        counts = np.bincount(idx, minlength=g.num_nodes).astype(float)
        recovered = mean * np.maximum(counts, 1)[:, None]
        assert np.abs(recovered - total).max() <= 1e-12 * max(1, np.abs(total).max())

    def test_mean_times_count_exact_for_pow2_counts(self):
        # powers of two divide exactly, so the round trip is bitwise
        src = np.arange(24, dtype=np.float64).reshape(12, 2)
        idx = np.array([0] * 8 + [1] * 4)
        total = scatter(src, idx, 2, ReduceOp.SUM)
        mean = scatter(src, idx, 2, ReduceOp.MEAN)
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
        a = normalized_adjacency(gen_er_graph(32, 0.2, 3))
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


class TestSpgemm:
    def test_times_identity_is_bitwise_identity(self):
        a = coo_to_csr(gen_er_graph(9, 0.3, 4))
        assert spgemm(a, csr_identity(9)) == a

    def test_diagonal_scales_rows(self):
        a = coo_to_csr(coo(3, src=[0, 1, 2], dst=[1, 2, 2],
                           weights=[2.0, 3.0, 4.0]))
        diag = CsrGraph(3, 3, [0, 1, 2, 3], [0, 1, 2], [10.0, 20.0, 30.0])
        got = csr_to_dense(spgemm(diag, a))
        want = np.diag([10.0, 20.0, 30.0]) @ csr_to_dense(a)
        assert got.tolist() == want.tolist()

    def test_er_product_matches_dense_oracle(self):
        a = coo_to_csr(gen_er_graph(16, 0.25, 5))
        b = coo_to_csr(gen_er_graph(16, 0.25, 6))
        got = np.array(dense_from_csr(spgemm(a, b)))
        want = np.array(naive_matmul(dense_from_csr(a), dense_from_csr(b)))
        assert np.abs(got - want).max() <= 1e-12

    def test_cancellation_keeps_explicit_zero(self):
        a = CsrGraph(1, 2, [0, 2], [0, 1], [1.0, -1.0])
        b = CsrGraph(2, 1, [0, 1, 2], [0, 0], [1.0, 1.0])
        out = spgemm(a, b)
        assert out.nnz == 1
        assert out.values.tolist() == [0.0]

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            spgemm(csr_identity(2), csr_identity(3))

    def test_counters_and_work(self):
        a = coo_to_csr(gen_er_graph(8, 0.4, 2))
        b = coo_to_csr(gen_er_graph(8, 0.4, 3))
        work = spgemm_work(a, b)
        nnz_per_row_b = np.diff(b.row_ptr)
        assert work == sum(int(nnz_per_row_b[j]) for j in a.col_idx)
        out = spgemm(a, b)
        c = spgemm_counters(work, a.nnz, out.nnz)
        assert c.fp_ops == 2 * work
        assert c.stores == out.nnz


class TestCrossKernelProperties:
    @given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gather_scatter_adjoint(self, n, e, seed):
        idx = (uniform_array(seed, e) * n).astype(np.int64)
        x = rand((n, 3), seed ^ 0xABCD)
        via_kernels = scatter(index_select(x, idx), idx, n, ReduceOp.SUM)
        m = coo_to_csr(coo(n, src=idx, dst=idx))
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
