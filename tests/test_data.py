import math
import tracemalloc

import numpy as np
import pytest
from oracles import whole_array_er

from gnnbench.data import (
    gen_er_graph,
    gen_features,
    load_edge_list,
    load_features,
    registry,
)
from gnnbench.errors import FormatError, ParseError


class TestLoadEdgeList:
    def test_basic(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.num_nodes == 3
        assert g.src.tolist() == [0, 1]
        assert g.dst.tolist() == [1, 2]
        assert g.weights.tolist() == [1.0, 1.0]

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# a comment\n0 1\n# another\n1 0\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_nodes_directive_overrides(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("%nodes 5\n0 1\n")
        assert load_edge_list(path).num_nodes == 5

    def test_edge_order_preserved(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("2 0\n0 1\n2 0\n")
        g = load_edge_list(path)
        assert list(zip(g.src.tolist(), g.dst.tolist())) == [(2, 0), (0, 1), (2, 0)]

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\nnot an edge\n")
        with pytest.raises(ParseError, match=":2:"):
            load_edge_list(path)

    def test_index_above_declared_count(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("%nodes 2\n0 5\n")
        with pytest.raises(ParseError, match="exceeds"):
            load_edge_list(path)

    def test_directive_not_first_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n%nodes 9\n")
        with pytest.raises(ParseError):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("")
        g = load_edge_list(path)
        assert g.num_nodes == 0 and g.num_edges == 0


class TestLoadFeatures:
    def test_basic(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        x = load_features(path, 2)
        assert x.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_single_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.5\n-2.5\n")
        assert load_features(path, 2).shape == (2, 1)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1\n2\n3\n")
        with pytest.raises(FormatError, match="3 feature rows for 2 nodes"):
            load_features(path, 2)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="ragged"):
            load_features(path, 2)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match=":2:"):
            load_features(path, 2)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,nan\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_features(path, 2)


class TestGenErGraph:
    def test_p_zero_is_empty(self):
        assert gen_er_graph(8, 0.0, 1).num_edges == 0

    def test_p_one_is_complete_directed(self):
        g = gen_er_graph(3, 1.0, 1)
        pairs = sorted(zip(g.src.tolist(), g.dst.tolist()))
        assert pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_deterministic(self):
        a = gen_er_graph(64, 0.1, 42)
        b = gen_er_graph(64, 0.1, 42)
        assert a == b

    def test_seed_sensitivity(self):
        assert gen_er_graph(32, 0.5, 1) != gen_er_graph(32, 0.5, 2)

    def test_no_self_loops(self):
        g = gen_er_graph(32, 0.8, 3)
        assert not np.any(g.src == g.dst)

    def test_edge_count_concentrates(self):
        n, p = 256, 0.1
        trials = n * (n - 1)
        sigma = math.sqrt(trials * p * (1 - p))
        count = gen_er_graph(n, p, 123).num_edges
        assert abs(count - trials * p) <= 5 * sigma

    # 300 * 299 pairs span two generator blocks of 2**16
    @pytest.mark.parametrize("n,p,seed", [(0, 0.5, 1), (1, 0.5, 1), (2, 1.0, 3),
                                          (17, 0.3, 2**64 - 1), (300, 0.02, 5),
                                          (300, 1.0, 6)])
    def test_matches_whole_array_formula(self, n, p, seed):
        g = gen_er_graph(n, p, seed)
        src, dst = whole_array_er(n, p, seed)
        assert g.src.tobytes() == src.tobytes()
        assert g.dst.tobytes() == dst.tobytes()
        assert g.weights.tolist() == [1.0] * len(src)

    def test_memory_does_not_grow_with_pair_count(self):
        # the whole-array formula held about 33 B per ordered pair (74 MB)
        tracemalloc.start()
        try:
            gen_er_graph(1500, 0.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            gen_er_graph(4, 1.5, 0)


class TestGenFeatures:
    def test_deterministic(self):
        assert gen_features(4, 2, 1).tobytes() == gen_features(4, 2, 1).tobytes()

    def test_bounds(self):
        x = gen_features(50, 20, 9)
        assert x.min() >= -1.0 and x.max() <= 1.0

    def test_seed_sensitivity(self):
        assert gen_features(4, 2, 1).tobytes() != gen_features(4, 2, 2).tobytes()

    def test_decorrelated_from_edge_stream(self):
        # graph and features of the same seed draw from different streams
        g = gen_er_graph(16, 0.5, 7)
        x = gen_features(16, 1, 7)
        assert x.shape == (16, 1)
        assert g.num_edges > 0


class TestRegistry:
    def test_five_rows_verbatim(self):
        rows = {(r.name, r.short_form, r.num_nodes, r.feature_length,
                 r.num_edges) for r in registry()}
        assert rows == {
            ("Cora", "CR", 2708, 1433, 5429),
            ("CiteSeer", "CS", 3327, 3703, 4732),
            ("PubMed", "PB", 19717, 500, 44438),
            ("Reddit", "RD", 232965, 602, 11606919),
            ("LiveJournal", "LJ", 4847571, 1, 68993773),
        }

    def test_short_forms_unique(self):
        forms = [r.short_form for r in registry()]
        assert len(forms) == len(set(forms))

    def test_sources(self):
        assert all(r.source == "file" for r in registry())
