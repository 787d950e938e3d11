import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import SplitMix64, whole_array_er

from gnnbench import data, rng
from gnnbench.data import (
    _edge_list_loop,
    _features_loop,
    gen_er_graph,
    gen_features,
    load_edge_list,
    load_features,
    registry,
)
from gnnbench.errors import FormatError, ParseError
from gnnbench.rng import GOLDEN, mix_key


@functools.lru_cache(maxsize=None)
def sequential_draws(count, seed):
    stream = SplitMix64(seed)
    return tuple(stream.next_float() for _ in range(count))


def sequential_er(n, p, seed):
    """Edges by the sequential rule: pair i in row-major order is kept when
    its draw, a float, is below p."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    draws = sequential_draws(len(pairs), seed)
    return [pair for pair, draw in zip(pairs, draws) if draw < p]


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


class TestErThreshold:
    """The integer threshold keeps exactly the pairs whose float draw is
    below p, at the edges of [0, 1] and at a draw itself."""

    # 300 * 299 pairs span two blocks of the stream
    SHAPES = [(2, 11), (17, 2**64 - 1), (300, 5)]

    @staticmethod
    def edges(g):
        return list(zip(g.src.tolist(), g.dst.tolist()))

    @pytest.mark.parametrize("n,seed", SHAPES)
    @pytest.mark.parametrize("p", [0.0, 5e-324, 2.0**-53, 0.3, 1 - 2.0**-53, 1.0])
    def test_matches_sequential_rule(self, n, seed, p):
        assert self.edges(gen_er_graph(n, p, seed)) == sequential_er(n, p, seed)

    @pytest.mark.parametrize("n,seed", SHAPES)
    def test_p_equal_to_a_draw_excludes_its_pair(self, n, seed):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        i = len(pairs) * 7 // 9  # in the second block when there are two
        p = sequential_draws(len(pairs), seed)[i]
        p_above = float(np.nextafter(p, 1.0))
        at = self.edges(gen_er_graph(n, p, seed))
        above = self.edges(gen_er_graph(n, p_above, seed))
        assert pairs[i] not in at and pairs[i] in above
        assert at == sequential_er(n, p, seed)
        assert above == sequential_er(n, p_above, seed)


class TestGenFeatures:
    def test_deterministic(self):
        assert gen_features(4, 2, 1).tobytes() == gen_features(4, 2, 1).tobytes()

    def test_bounds(self):
        x = gen_features(50, 20, 9)
        assert x.min() >= -1.0 and x.max() <= 1.0

    def test_seed_sensitivity(self):
        assert gen_features(4, 2, 1).tobytes() != gen_features(4, 2, 2).tobytes()

    def test_matches_sequential_stream_across_blocks(self):
        # 300 * 300 draws span two blocks of the stream
        x = gen_features(300, 300, 4)
        u = sequential_draws(300 * 300, mix_key(4, 0x66656174))  # "feat"
        want = (2.0 * np.array(u) - 1.0).reshape(300, 300)
        assert x.tobytes() == want.tobytes()

    def test_peak_memory_is_about_the_output(self):
        # drawing the whole stream at once held four times the output
        tracemalloc.start()
        try:
            x = gen_features(4000, 500, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * x.nbytes + 4 * 2**20

    def test_decorrelated_from_edge_stream(self):
        # graph and features of the same seed draw from different streams
        g = gen_er_graph(16, 0.5, 7)
        x = gen_features(16, 1, 7)
        assert x.shape == (16, 1)
        assert g.num_edges > 0


class TestWorkerCount:
    """The generators give the same bytes, and keep their memory bounds,
    whatever number of threads the stream is split across."""

    WORKERS = range(1, rng._MAX_WORKERS + 1)
    # 0 and 2 pairs, one block, two blocks, and 573 * 572 pairs in six
    SHAPES = [(1, 3), (2, 11), (17, 2**64 - 1), (300, 5), (573, 8)]

    @pytest.fixture(params=WORKERS)
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(rng, "_usable_cpus", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("n,seed", SHAPES)
    @pytest.mark.parametrize("p", [0.0, 0.0125, 1.0])
    def test_er_matches_whole_array_formula(self, workers, n, seed, p):
        g = gen_er_graph(n, p, seed)
        src, dst = whole_array_er(n, p, seed)
        assert g.src.tobytes() == src.tobytes()
        assert g.dst.tobytes() == dst.tobytes()

    @pytest.mark.parametrize("n,seed", SHAPES[2:])
    def test_er_p_equal_to_a_late_draw(self, workers, n, seed):
        i = n * (n - 1) * 7 // 9  # past the first block when there are two or more
        p = SplitMix64(seed + i * GOLDEN).next_float()  # draw i of the stream
        g = gen_er_graph(n, p, seed)
        src, dst = whole_array_er(n, p, seed)
        assert g.src.tobytes() == src.tobytes()
        assert g.dst.tobytes() == dst.tobytes()
        above = gen_er_graph(n, float(np.nextafter(p, 1.0)), seed)
        u, pos = divmod(i, n - 1)
        pair = (u, pos + (pos >= u))
        assert pair not in set(zip(g.src.tolist(), g.dst.tolist()))
        assert pair in set(zip(above.src.tolist(), above.dst.tolist()))

    def test_er_matches_sequential_rule(self, workers):
        g = gen_er_graph(300, 0.3, 5)
        assert list(zip(g.src.tolist(), g.dst.tolist())) == sequential_er(300, 0.3, 5)

    def test_features_match_sequential_stream(self, workers):
        x = gen_features(300, 300, 4)
        u = sequential_draws(300 * 300, mix_key(4, 0x66656174))  # "feat"
        assert x.tobytes() == (2.0 * np.array(u) - 1.0).reshape(300, 300).tobytes()

    @pytest.mark.parametrize("bound", [
        TestGenErGraph.test_memory_does_not_grow_with_pair_count,
        TestGenFeatures.test_peak_memory_is_about_the_output])
    def test_memory_bounds_hold_at_the_cap(self, monkeypatch, bound):
        monkeypatch.setattr(rng, "_usable_cpus", lambda: rng._MAX_WORKERS)
        bound(None)


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


FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")

# edge cases of the grammar: the vectorized pass parses some itself (+5,
# 007, \x0b, -1, 3-token rows, nan) and must then apply the loop's rules;
# the others (1_000, full-width digits, #, \x1c in a CSV cell, empty cells,
# whitespace-only CSV lines) it must hand to the loop
TOKEN_MUTATIONS = [
    lambda t: "+" + t,
    lambda t: "00" + t,
    lambda t: "\x0b" + t,
    lambda t: t + "\x1c",
    lambda t: "-1",
    lambda t: str(2**63 - 1),
    lambda t: str(2**63),
    lambda t: "1_000",
    lambda t: t[:1] + "_" + t[1:],
    lambda t: t.translate(FULL_WIDTH),
    lambda t: "#" + t,
]
LINE_MUTATIONS = [
    lambda line: ["", line],
    lambda line: [" \t ", line],
    lambda line: ["# comment", line],
    lambda line: ["#" + line],
    lambda line: [line + " # note"],
]
EDGE_MUTATIONS = [
    lambda line: [line.split(" ")[0]],
    lambda line: [line + " 0"],
    lambda line: [line, "%nodes 9"],
]
CSV_TOKEN_MUTATIONS = [
    lambda t: "",
    lambda t: "nan",
    lambda t: "inf",
    lambda t: "-inf",
    lambda t: "1e400",
]


def outcome(load, *args):
    """What a loader gives, with warnings as errors: the array bytes and
    node count, or the error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = load(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, np.ndarray):
        return out.dtype, out.shape, out.flags.c_contiguous, out.tobytes()
    return (out.num_nodes, out.src.tobytes(), out.dst.tobytes(),
            out.weights.tobytes(), out.src.flags.c_contiguous,
            out.dst.flags.c_contiguous)


@st.composite
def mutated_lines(draw, lines, sep, token_mutations, line_mutations):
    """``lines`` with up to three mutations, joined by mixed line ends."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            tokens = lines[i].split(sep)
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(token_mutations))(tokens[j])
            lines[i] = sep.join(tokens)
        else:
            lines[i:i + 1] = draw(st.sampled_from(line_mutations))(lines[i])
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=1, max_size=8))
    lines = [f"{u} {v}" for u, v in pairs]
    declared = draw(st.one_of(st.none(), st.integers(max(0, n - 2), n + 2)))
    mutated = draw(mutated_lines(lines, " ", TOKEN_MUTATIONS,
                                 LINE_MUTATIONS + EDGE_MUTATIONS))
    return mutated if declared is None else f"%nodes {declared}\n{mutated}"


@st.composite
def feature_texts(draw):
    rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 4))
    cell = st.floats(allow_nan=False, allow_infinity=False).map(
        draw(st.sampled_from([repr, "%.17g".__mod__])))
    lines = [",".join(draw(st.lists(cell, min_size=width, max_size=width)))
             for _ in range(rows)]
    mutated = draw(mutated_lines(lines, ",", TOKEN_MUTATIONS + CSV_TOKEN_MUTATIONS,
                                 LINE_MUTATIONS))
    return mutated, rows + draw(st.sampled_from([0, 0, 0, 1, -1]))


def write_perfbench_files(tmp_path, seed=3, n=500, e=5000, f=32):
    """An edge list and a feature CSV written the way perfbench writes them."""
    pairs = np.random.default_rng(seed).integers(0, n, size=(e, 2))
    edges, features = tmp_path / "g.edges", tmp_path / "x.csv"
    with open(edges, "w", encoding="utf-8") as fh:
        fh.write(f"%nodes {n}\n")
        np.savetxt(fh, pairs, fmt="%d")
    np.savetxt(features, gen_features(n, f, seed), fmt="%.17g", delimiter=",")
    return edges, features


class TestVectorizedLoaders:
    """The loaders try one loadtxt pass and fall back to the line loop; on
    every file they give what the loop alone gives, bytes or error."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=edge_list_texts())
    @example(text="0 -1\n")
    @example(text="0 1 0\n")
    @example(text="%nodes 2\n0 2\n")
    @example(text="0 1 # note\n")
    def test_edge_list_agrees_with_loop(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_edge_list, path) == outcome(_edge_list_loop, path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=feature_texts())
    @example(case=("1.5\x1c,2\n", 1))
    @example(case=("1,nan\n", 1))
    @example(case=("1,2\n", 2))
    def test_features_agree_with_loop(self, tmp_path, case):
        text, expected_nodes = case
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode("utf-8"))
        assert (outcome(load_features, path, expected_nodes)
                == outcome(_features_loop, path, expected_nodes))

    @pytest.mark.parametrize("text", ["", "\n\n", " \t\n", "# only\n# comments\n",
                                      "%nodes 4\n", "%nodes 4\n# none\n\n"])
    def test_files_without_data(self, tmp_path, text):
        path = tmp_path / "empty"
        path.write_text(text)
        assert outcome(load_edge_list, path) == outcome(_edge_list_loop, path)
        for n in (0, 1):
            assert (outcome(load_features, path, n)
                    == outcome(_features_loop, path, n))

    @pytest.mark.parametrize("raw", [b"0 1\n\xff 2\n", b"%nodes \xc3\n0 1\n",
                                     b"1,2\n3,\xa0\n"])
    def test_non_utf8_names_the_file(self, tmp_path, raw):
        path = tmp_path / "bad"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match="bad: not UTF-8 text"):
            load_edge_list(path)
        with pytest.raises(ParseError, match="bad: not UTF-8 text"):
            load_features(path, 2)

    def test_perfbench_shaped_files_need_no_loop(self, tmp_path, monkeypatch):
        # a fast path that quietly fell back on every call would pass the
        # agreement tests and lose the whole gain
        edges, features = write_perfbench_files(tmp_path)
        want_g = outcome(_edge_list_loop, edges)
        want_x = outcome(_features_loop, features, 500)

        def no_loop(*args):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(data, "_edge_list_loop", no_loop)
        monkeypatch.setattr(data, "_features_loop", no_loop)
        assert outcome(load_edge_list, edges) == want_g
        assert outcome(load_features, features, 500) == want_x

    def test_feature_peak_memory_is_about_the_output(self, tmp_path):
        # the line loop peaked at about 5.4 times the matrix
        _, features = write_perfbench_files(tmp_path)
        tracemalloc.start()
        try:
            x = load_features(features, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes


class TestNodesDirective:
    """One helper parses ``%nodes`` for the vectorized pass and the loop."""

    @pytest.mark.parametrize("text,nodes", [
        ("%nodes 007\n0 1\n", 7),
        ("%nodes 5   \n0 1\n", 5),
        ("  %nodes\t5\n0 1\n", 5),
        ("%nodes 5\r\n0 1\r\n", 5),
    ])
    def test_accepted(self, tmp_path, text, nodes):
        path = tmp_path / "g.edges"
        path.write_bytes(text.encode())
        assert load_edge_list(path).num_nodes == nodes
        assert outcome(load_edge_list, path) == outcome(_edge_list_loop, path)

    @pytest.mark.parametrize("text,message", [
        ("%nodes -1\n0 1\n", ":1: node count must be >= 0"),
        ("%nodes\n0 1\n", ":1: unknown directive '%nodes'"),
        ("%NODES 5\n0 1\n", ":1: unknown directive '%NODES 5'"),
        ("%nodes five\n0 1\n", ":1: invalid node count 'five'"),
        ("%nodes 5 6\n0 1\n", ":1: unknown directive '%nodes 5 6'"),
    ])
    def test_rejected(self, tmp_path, text, message):
        path = tmp_path / "g.edges"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as info:
            load_edge_list(path)
        assert str(info.value) == f"{path}{message}"
        assert outcome(load_edge_list, path) == outcome(_edge_list_loop, path)
