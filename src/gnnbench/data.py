"""Dataset loading, synthetic generation, and the dataset registry.

File formats (normative, bit-exact for round trips):

- Edge list: UTF-8 text, one edge per line as ``src dst`` with 0-based
  decimal indices separated by ASCII whitespace. Lines starting with ``#``
  are comments; blank lines are ignored. An optional first-line directive
  ``%nodes N`` fixes the node count (otherwise it is inferred as
  1 + max index, which would silently drop trailing isolated nodes).
  Line order is preserved as edge order; all weights are 1.0.
- Features: header-less CSV, row i holds the feature vector of node i,
  decimal floating-point cells, rectangular, all values finite.

Each loader first tries one vectorized pass and keeps its result only for
plain files, as ``%d`` and ``%.17g`` write them. An edge list is plain when,
after an optional ``%nodes`` line, its bytes are lines of 1-18 ASCII digits,
one space and 1-18 digits, each ending in a newline (the last may not),
with the indices in range; one ``np.fromstring`` parses it. A feature CSV is
plain when one ``np.loadtxt`` pass reads rectangular rows of finite values,
one per node. Every other file goes to the line loop (``_edge_list_loop``,
``_features_loop``), which owns the grammar: it still accepts ``1_000``,
full-width digits, ``#`` comment lines, whitespace-only lines, tabs and
CRLF line ends, and it raises every error, with its line number. Where both
accept a file they give the same bytes.

The registry carries the metadata of the five reference datasets. The files
themselves are not bundled (size and licensing); the loaders accept local
copies in the formats above, and the synthetic generator covers desk-scale
runs. Feature length 1 appears in the registry (LiveJournal), so every
kernel must handle single-column features without special-casing.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CapacityError, FormatError, ParseError
from .graph import CooGraph
from .rng import draws_below, mix_key, uniform_array

__all__ = [
    "DatasetRecord",
    "registry",
    "load_edge_list",
    "load_features",
    "gen_er_graph",
    "gen_features",
    "MAX_ER_PAIRS",
    "check_draw_count",
]

# Stream key context for feature generation, decorrelating it from the
# edge stream of the same seed.
_FEATURES_ROLE = 0x66656174  # "feat"

# Most ordered pairs, and most feature values, the generators draw (see
# check_draw_count): gen_er_graph's time is O(n^2) whatever p is, about
# 2-3 ns per pair on two threads, so 2^30 pairs (n = 32768, p = 0.001) took
# 2.2-2.5 s on a 2-vCPU Intel Xeon with numpy 2.4 (3.7-3.8 s on one).
MAX_ER_PAIRS = 1 << 30

# The ASCII separators 0x1c-0x1f: loadtxt strips them around a number like
# whitespace, float() rejects them.
_FLOAT_REJECTS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


@dataclass(frozen=True)
class DatasetRecord:
    name: str
    short_form: str
    num_nodes: int
    feature_length: int
    num_edges: int
    source: str  # "file" or "synthetic"

    def summary(self) -> dict:
        return asdict(self)


_REGISTRY = (
    DatasetRecord("Cora", "CR", 2708, 1433, 5429, "file"),
    DatasetRecord("CiteSeer", "CS", 3327, 3703, 4732, "file"),
    DatasetRecord("PubMed", "PB", 19717, 500, 44438, "file"),
    DatasetRecord("Reddit", "RD", 232965, 602, 11606919, "file"),
    DatasetRecord("LiveJournal", "LJ", 4847571, 1, 68993773, "file"),
)


def registry() -> list:
    """The five reference dataset records."""
    return list(_REGISTRY)


@contextlib.contextmanager
def _utf8_text(path):
    """The file opened as UTF-8 text; a byte that is not UTF-8 raises ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason} "
                             f"0x{exc.object[exc.start]:02x}") from None


def _nodes_directive(path, line) -> int:
    """The node count of a stripped line-1 ``%nodes N`` directive."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != "%nodes":
        raise ParseError(f"{path}:1: unknown directive {line!r}")
    try:
        declared_nodes = int(parts[1])
    except ValueError:
        raise ParseError(f"{path}:1: invalid node count {parts[1]!r}") from None
    if declared_nodes < 0:
        raise ParseError(f"{path}:1: node count must be >= 0")
    return declared_nodes


def load_edge_list(path) -> CooGraph:
    """Parse an edge-list file into a graph (unit edge weights)."""
    g = _edge_list_vectorized(path)
    return _edge_list_loop(path) if g is None else g


def _edge_list_vectorized(path):
    """The graph when the file is plain ``src dst`` lines after an optional
    ``%nodes`` line (``_plain_pairs``; the last newline may be missing),
    else None. The loop reads such lines as the same decimal pairs, and 18
    digits stay below 2^63, so one ``np.fromstring`` pass parses them."""
    with open(path, "rb") as fh:
        first = fh.readline().rstrip()
        if first.lstrip().startswith(b"%"):
            # a "\r" inside the line would end it in the loop's text mode
            if b"\r" in first:
                return None
            try:
                declared_nodes = _nodes_directive(path, first.decode("utf-8").strip())
            except ValueError:  # ParseError or UnicodeDecodeError
                return None
        else:
            declared_nodes = None
            fh.seek(0)
        body = fh.read()
    if not body:
        return None
    if not body.endswith(b"\n"):
        body += b"\n"
    if not _plain_pairs(body):
        return None
    pairs = np.fromstring(body, dtype=np.int64, sep=" ")
    top = int(pairs.max())
    if declared_nodes is not None and top >= declared_nodes:
        return None
    src, dst = pairs.reshape(-1, 2).T.copy()
    return CooGraph(top + 1 if declared_nodes is None else declared_nodes,
                    src, dst)


def _plain_pairs(body: bytes) -> bool:
    """Whether ``body`` is lines of 1-18 ASCII digits, one space and 1-18
    digits, each ending in a newline. Its index arrays are freed on return,
    before the parse allocates its own."""
    chars = np.frombuffer(body, dtype=np.uint8)
    # the bytes that are not digits must run " ", "\n", " ", ..., "\n", so
    # a plain body has at least two before gaps.min() is reached, and each
    # must end a run of 1-18 digits
    seps = np.flatnonzero(chars - ord("0") > 9)
    kinds = chars[seps]
    gaps = np.diff(seps)
    return bool((kinds[0::2] == ord(" ")).all()
                and (kinds[1::2] == ord("\n")).all()
                and 1 <= seps[0] <= 18 and gaps.min() >= 2 and gaps.max() <= 19)


def _edge_list_loop(path) -> CooGraph:
    """The line-by-line parser: the whole grammar and every error it raises."""
    src: list = []
    dst: list = []
    declared_nodes = None
    with _utf8_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("%"):
                if lineno != 1:
                    raise ParseError(
                        f"{path}:{lineno}: directives are only allowed on line 1"
                    )
                declared_nodes = _nodes_directive(path, line)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(
                    f"{path}:{lineno}: expected 'src dst', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: non-integer node index in {line!r}"
                ) from None
            if not (0 <= u < 2**63 and 0 <= v < 2**63):  # int64 node ids
                raise ParseError(
                    f"{path}:{lineno}: node index outside [0, 2^63) in {line!r}"
                )
            if declared_nodes is not None and (u >= declared_nodes
                                               or v >= declared_nodes):
                raise ParseError(
                    f"{path}:{lineno}: index {max(u, v)} exceeds declared "
                    f"node count {declared_nodes}"
                )
            src.append(u)
            dst.append(v)
    if declared_nodes is not None:
        num_nodes = declared_nodes
    else:
        num_nodes = 1 + max(max(src), max(dst)) if src else 0
    return CooGraph(num_nodes, np.array(src, dtype=np.int64),
                    np.array(dst, dtype=np.int64))


def load_features(path, expected_nodes: int) -> np.ndarray:
    """Parse a header-less CSV of node features into an [n x f] matrix."""
    x = _features_vectorized(path, expected_nodes)
    return _features_loop(path, expected_nodes) if x is None else x


def _features_vectorized(path, expected_nodes: int):
    """The matrix when one loadtxt pass meets every rule of the loop, else None.

    ``comments=None``: loadtxt would cut a line at a ``#``, which the
    feature grammar does not take as a comment. A file with no data makes
    loadtxt warn, and a byte that is not UTF-8 raises ``UnicodeDecodeError``
    (a ``ValueError``); both go to the loop too. loadtxt reads the open
    handle, not the path: given a path, numpy would decompress a ``.gz`` or
    ``.bz2`` file that the loop rejects.
    """
    with open(path, "rb") as fh:
        if any(sep in chunk for chunk in iter(lambda: fh.read(1 << 16), b"")
               for sep in _FLOAT_REJECTS):
            return None
    with _utf8_text(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            x = np.loadtxt(fh, dtype=np.float64, delimiter=",",
                           comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    if len(x) != expected_nodes or not np.isfinite(x).all():
        return None
    return x


def _features_loop(path, expected_nodes: int) -> np.ndarray:
    """The line-by-line parser: the whole grammar and every error it raises."""
    rows: list = []
    width = None
    with _utf8_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if line.strip() == "":
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(
                    f"{path}:{lineno}: ragged row ({len(cells)} cells, "
                    f"expected {width})"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: non-numeric cell in {line!r}"
                ) from None
    if len(rows) != expected_nodes:
        raise FormatError(
            f"{path}: {len(rows)} feature rows for {expected_nodes} nodes"
        )
    x = np.array(rows, dtype=np.float64)
    if x.size == 0:
        x = x.reshape(expected_nodes, 0)
    if not np.isfinite(x).all():
        raise FormatError(f"{path}: non-finite feature value")
    return x


def check_draw_count(n: int, f: int | None = None) -> None:
    """Raise CapacityError when a generator would draw more than
    ``MAX_ER_PAIRS`` values: ``gen_er_graph`` the n * (n - 1) node pairs
    of ``n`` nodes, or, with ``f`` given, ``gen_features`` the n * f values
    of an n x f feature table."""
    count = n * (n - 1) if f is None else n * f
    if count > MAX_ER_PAIRS:
        what = (f"er:{n} has {count} node pairs" if f is None else
                f"er:{n} with {f} features has {count} feature values")
        raise CapacityError(
            f"{what} to draw, above the generator's cap of {MAX_ER_PAIRS}")


def gen_er_graph(n: int, p: float, seed: int) -> CooGraph:
    """Directed Erdos-Renyi graph, deterministic in (n, p, seed).

    Every ordered pair (u, v) with u != v gets exactly one SplitMix64 draw,
    taken in row-major pair order; the edge is included when draw < p.
    """
    if n < 0:
        raise ValueError("node count must be >= 0")
    check_draw_count(n)
    src, pos = np.divmod(draws_below(seed, n * (n - 1), p), n - 1)
    dst = pos + (pos >= src)  # skip the diagonal within each row
    return CooGraph(n, src, dst)


def gen_features(n: int, f: int, seed: int) -> np.ndarray:
    """Feature matrix with entries uniform in [-1, 1]; deterministic."""
    if n < 1 or f < 1:
        raise ValueError("feature matrix dimensions must be >= 1")
    check_draw_count(n, f)
    x = uniform_array(mix_key(seed, _FEATURES_ROLE), n * f)
    x *= 2.0  # in place: the matrix is the only n * f array held
    x -= 1.0
    return x.reshape(n, f)
