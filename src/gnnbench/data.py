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

The registry carries the metadata of the five reference datasets. The files
themselves are not bundled (size and licensing); the loaders accept local
copies in the formats above, and the synthetic generator covers desk-scale
runs. Feature length 1 appears in the registry (LiveJournal), so every
kernel must handle single-column features without special-casing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParseError
from .graph import CooGraph
from .rng import GOLDEN, MASK64, mix_key, uniform_array

__all__ = [
    "DatasetRecord",
    "registry",
    "load_edge_list",
    "load_features",
    "gen_er_graph",
    "gen_features",
    "MAX_ER_PAIRS",
]

# Stream key context for feature generation, decorrelating it from the
# edge stream of the same seed.
_FEATURES_ROLE = 0x66656174  # "feat"

# Ordered pairs drawn per block by the Erdos-Renyi generator.
_ER_BLOCK = 1 << 16

# Most ordered pairs an er: dataset spec may ask the generator to draw: its
# time is O(n^2) whatever p is, and 2^30 pairs (n = 32768) take minutes.
MAX_ER_PAIRS = 1 << 30


@dataclass(frozen=True)
class DatasetRecord:
    name: str
    short_form: str
    num_nodes: int
    feature_length: int
    num_edges: int
    source: str  # "file" or "synthetic"

    def summary(self) -> dict:
        return {
            "name": self.name,
            "short_form": self.short_form,
            "num_nodes": self.num_nodes,
            "feature_length": self.feature_length,
            "num_edges": self.num_edges,
            "source": self.source,
        }


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


def load_edge_list(path) -> CooGraph:
    """Parse an edge-list file into a graph (unit edge weights)."""
    src: list = []
    dst: list = []
    declared_nodes = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("%"):
                if lineno != 1:
                    raise ParseError(
                        f"{path}:{lineno}: directives are only allowed on line 1"
                    )
                parts = line.split()
                if len(parts) != 2 or parts[0] != "%nodes":
                    raise ParseError(f"{path}:{lineno}: unknown directive {line!r}")
                try:
                    declared_nodes = int(parts[1])
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: invalid node count {parts[1]!r}"
                    ) from None
                if declared_nodes < 0:
                    raise ParseError(f"{path}:{lineno}: node count must be >= 0")
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
            if u < 0 or v < 0:
                raise ParseError(f"{path}:{lineno}: negative node index")
            if declared_nodes is not None and max(u, v) >= declared_nodes:
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
                    np.array(dst, dtype=np.int64),
                    np.ones(len(src), dtype=np.float64))


def load_features(path, expected_nodes: int) -> np.ndarray:
    """Parse a header-less CSV of node features into an [n x f] matrix."""
    rows: list = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
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


def gen_er_graph(n: int, p: float, seed: int) -> CooGraph:
    """Directed Erdos-Renyi graph, deterministic in (n, p, seed).

    Every ordered pair (u, v) with u != v gets exactly one SplitMix64 draw,
    taken in row-major pair order; the edge is included when draw < p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n < 0:
        raise ValueError("node count must be >= 0")
    num_pairs = n * (n - 1) if n > 1 else 0
    if num_pairs == 0:
        return CooGraph(n, np.zeros(0, np.int64), np.zeros(0, np.int64),
                        np.zeros(0, np.float64))
    # The stream is counter-based, so a block starting at pair ``start`` is
    # the stream keyed on the state after ``start`` steps; working block by
    # block bounds memory without changing a single draw.
    kept = []
    for start in range(0, num_pairs, _ER_BLOCK):
        count = min(_ER_BLOCK, num_pairs - start)
        draws = uniform_array((seed + start * GOLDEN) & MASK64, count)
        kept.append(np.flatnonzero(draws < p) + start)
    src, pos = np.divmod(np.concatenate(kept), n - 1)
    dst = pos + (pos >= src)  # skip the diagonal within each row
    return CooGraph(n, src, dst, np.ones(len(src), dtype=np.float64))


def gen_features(n: int, f: int, seed: int) -> np.ndarray:
    """Feature matrix with entries uniform in [-1, 1]; deterministic."""
    if n < 1 or f < 1:
        raise ValueError("feature matrix dimensions must be >= 1")
    u = uniform_array(mix_key(seed, _FEATURES_ROLE), n * f)
    return (2.0 * u - 1.0).reshape(n, f)
