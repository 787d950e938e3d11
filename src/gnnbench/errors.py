"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems exit 3, internal consistency violations exit 4.
"""


class FormatError(ValueError):
    """A graph, matrix, or input file violates a structural invariant."""


class ParseError(FormatError):
    """An input file could not be parsed; the message names the line."""


class CapacityError(FormatError):
    """An input is too large to materialize: a dense matrix past the node
    limit, or a synthetic dataset past the generators' draw cap."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested kernel."""


class IndexRangeError(IndexError):
    """A gather/scatter index is outside the valid range."""


class NormalizationError(ValueError):
    """GCN normalization met an edge whose normalized weight is out of range."""


class ConfigError(ValueError):
    """Invalid CLI flag, config-file entry, or parameter combination."""


class ConsistencyError(RuntimeError):
    """A determinism or equivalence audit failed at run time."""


__all__ = [
    "FormatError",
    "ParseError",
    "CapacityError",
    "ShapeError",
    "IndexRangeError",
    "NormalizationError",
    "ConfigError",
    "ConsistencyError",
]
