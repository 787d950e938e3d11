"""Deterministic random streams based on SplitMix64.

All randomized artifacts in the package (synthetic graphs, feature tables,
weight initialization) draw from SplitMix64 so that identical seeds produce
bit-identical results on any platform. The generator state after ``i`` steps
is ``seed + i * GOLDEN (mod 2**64)``, so the whole stream is evaluated as a
vectorized counter-based function of the seed, bit-identical to the
sequential form kept as a test oracle in ``tests/oracles.py``.

Uniform doubles in [0, 1) take the top 53 bits of each 64-bit output.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _scramble(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def mix_key(seed: int, *fields: int) -> int:
    """Derive a 64-bit stream key from a seed and integer context fields.

    Each field is xor-folded into the running key and scrambled, so streams
    keyed by different (layer, role, ...) tuples are decorrelated.
    """
    key = seed & MASK64
    for field in fields:
        key = _scramble((key ^ (field & MASK64) ^ GOLDEN) & MASK64)
    return key


def uniform_array(seed: int, count: int) -> np.ndarray:
    """Vectorized stream of ``count`` uniform doubles in [0, 1).

    Bit-identical to ``count`` sequential draws from ``seed``.
    """
    if count == 0:
        return np.zeros(0, dtype=np.float64)
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + steps * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


__all__ = ["mix_key", "uniform_array", "MASK64", "GOLDEN"]
