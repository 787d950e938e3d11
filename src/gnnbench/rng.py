"""Deterministic random streams based on SplitMix64.

All randomized artifacts in the package (synthetic graphs, feature tables,
weight initialization) draw from SplitMix64 so that identical seeds produce
bit-identical results on any platform. The generator state after ``i`` steps
is ``seed + i * GOLDEN (mod 2**64)``, so the stream is evaluated as a
vectorized counter-based function of the seed, block by block, bit-identical
to the sequential form kept as a test oracle in ``tests/oracles.py``.

Uniform doubles in [0, 1) take the top 53 bits of each 64-bit output.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draws computed per block: a long stream holds two uint64 buffers and the
# step table of this length, never a temporary of the whole stream. Blocks
# of 2^15-2^16 measured fastest; 2^17 and larger were slower.
_BLOCK = 1 << 16

_U_MIX1, _U_MIX2 = np.uint64(_MIX1), np.uint64(_MIX2)
_U30, _U27, _U31, _U11 = (np.uint64(s) for s in (30, 27, 31, 11))


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


def top53_blocks(seed: int, count: int):
    """Yield ``(start, k)`` for draws ``[0, count)`` of ``seed``'s stream.

    ``k[i]`` holds the top 53 bits (``z >> 11``) of draw ``start + i``, as
    uint64, in blocks of at most ``_BLOCK`` draws taken in stream order.
    ``k`` is a view of a buffer the next block overwrites, so a caller
    keeps what it needs before asking for the next one.
    """
    block = min(_BLOCK, count)
    steps = np.arange(1, block + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    buf = np.empty(block, dtype=np.uint64)
    scratch = np.empty(block, dtype=np.uint64)
    for start in range(0, count, _BLOCK):
        size = min(block, count - start)
        z, t = buf[:size], scratch[:size]
        # the state after ``start`` steps, reduced as a Python int: a numpy
        # scalar product would warn on the wraparound
        np.add(steps[:size], np.uint64((seed + start * GOLDEN) & MASK64), out=z)
        np.right_shift(z, _U30, out=t)
        z ^= t
        z *= _U_MIX1
        np.right_shift(z, _U27, out=t)
        z ^= t
        z *= _U_MIX2
        np.right_shift(z, _U31, out=t)
        z ^= t
        z >>= _U11
        yield start, z


def uniform_array(seed: int, count: int) -> np.ndarray:
    """Vectorized stream of ``count`` uniform doubles in [0, 1).

    Bit-identical to ``count`` sequential draws from ``seed``.
    """
    out = np.empty(count, dtype=np.float64)
    for start, k in top53_blocks(seed, count):
        # k < 2^53 converts exactly, and the power-of-two scale is exact
        np.multiply(k, 2.0**-53, out=out[start:start + len(k)])
    return out


__all__ = ["mix_key", "top53_blocks", "uniform_array", "MASK64"]
