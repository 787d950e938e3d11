"""Deterministic random streams based on SplitMix64.

All randomized artifacts in the package (synthetic graphs, feature tables,
weight initialization) draw from SplitMix64 so that identical seeds produce
bit-identical results on any platform. The generator state after ``i`` steps
is ``seed + i * GOLDEN (mod 2**64)``, so the stream is evaluated as a
vectorized counter-based function of the seed, block by block, bit-identical
to the sequential form kept as a test oracle in ``tests/oracles.py``.

Each block depends only on the seed and its offset, so a long stream's
blocks are split across threads, one per usable CPU. Every block is computed
the same way whichever thread takes it, and results are joined in stream
order, so the bytes do not depend on the thread count or on timing.

Uniform doubles in [0, 1) take the top 53 bits of each 64-bit output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draws computed per block: a long stream holds two uint64 buffers and the
# step table of this length, never a temporary of the whole stream. Blocks
# of 2^15-2^16 measured fastest; 2^17 and larger were slower.
_BLOCK = 1 << 16

# Most workers, the calling thread included, one stream is split across.
# Numpy releases the GIL inside each pass over a block, so blocks run in
# parallel on separate CPUs.
_MAX_WORKERS = 4

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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pin(worker: int) -> None:
    """Pin the calling pool thread to one usable CPU, picked by worker index.

    Left to the scheduler, a pool thread that lives a few milliseconds was
    seen to stay on its caller's CPU while another idled (2-vCPU VM), and
    the two workers then ran one after the other.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[worker % len(cpus)]})
    except (AttributeError, OSError):  # no affinity calls here, or refused
        pass


def top53_map(seed: int, count: int, fn) -> list:
    """``[fn(start, k), ...]`` over draws ``[0, count)`` of ``seed``'s stream.

    ``k[i]`` holds the top 53 bits (``z >> 11``) of draw ``start + i``, as
    uint64, in blocks of at most ``_BLOCK`` draws; the results come in
    stream order. Contiguous runs of blocks go to up to ``_MAX_WORKERS``
    workers, one per usable CPU: the calling thread takes the first run, and
    a per-call pool of threads, each pinned to a CPU, takes the others; one
    worker needs no pool.
    ``k`` is a view of a buffer the worker's next block overwrites, so
    ``fn`` keeps what it needs, and it must be safe to call from several
    threads at once. An exception raised by ``fn`` reaches the caller.
    """
    num_blocks = -(-count // _BLOCK)
    workers = max(1, min(_MAX_WORKERS, _usable_cpus(), num_blocks))
    block = min(_BLOCK, count)
    # Every buffer is allocated here, before any worker starts: a worker
    # that allocated its own raised the process's peak RSS.
    steps = np.arange(1, block + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    bufs = np.empty((workers, 2, block), dtype=np.uint64)

    def run(worker: int) -> list:
        if worker:  # a pool thread; the caller keeps its own affinity
            _pin(worker)
        buf, scratch = bufs[worker]
        results = []
        for b in range(num_blocks * worker // workers,
                       num_blocks * (worker + 1) // workers):
            start = b * _BLOCK
            size = min(block, count - start)
            z, t = buf[:size], scratch[:size]
            # the state after ``start`` steps, reduced as a Python int: a
            # numpy scalar product would warn on the wraparound
            np.add(steps[:size], np.uint64((seed + start * GOLDEN) & MASK64),
                   out=z)
            np.right_shift(z, _U30, out=t)
            z ^= t
            z *= _U_MIX1
            np.right_shift(z, _U27, out=t)
            z ^= t
            z *= _U_MIX2
            np.right_shift(z, _U31, out=t)
            z ^= t
            z >>= _U11
            results.append(fn(start, z))
        return results

    if workers == 1:
        runs = [run(0)]
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            rest = pool.map(run, range(1, workers))
            runs = [run(0), *rest]
    return [result for results in runs for result in results]


def uniform_array(seed: int, count: int) -> np.ndarray:
    """Vectorized stream of ``count`` uniform doubles in [0, 1).

    Bit-identical to ``count`` sequential draws from ``seed``.
    """
    out = np.empty(count, dtype=np.float64)
    # k < 2^53 converts exactly, and the power-of-two scale is exact; each
    # block writes its own slice of ``out``
    top53_map(seed, count, lambda start, k: np.multiply(
        k, 2.0**-53, out=out[start:start + len(k)]))
    return out


__all__ = ["mix_key", "top53_map", "uniform_array", "MASK64"]
