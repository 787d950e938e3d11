"""Deterministic random streams based on SplitMix64.

All randomized artifacts in the package (synthetic graphs, feature tables,
weight initialization) draw from SplitMix64 so that identical seeds produce
bit-identical results on any platform. The generator state after ``i`` steps
is ``seed + i * GOLDEN (mod 2**64)``, so the stream is evaluated as a
vectorized counter-based function of the seed, block by block, bit-identical
to the sequential form kept as a test oracle in ``tests/oracles.py``.

Each block depends only on the seed and its offset, so a long stream's
blocks are split across threads, one per usable CPU, when each thread gets
enough blocks to repay starting it. Every block is computed the same way
whichever thread takes it, and results are joined in stream order, so the
bytes do not depend on the thread count or on timing.

One driver, ``_map_runs``, computes every block up to the state before
SplitMix64's last xor-shift, and each of the two draw kinds finishes it its
own way. :func:`uniform_array` finishes every draw and scales its top 53
bits to a double in [0, 1). :func:`draws_below` wants only the positions of
the draws below p: the last xor-shift leaves a state's top 31 bits as they
are, so it first keeps the states whose top 31 bits can still be below p (a
prefilter; at p = 0.0125 about 1.25% of the draws) and finishes only those.
Each worker finishes its candidates in batches of up to one block, not
block by block: with two workers every numpy call per block is one more
handoff of the GIL.
"""

from __future__ import annotations

import math
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

# Fewest blocks each worker takes before a stream is split: on a shorter
# stream the pool costs more than a second worker saves. Two workers against
# one, lowest of 100 calls on a 2-vCPU Intel Xeon with numpy 2.4: the er:
# candidate pass took 0.64-0.67 vs 0.42-0.44 ms at 2 blocks, 0.92-0.97 vs
# 0.86-0.87 ms at 4, 1.16-1.22 vs 1.15-1.25 ms at 6 and 1.41-1.52 vs
# 1.49-1.65 ms at 8; uniform doubles broke even at 4 blocks and gained from
# 6 (1.19-1.22 vs 1.40-1.62 ms).
_MIN_RUN = 3

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


def _finish(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """SplitMix64's last xor-shift and the cut to the top 53 bits, in place
    on states ``z`` that stopped before it; ``t`` is uint64 scratch of the
    same length. Returns ``z``."""
    np.right_shift(z, _U31, out=t)
    z ^= t
    z >>= _U11
    return z


def _map_runs(seed: int, count: int, run) -> list:
    """``[run(blocks, scratch), ...]``, one per worker, in stream order.

    The one block driver: :func:`uniform_array` and :func:`draws_below` are
    its two callers, each passing a ``run`` that finishes the blocks as its
    draw kind needs. Draws ``[0, count)`` of ``seed``'s stream are cut into
    blocks of at most ``_BLOCK``, and contiguous runs of blocks go to up to
    ``_MAX_WORKERS`` workers, one per usable CPU and each with at least
    ``_MIN_RUN`` blocks: the calling thread takes the first run, and a
    per-call pool of threads, each pinned to a CPU, takes the others; one
    worker needs no pool. ``blocks`` yields ``(start, z)`` for each block of
    the worker's run: ``z[i]`` is draw ``start + i``'s state before
    SplitMix64's last xor-shift (:func:`_finish` completes it), a uint64
    view of a buffer the next block overwrites. ``scratch`` is the worker's
    own uint64 buffer of one block's length. ``run`` must be safe to call
    from several threads at once; an exception it raises reaches the caller.
    """
    num_blocks = -(-count // _BLOCK)
    workers = max(1, min(_MAX_WORKERS, _usable_cpus(), num_blocks // _MIN_RUN))
    block = min(_BLOCK, count)
    # Every buffer is allocated here, before any worker starts: a worker
    # that allocated its own raised the process's peak RSS.
    steps = np.arange(1, block + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    bufs = np.empty((workers, 2, block), dtype=np.uint64)

    def work(worker: int):
        if worker:  # a pool thread; the caller keeps its own affinity
            _pin(worker)
        buf, scratch = bufs[worker]

        def blocks():
            for b in range(num_blocks * worker // workers,
                           num_blocks * (worker + 1) // workers):
                start = b * _BLOCK
                size = min(block, count - start)
                z, t = buf[:size], scratch[:size]
                # the state after ``start`` steps, reduced as a Python int: a
                # numpy scalar product would warn on the wraparound
                np.add(steps[:size],
                       np.uint64((seed + start * GOLDEN) & MASK64), out=z)
                np.right_shift(z, _U30, out=t)
                z ^= t
                z *= _U_MIX1
                np.right_shift(z, _U27, out=t)
                z ^= t
                z *= _U_MIX2
                yield start, z

        return run(blocks(), scratch)

    if workers == 1:
        return [work(0)]
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = pool.map(work, range(1, workers))
        return [work(0), *rest]


def draws_below(seed: int, count: int, p: float) -> np.ndarray:
    """Ascending int64 positions of the draws in ``[0, count)`` of
    ``seed``'s stream that are below ``p``, as :func:`uniform_array` gives
    the draws.

    The last xor-shift moves bits only down, by 31, so a state before it
    has the draw's top 31 bits, and a draw below ``p`` has that state at
    most ``bound``. Each block keeps only those candidates, about
    ``p + 2^-31`` of its draws, and each worker finishes them in batches of
    at most one block: finishing inside each block measured no faster, for
    the GIL handoffs its extra numpy calls cost.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    # A draw is k * 2^-53 for its top 53 bits k, and k * 2^-53 < p exactly
    # when k < ceil(p * 2^53); both sides are exact, so the integer test
    # keeps the same draws as comparing the float draw with p.
    threshold = math.ceil(p * 2.0**53)
    if threshold == 0 or count == 0:  # nothing to keep; no bound for 0
        return np.zeros(0, dtype=np.int64)
    # 2^64 - 1 when p is 1, so every draw is a candidate
    bound = np.uint64(((((threshold - 1) >> 22) + 1) << 33) - 1)
    below = np.uint64(threshold)

    def run(blocks, scratch):
        kept, states, positions = [], [], []
        pending = 0

        def finish():
            z = np.concatenate(states)
            keep = _finish(z, scratch[:len(z)]) < below
            kept.append(np.concatenate(positions)[keep])
            states.clear()
            positions.clear()

        for start, z in blocks:
            i = np.flatnonzero(z <= bound)
            if pending + len(i) > len(scratch):
                finish()
                pending = 0
            states.append(z[i])
            i += start
            positions.append(i)
            pending += len(i)
        finish()
        return kept

    return np.concatenate([k for kept in _map_runs(seed, count, run)
                           for k in kept])


def uniform_array(seed: int, count: int) -> np.ndarray:
    """Vectorized stream of ``count`` uniform doubles in [0, 1).

    Bit-identical to ``count`` sequential draws from ``seed``.
    """
    out = np.empty(count, dtype=np.float64)

    def run(blocks, scratch):
        # the top 53 bits k < 2^53 convert exactly, and the power-of-two
        # scale is exact; each block writes its own slice of ``out``
        for start, z in blocks:
            np.multiply(_finish(z, scratch[:len(z)]), 2.0**-53,
                        out=out[start:start + len(z)])

    _map_runs(seed, count, run)
    return out


__all__ = ["mix_key", "uniform_array", "draws_below", "MASK64"]
