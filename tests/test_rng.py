import functools
import os
import threading

import numpy as np
import pytest

from oracles import SplitMix64

from gnnbench import rng
from gnnbench.rng import top53_map, uniform_array

B = rng._BLOCK
WORKERS = range(1, rng._MAX_WORKERS + 1)


@functools.lru_cache(maxsize=None)
def sequential_floats(seed, count):
    stream = SplitMix64(seed)
    return np.array([stream.next_float() for _ in range(count)], dtype=np.float64)


def test_oracle_matches_published_outputs():
    stream = SplitMix64(0)
    assert [stream.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_uniform_array_is_the_sequential_stream(seed, count):
    got = uniform_array(seed, count)
    assert got.dtype == np.float64
    assert got.tobytes() == sequential_floats(seed, count).tobytes()


class TestWorkers:
    """Splitting the stream across threads never changes what it yields."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(n):
            monkeypatch.setattr(rng, "_usable_cpus", lambda: n)
        return set_cpus

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 5 * B + 7])
    def test_bytes_do_not_depend_on_the_worker_count(self, cpus, workers, count):
        cpus(workers)
        got = uniform_array(2**64 - 1, count)
        assert got.tobytes() == sequential_floats(2**64 - 1, count).tobytes()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_results_come_in_stream_order(self, cpus, workers):
        cpus(workers)
        starts = top53_map(3, 5 * B + 7, lambda start, k: (start, len(k)))
        assert starts == [(i * B, B) for i in range(5)] + [(5 * B, 7)]

    @pytest.mark.parametrize("cpus_usable,count", [(1, 5 * B + 7), (4, B), (4, 1)])
    def test_one_worker_runs_inline(self, cpus, cpus_usable, count):
        cpus(cpus_usable)
        before = threading.active_count()
        threads = top53_map(1, count, lambda start, k: (
            threading.current_thread(), threading.active_count()))
        assert set(threads) == {(threading.current_thread(), before)}

    def test_the_caller_takes_the_first_run_and_threads_the_rest(self, cpus):
        cpus(rng._MAX_WORKERS)
        threads = top53_map(1, 5 * B + 7, lambda start, k: threading.current_thread())
        # six blocks over four workers: runs of 1, 2, 1 and 2 blocks
        assert threads[0] is threading.current_thread()
        assert threading.current_thread() not in threads[1:]

    def test_no_thread_outlives_a_call(self, cpus):
        cpus(rng._MAX_WORKERS)
        before = threading.active_count()
        top53_map(1, 5 * B + 7, lambda start, k: None)
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no affinity calls on this platform")
    def test_pool_threads_are_pinned_and_the_caller_is_not(self, cpus):
        cpus(rng._MAX_WORKERS)
        usable = os.sched_getaffinity(0)
        pinned = top53_map(1, 5 * B + 7, lambda start, k: os.sched_getaffinity(0))
        assert pinned[0] == usable
        assert all(len(p) == 1 and p <= usable for p in pinned[1:])
        assert os.sched_getaffinity(0) == usable

    def test_a_refused_pin_changes_nothing(self, cpus, monkeypatch):
        def refuse(pid, mask):
            raise PermissionError("affinity refused")
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        cpus(rng._MAX_WORKERS)
        got = uniform_array(7, 5 * B + 7)
        assert got.tobytes() == sequential_floats(7, 5 * B + 7).tobytes()

    @pytest.mark.parametrize("failing", [0, 3 * B, 5 * B])  # caller, pool, pool
    def test_exception_in_a_worker_reaches_the_caller(self, cpus, failing):
        cpus(rng._MAX_WORKERS)
        before = threading.active_count()

        def fail_at(start, k):
            if start == failing:
                raise ValueError(f"block at {start}")
            return start

        with pytest.raises(ValueError, match=f"block at {failing}$"):
            top53_map(1, 5 * B + 7, fail_at)
        assert threading.active_count() == before
