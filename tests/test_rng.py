import numpy as np
import pytest

from oracles import SplitMix64

from gnnbench.rng import uniform_array


def test_oracle_matches_published_outputs():
    stream = SplitMix64(0)
    assert [stream.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_uniform_array_is_the_sequential_stream(seed, count):
    stream = SplitMix64(seed)
    want = np.array([stream.next_float() for _ in range(count)], dtype=np.float64)
    got = uniform_array(seed, count)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
