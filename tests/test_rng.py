"""The bulk draw ``uniforms`` against the scalar SplitMix64 stream, bit for
bit, and the generators built on it against their scalar definitions."""

import numpy as np
import pytest

from crossclust import (
    SplitMix64,
    ValidationError,
    planted_real_matrix,
    random_binary_matrix,
    random_real_matrix,
)
from crossclust.rng import uniforms

SEEDS = (-1, 0, 2**63, 2**64 - 1, 2**64 + 5)


def scalar(seed, count):
    rng = SplitMix64(seed)
    return [rng.random() for _ in range(count)]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("count", [0, 1, 100_000])
@pytest.mark.parametrize("seed", SEEDS)
def test_one_stream(seed, count):
    with np.errstate(all="raise"):  # the wrapping uint64 ops must not signal, under any errstate
        got = uniforms([seed], [count])
    assert got.dtype == np.float64
    assert np.array_equal(bits(got), bits(scalar(seed, count)))


def test_mixed_counts_concatenate_the_streams():
    seeds = [*SEEDS, 12345, 7]
    counts = [3, 0, 1, 17, 0, 64, 2]
    with np.errstate(all="raise"):
        got = uniforms(seeds, counts)
    want = [u for seed, count in zip(seeds, counts) for u in scalar(seed, count)]
    assert np.array_equal(bits(got), bits(want))


def test_no_streams():
    assert uniforms([], []).shape == (0,)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (5, 1), (4, 6), (9, 9)])
def test_generators_follow_the_scalar_stream(seed, n, m):
    """Each generator's entries, rebuilt one scalar draw at a time."""
    rng = SplitMix64(seed)
    want = [[1.0 if rng.random() < 0.3 else 0.0 for _ in range(m)] for _ in range(n)]
    assert np.array_equal(random_binary_matrix(n, m, 0.3, seed).values, want)

    rng = SplitMix64(seed)
    want = [[rng.random() for _ in range(m)] for _ in range(n)]
    assert np.array_equal(bits(random_real_matrix(n, m, seed).values), bits(want))

    rng = SplitMix64(seed)
    levels = [[rng.random() for _ in range(2)] for _ in range(2)]
    want = [
        [levels[i >= (n + 1) // 2][j >= (m + 1) // 2] + 0.1 * (rng.random() - 0.5)
         for j in range(m)]
        for i in range(n)
    ]
    got = planted_real_matrix(n, m, seed).values
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("counts", [(0,), (1,), (5, 0, 3), (1000, 2)])
@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_draws_are_the_scalar_stream(seed, counts):
    """``next_uint64s`` gives the next outputs of ``next_uint64`` bit for
    bit, and leaves the state where the scalar calls leave it."""
    bulk, scalar_rng = SplitMix64(seed), SplitMix64(seed)
    for count in counts:
        with np.errstate(all="raise"):
            got = bulk.next_uint64s(count)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert got.tolist() == [scalar_rng.next_uint64() for _ in range(count)]
        assert bulk._state == scalar_rng._state
    assert bulk.next_uint64() == scalar_rng.next_uint64()


#: Draw counts no int64 counter holds: each one alone, or their total.
HUGE_COUNTS = ([10**20], [2**63], [2**62, 2**62], [2**63 - 1, 1], [3, -1], [-1])


@pytest.mark.parametrize("counts", HUGE_COUNTS)
def test_huge_or_negative_counts_are_rejected(counts):
    """A count below 0, or a total past 2^63 - 1, raises before any draw;
    a failed ``next_uint64s`` leaves the stream where it was."""
    with pytest.raises(ValidationError, match="draw counts"):
        uniforms([7] * len(counts), counts)
    with pytest.raises(ValidationError, match="draw counts"):
        uniforms([7] * len(counts), np.array(counts, dtype=object))
    rng = SplitMix64(7)
    with pytest.raises(ValidationError, match="draw counts"):
        rng.next_uint64s(sum(counts) if min(counts) >= 0 else min(counts))
    assert rng.next_uint64() == SplitMix64(7).next_uint64()
