"""Portable deterministic random number generation.

All randomness in the package flows through :class:`SplitMix64`, the
well-known 64-bit shift/multiply generator.  The algorithm is fixed and
tiny so that a given seed reproduces the same stream on any platform or
in any reimplementation, which keeps generated test instances portable.
Its state advances by a fixed increment, so the j-th output depends only
on seed + j * gamma; :func:`uniforms` and :meth:`SplitMix64.next_uint64s`
use that to draw many outputs in one numpy pass.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) built from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def randint_below(self, n: int) -> int:
        """Uniform integer in [0, n).  Plain modulo; the bias of n/2^64
        is irrelevant at the scales used here."""
        if n < 1:
            raise ValidationError("randint_below requires n >= 1")
        return self.next_uint64() % n

    def next_uint64s(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of :meth:`next_uint64`, as uint64s."""
        out = _outputs([self._state], [count])
        self._state = (self._state + count * _GAMMA) & MASK64
        return out


def _outputs(seeds, counts) -> np.ndarray:
    """The first ``counts[i]`` uint64 outputs of the stream seeded with
    ``seeds[i]``, for every i in turn, concatenated: the j-th state (from 1)
    of a stream is seed + j * gamma mod 2^64, so each output is mixed from its
    own counter, in uint64 arithmetic that wraps as the scalar class masks.
    A negative count, or a total past the int64 counter, raises before
    anything is drawn."""
    try:
        counts = np.asarray(counts, dtype=np.int64)
        # of counts >= 0, the first running total past 2^63 - 1 wraps negative
        ends = np.cumsum(counts)
        if (counts < 0).any() or (ends < 0).any():
            raise OverflowError
    except OverflowError:
        raise ValidationError("draw counts must be >= 0 and total below 2^63") from None
    z = np.arange(1, counts.sum() + 1, dtype=np.uint64)
    z -= np.repeat(ends - counts, counts).astype(np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.repeat(np.array([s & MASK64 for s in seeds], dtype=np.uint64), counts)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def uniforms(seeds, counts) -> np.ndarray:
    """The first ``counts[i]`` :meth:`SplitMix64.random` floats of the
    stream seeded with ``seeds[i]``, for every i in turn, concatenated."""
    return (_outputs(seeds, counts) >> np.uint64(11)) * 2.0**-53


def derive_seed(seed: int, index: int) -> int:
    """Per-instance seed for batched generation: base seed plus index."""
    return (seed + index) & MASK64
