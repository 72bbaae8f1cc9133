"""The host's speed at the moment, from three fixed kernels, and wall times
scaled to a reference speed.

The benchmark runs on a shared host whose speed drifts by up to 1.5x over
tens of seconds to minutes.  Different kinds of work slow by different
amounts: interpreted Python the most, numpy passes over a few MB the least.
So there is one kernel per kind of work the program does, and the host's
slowness is the mean of their times over their reference times.  The
kernels belong to the benchmark, so a change to the program cannot change
them.  Import this module only after the BLAS thread caps are set.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Each kernel's usual time, in seconds, on the machine in README.md.
REFERENCE_S = {"python": 0.0045, "numpy_small": 0.0030, "numpy_large": 0.0048}

_SMALL = np.arange(49.0).reshape(7, 7)
_LARGE = np.random.default_rng(0).random((2000, 50))


def _python() -> None:
    acc = 0
    for i in range(50_000):
        acc += i * i % 7


def _numpy_small() -> None:
    for _ in range(200):
        block = _SMALL[[0, 2, 4]][:, [1, 3, 5]]
        ((block - block.mean()) ** 2).sum()


def _numpy_large() -> None:
    np.abs(_LARGE[:, None, :5] - _LARGE[:40, :5][None]).sum()


KERNELS = {"python": _python, "numpy_small": _numpy_small, "numpy_large": _numpy_large}


def slowness() -> float:
    """Mean of the kernels' times over their reference times: 1 at the
    reference speed, 1.3 on a host 30% slower."""
    total = 0.0
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        total += (time.perf_counter() - t0) / REFERENCE_S[name]
    return total / len(KERNELS)


def scale(walls: list[float], slow: list[float]) -> list[float]:
    """Wall times at the reference speed.  ``slow[j]`` and ``slow[j + 1]``
    were measured right before and right after ``walls[j]``; the median of
    those and their outer neighbours damps one disturbed measurement."""
    return [wall / statistics.median(slow[max(0, j - 1):j + 3]) for j, wall in enumerate(walls)]
