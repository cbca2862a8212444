"""A fixed calibration kernel that tracks the machine's current speed.

On a host shared with other tenants the same operation takes up to 1.8 times
longer while the neighbours are busy, in phases that last from seconds to
minutes.  A fixed kernel timed right before and right after an operation
slows down with it, so the ratio of the two times stays put while both
swing.  The benchmark reports times scaled to reference speed:

    scaled time = measured time * REFERENCE_S / kernel time

REFERENCE_S is the kernel's time on the reference machine when it ran
undisturbed, so a scaled time reads close to a wall time there.

The kernel does not touch wienerlift, so a change to the program cannot
change it.  It mixes the four kinds of work the workloads do: interpreter
bytecode, NumPy calls on short arrays, a streaming NumPy pass over a few
megabytes, and Gaussian draws.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.007
PASSES = 5

_SWEEP = np.random.default_rng(0).standard_normal(500_000)
_SHORT = np.random.default_rng(2).standard_normal(17)
_RNG = np.random.default_rng(1)


def _interpreter() -> int:
    s = 0
    for i in range(20_000):
        s += i * i
    return s


def _short_calls() -> float:
    m = 0.0
    for _ in range(300):
        m = max(m, float(np.max(np.abs(np.diff(_SHORT)))))
    return m


def _stream() -> None:
    for _ in range(6):
        np.multiply(_SWEEP, 1.0, out=_SWEEP)


def _draws() -> None:
    _RNG.standard_normal(150_000)


def kernel_s() -> float:
    """Time of one kernel pass, the median of PASSES passes."""
    times = []
    for _ in range(PASSES):
        t = time.perf_counter()
        _interpreter()
        _short_calls()
        _stream()
        _draws()
        times.append(time.perf_counter() - t)
    return sorted(times)[PASSES // 2]
