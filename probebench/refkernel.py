"""A fixed reference kernel that measures how fast the host is right now.

The VM this benchmark was built on changes speed by up to 1.6x within a
minute, CPU time tracks wall time (so a CPU clock does not help), and no
hardware counters are exposed.  The benchmark therefore runs this kernel
between its timed operations and reports a compute-bound time ``t`` as

    t_normalized = t * R_NOMINAL / r

where ``r`` is the mean of the kernel times just before and just after
the operation.  The host's speed drifts within a run and the neighbouring
samples track it: on estimate-packed this cut the spread of one case's
operation time from a coefficient of variation of 0.20 (raw) to 0.08,
and the spread of quarter-run totals from +-10% to +-2%.

The kernel uses no repro code and mixes the three kinds of work the
engine does: numpy RNG and compare, uint64 shifts with popcount, and a
short interpreter loop.  Its inputs are fixed, so it does identical work
on every call.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time (seconds) that defines the unit of normalized time: a
#: normalized second is a second on a host where the kernel takes 10 ms.
R_NOMINAL = 0.010

_ROWS, _COLS = 512, 1024


def reference_kernel() -> int:
    """One fixed unit of mixed work; returns a checksum so none is skipped."""
    rng = np.random.Generator(np.random.PCG64(20011))
    red = rng.random((_ROWS, _COLS)) < 0.5
    words = np.packbits(red, axis=0, bitorder="little").view(np.uint64)
    # Many small word ops, like the bit-sliced kernels' per-element steps.
    carry = np.zeros(words.shape[1], dtype=np.uint64)
    total = 0
    for row in words:
        for shift in (np.uint64(1), np.uint64(7), np.uint64(13)):
            carry ^= (row >> shift) & ~carry
        total += int(np.bitwise_count(carry).sum())
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFF
    return total + acc


def reference_seconds() -> float:
    """Wall time of one :func:`reference_kernel` call, now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def normalized(seconds: float, reference: float) -> float:
    """``seconds`` measured while the kernel took ``reference`` seconds,
    in units of a host on which it takes :data:`R_NOMINAL`."""
    return seconds * R_NOMINAL / reference
