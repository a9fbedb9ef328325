"""Machine speed, measured beside the program.

The benchmark shares its cores with other work, and the same code runs up
to ~1.9x slower for seconds to minutes at a time.  Raw wall times then
vary more between runs than the bounds in ``BENCHMARK.json`` allow.  So
every wall-clock metric is scaled to a reference speed: a fixed probe is
timed right before and right after each timed operation, and the
operation's wall time is divided by the probe's slowdown against
:data:`REFERENCE_S`.

The probe mixes the three kinds of work the program spends its time on:
an interpreter loop over ints and a dict, small-array numpy calls, and a
vectorised compare and sort over a few thousand residues.  Its slowdown
tracks the program's (a log-log slope of ~1.0 over a mix of all-RAM and
tiered queries).  The probe is benchmark code: a change to the program
moves scaled times exactly as it moves raw ones.  Raw times are printed
beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one probe takes on the reference machine in its fast state (a
#: 2-core x86-64 VM, CPython 3, numpy; median of 1,000 probes).
REFERENCE_S = 0.00045

_SMALL_A = np.arange(64, dtype=np.int64) % 20
_SMALL_B = _SMALL_A[::-1].copy()
_CODES = np.random.default_rng(1).integers(0, 20, size=(200, 150)).astype(
    np.uint8)


def _kernel() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(400):
        j = (i * 7) % 64
        acc += (i * j) % 13
        table[j] = table.get(j, 0) + acc
    for i in range(100):
        j = (i * 7) % 56
        acc += int(np.count_nonzero(_SMALL_A[j:j + 8] != _SMALL_B[j:j + 8]))
    acc += int((_CODES[:, :100] != _CODES[0, :100]).sum(axis=1).min())
    acc += int(np.sort(_CODES[:50].ravel()).sum())
    return acc


def probe() -> float:
    """Seconds the probe kernel takes now (best of two, so one interrupt
    does not count as a slow machine)."""
    perf = time.perf_counter
    best = float("inf")
    for _ in range(2):
        start = perf()
        _kernel()
        best = min(best, perf() - start)
    return best


def slowdown(*probes: float) -> float:
    """How much slower than the reference the machine ran, from the mean
    of *probes* taken around one operation."""
    return sum(probes) / len(probes) / REFERENCE_S
