"""A fixed reference loop that measures how fast this machine runs now.

The benchmark's host changes speed by up to twice for seconds at a time,
and the process can neither see nor stop it.  The loop below does a fixed
amount of each kind of work the workloads do: exact rational and
big-integer arithmetic, small objects in dicts and lists, plain integer
loops, numpy on long and on short float arrays, and numpy integer sorting.
It never touches localzeta, so its duration follows the machine and not
the program.  Timing it between checks lets ``run.py`` put the checks'
wall time in reference seconds: seconds at the speed at which the loop
takes REFERENCE_S.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

# duration of reference_work() on a 2-vCPU x86-64 VM (Python 3.11.7, numpy
# 2.4.6) while the host was quiet; only a scale, so that reference seconds
# read near wall seconds there
REFERENCE_S = 0.023

_LONG = np.linspace(0.01, 40.0, 4096)
_SHORT = np.linspace(0.1, 3.0, 64)
_KEYS = (np.arange(4096, dtype=np.int64) * 2654435761) % (1 << 20)


def reference_work() -> int:
    """Each part takes about a sixth of the whole; returns a checksum so
    that no part can be skipped."""
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, 2 * i + 3) * Fraction(3 - i, i + 1)
    entries = 0
    for _ in range(20):
        table: dict[int, list] = {}
        for i in range(1000):
            table.setdefault(i % 61, []).append((i, -i))
        entries += sum(map(len, table.values()))
    residues = 0
    for i in range(40000):
        residues += (i * 7919) % 1013
    total = 0.0
    for k in range(60):
        y = np.exp(-_LONG / (k + 1)) * np.sqrt(_LONG) + np.cos(_LONG * k)
        total += float(y.sum())
    for k in range(600):
        total += float((np.exp(-_SHORT * k) + _SHORT).sum())
    for k in range(30):
        order = np.argsort(_KEYS ^ k, kind="stable")
        total += float(np.unique(_KEYS[order[:512]] % 1024).size)
    return acc.numerator.bit_length() + entries + residues + int(total)


def reference_seconds() -> float:
    """Duration of one reference_work(), with the cyclic collector off:
    its passes cost in proportion to every object the program keeps, so
    with it on the loop would slow as the program's caches grow."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
