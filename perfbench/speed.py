"""The machine-speed reference the benchmark scales its timings by.

The 2-core VM the benchmark was built on runs the same call up to 1.8x
slower while the other core is busy, for seconds to minutes at a time. The
reference work below slows down in step with nomc: with a busy loop on the
other core, both took 80 % longer and their ratio moved by less than 8 %.
A timing multiplied by REFERENCE_S / (the reference time measured next to
it) estimates what the call takes when the other core is idle, whatever
the contention at the moment of measuring.

This module imports nothing from nomc, so the child processes that time
`import nomc` can use it before importing nomc.
"""

from __future__ import annotations

import time

# Typical seconds reference_time() takes on the VM the benchmark was built
# on (Intel Xeon, 2 vCPUs, Python 3.11). It fixes the scale of the reported
# times; the ratio between two commits does not depend on it.
REFERENCE_S = 0.0015


def _reference_work() -> int:
    """Fixed pure-Python work of nomc's kind: small tuples and frozensets
    built, hashed and stored in dicts. It never changes with nomc."""
    acc = 0
    for i in range(1500):
        key = (i, (i + 1, (i + 2, "x")), frozenset((i % 7, i % 5)))
        table = {key: i, (key, i): key}
        acc += (hash(key) & 7) + len(table)
    return acc


def reference_time() -> float:
    started = time.perf_counter()
    _reference_work()
    return time.perf_counter() - started
