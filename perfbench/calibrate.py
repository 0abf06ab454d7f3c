"""Host-speed calibration: a fixed reference loop timed next to the work.

The benchmark's host is a VM on a shared machine whose speed changes by
up to 2x over seconds to minutes (other tenants on the same cores), so
a raw time says as much about the neighbours as about the program. A
pass therefore times :func:`reference_loop` (a fixed mix of interpreter
work and a small matrix product, like a fleet tick) right before every
tick. The reference loop slows down with the host, so a tick's time
divided by the reference time next to it stays put when the host's
speed moves.

``run.py`` reports timings *at reference speed*: each measured time is
scaled by ``REFERENCE_US / (reference time measured next to it)``, which
gives the time the work would take on this host when the reference loop
runs in ``REFERENCE_US`` microseconds, its fastest on the VM the
benchmark was tuned on. The raw times are printed in the detail line too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the reference loop's fastest time on the tuning host (2-core Intel Xeon
#: VM at 2.1 GHz, Python 3.11, numpy 2.4, single-threaded OpenBLAS)
REFERENCE_US = 35.0

_MATRIX = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)


def reference_loop() -> None:
    """A fixed amount of interpreter and numpy work (about 35 us)."""
    acc = 0
    for i in range(300):
        acc += i * i
    for _ in range(10):
        _MATRIX @ _MATRIX


def reference_us(loops: int) -> float:
    """Median time of ``loops`` back-to-back reference loops, in microseconds."""
    times = []
    for _ in range(loops):
        t0 = time.perf_counter()
        reference_loop()
        times.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(times)
