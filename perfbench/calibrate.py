"""Machine-speed calibration for host times on a shared, noisy machine.

On a small shared virtual machine (2 vCPUs, other tenants) the same
pure-Python work takes anywhere from 1x to 3x as long from one moment
to the next, and that swing, not the program, dominates run-to-run
spread. So each timed section is bracketed by a fixed pure-Python
kernel that uses no storbind code (dicts, string formatting, Fractions,
a sort: the interpreter work storbind does), and host times are
reported scaled to a reference speed:

    reported = measured * REFERENCE_S / kernel_time_around_it

REFERENCE_S is the kernel's time on an unloaded 2-vCPU x86-64 virtual
machine under CPython 3.11, so reported times are seconds on that
machine. The raw measured times are printed beside them.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.025


def _kernel() -> tuple[list, Fraction]:
    counts: dict[str, int] = {}
    acc = Fraction(0)
    for i in range(40000):
        key = "v%d" % (i % 512)
        counts[key] = counts.get(key, 0) + i
        if i % 8 == 0:
            acc += Fraction(i % 97, 1 + i % 13)
    return sorted(counts.items()), acc


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def speed_factor(*kernel_s: float) -> float:
    """Multiplier that turns times measured between these kernel runs into
    reference seconds."""
    return REFERENCE_S / (sum(kernel_s) / len(kernel_s))
