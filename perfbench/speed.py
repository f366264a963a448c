"""Machine-speed calibration for a shared, noisy host.

On a small shared machine the speed of a core can change by a factor of two
for minutes at a time, because of load from other tenants.  The benchmark
therefore times a fixed pure-Python kernel next to the measured work and
scales each measured time by ``REFERENCE_MS / kernel time``, giving times at
a fixed reference speed.  The kernel shares no code with ybops, so a change
to the program cannot move it.  Run this file to print the kernel's time on
the current machine.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Kernel time, in ms, at the reference speed: about its time on an unloaded
# core of the 2-core Xeon (2.1 GHz) the benchmark was tuned on.
REFERENCE_MS = 3.3


def _kernel():
    # the kinds of work the workloads do: Fraction arithmetic and integer
    # matrix products (exact checks), Python float arithmetic (search)
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 1) * Fraction(2 * i - 1, 3)
    m = [[(i * 7 + j * 13) % 97 * 1000003 for j in range(24)]
         for i in range(24)]
    cols = list(zip(*m))
    prod = [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in m]
    x, total = 0.5, 0.0
    for i in range(3000):
        x = (x * 1.0001 + 0.3) % 7.0
        total += (x - 1.5) * (x + 0.25) * x
    return acc, prod, total


def kernel_ms(repeats=3):
    """Median time of the calibration kernel, in ms."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


if __name__ == "__main__":
    print(f"calibration kernel {kernel_ms(15):.3f} ms "
          f"(reference {REFERENCE_MS} ms)")
