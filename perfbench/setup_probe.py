"""One set-up sample for ``setup_s``, in a fresh interpreter.

Times importing ybops, building the workload's carriers and families and one
warm-up task.  Then it times the calibration kernel (``speed.py``) and prints
both: the seconds and the kernel's milliseconds.  Usage:

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ybops  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
try:
    workload.setup()
    workload.warm_up()
    elapsed = perf_counter() - T0
finally:
    workload.close()

import speed  # noqa: E402

print(repr(elapsed), repr(speed.kernel_ms(5)))
