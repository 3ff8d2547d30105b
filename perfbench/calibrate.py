"""Machine-speed calibration shared by the runner and its set-up interpreters.

The benchmark runs on a shared machine whose speed changes by half over
seconds (other tenants, frequency).  A fixed piece of work that does not
touch oscistep is timed next to each measurement, and the measurement is
scaled to the speed at which that work takes CALIBRATION_NOMINAL_S.
"""

import cmath
import statistics
import time

import numpy as np

# calibration_s() on an uncontended core of the machine the benchmark was
# written on (see NOTES.md); reported times are at that speed
CALIBRATION_NOMINAL_S = 1.4e-4


def calibration_s() -> float:
    """Seconds taken by dict updates keyed by tuples, complex arithmetic and
    a small array reduction: the instruction mix of the package's hot paths."""
    t0 = time.perf_counter()
    d = {}
    z = 0.3 + 0.1j
    for i in range(400):
        k = (i % 7, i % 5, (i * 3) % 11)
        d[k] = d.get(k, 0j) + z * (i & 15)
        z = z * (0.999 + 0.001j)
    a = np.array([cmath.exp(1j * i) for i in range(40)])
    complex(np.sum(a * a))
    return time.perf_counter() - t0


def reference_s(runs: int = 3) -> float:
    """Calibration time now: the median of several runs, so that one
    interrupt does not count."""
    return statistics.median(calibration_s() for _ in range(runs))
