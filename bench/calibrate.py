"""Machine-speed reference for the benchmark's timings.

The shared 2-vCPU virtual machine this benchmark was built on changed
speed by up to 1.7x over minutes, which no number of seeds averages
away. Every timing is therefore also taken against a fixed
kernel that uses nothing from ``syracuse``: an interpreter loop over
small integers plus big-integer multiplications and divisions, the two
kinds of work the library does. The kernel runs between rounds, in the
same process, and a run's timings are scaled by

    speed = REFERENCE_S / median(kernel seconds)

so a run on a momentarily slow host reports what it would have taken
at the reference speed. REFERENCE_S is the kernel's median time on the
2-vCPU host the benchmark was written on; it only fixes the scale.
"""

import statistics
import time

REFERENCE_S = 0.017

_A = 3**12000
_B = 7**9000
_M = _A + 12345


def kernel():
    """Seconds one pass of the reference work takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(7):
        acc += (_A * _B) % _M
    return time.perf_counter() - start


def speed(samples):
    """How much faster than the reference the host ran while these were taken."""
    return REFERENCE_S / statistics.median(samples)
