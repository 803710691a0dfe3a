"""Machine-speed calibration for the timed figures.

The host this benchmark was tuned on runs the same Python code up to
twice as slowly in some phases as in others; the phases last from seconds
to minutes, so one run can fall entirely inside a slow one.  Raw job
times therefore spread by 20-30% between runs of the same code.

To take that out, the benchmark times a fixed kernel of its own (exact
Fraction arithmetic, tuples and a dict: the kind of work mukailab does,
but none of mukailab's code) right after every job, outside the job's
timer.  Each job time is rescaled by REFERENCE_S / (median kernel time of
the jobs around it).  A figure then reads as the time the job would take
with the kernel at REFERENCE_S, this host's typical fast phase.  A change
to mukailab moves the job times and not the kernel, so it shows in full.
"""

from fractions import Fraction
from statistics import median
from time import perf_counter

REFERENCE_S = 0.25e-3   # kernel time on the tuning host in a fast phase
WINDOW = 10             # jobs on each side whose kernel times set the scale


def kernel():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 40):
        q = Fraction(i, i + 7)
        acc += q * q - Fraction(1, i)
        seen[(i, i % 5)] = (acc, q)
    return len(seen)


def time_kernel():
    start = perf_counter()
    kernel()
    return perf_counter() - start


def rescale(times, kernel_times, window=WINDOW):
    """times[i] * REFERENCE_S / median(kernel_times[i - window : i + window + 1])."""
    n = len(times)
    out = []
    for i, t in enumerate(times):
        local = median(kernel_times[max(0, i - window):min(n, i + window + 1)])
        out.append(t * REFERENCE_S / local)
    return out
