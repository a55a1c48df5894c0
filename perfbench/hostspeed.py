"""Host speed readings, so that timings can be reported at a fixed host speed.

The shared host the baseline was measured on (a 2-vCPU cloud VM) switches,
for seconds to minutes at a time, between full speed and a state about 1.8
times as slow, and how much of a run falls in each state changes from run
to run.  A fixed loop that does not touch diagvf slows down by about the
same factor as diagvf does, so the benchmark times that loop around every
op and reports each time multiplied by REFERENCE_READING_S over the loop's
time there: the time the op would have taken on a host on which the loop
takes REFERENCE_READING_S.
"""

from fractions import Fraction
from time import perf_counter

# about the loop's time on that VM at full speed
REFERENCE_READING_S = 130e-6


def host_reading():
    """Best of three timings of a fixed loop of Fraction and float
    arithmetic, the two kinds diagvf spends its time in."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 40):
            acc += Fraction(1, i)
        x = 0.0
        for i in range(1000):
            x += i * 0.5
        best = min(best, perf_counter() - t0)
    return best


def at_reference_speed(seconds, reading):
    """A time taken where the loop took `reading` seconds, at reference speed."""
    return seconds * REFERENCE_READING_S / reading
