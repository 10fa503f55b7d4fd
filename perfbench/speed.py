"""Host-speed calibration: timed calls reported in reference seconds.

The benchmark host is shared. On the 2-core reference host the speed of
pure-Python code drifted by up to 40 % within minutes (identical rounds
took 8.2 s to 13.7 s), far more than any regression bound could allow.
So a fixed calibration loop, which does not touch pointdyn, runs before
every timed call and after the last one, and each call's wall time is
scaled by ``REFERENCE_S / local probe time``, where the local probe time
is the mean of the probes just before and just after the call (wider
windows tracked the drift worse). The program's own cost stays in. On
recorded rounds this cut the round-to-round variation (coefficient of
variation) of the stability-pipeline total from 17 % to 4 %, and of
shadow-decide from 7 % to 4 %. Raw wall times are printed too.
"""

import statistics
from fractions import Fraction
from time import perf_counter

# About the calibration loop's time on the reference host when it is not
# contended, so reference seconds read close to wall seconds there.
REFERENCE_S = 0.002
REPEATS = 3         # loops per probe; the median drops a cache-cold first


def calibration_loop():
    """Fixed work in the library's own idiom: exact fractions, dicts, sets."""
    acc = Fraction(0)
    seen, pairs = {}, set()
    for i in range(400):
        f = Fraction(i % 13, 1 + i % 7)
        if f < acc:
            acc -= f / 3
        else:
            acc += f
        seen[i % 31] = acc
        pairs.add(frozenset((i % 5, i % 7)))
    return acc


class Speedometer:
    def __init__(self):
        calibration_loop()          # warm up, unrecorded
        self.probes = []

    def mark(self):
        """Run one probe; return its index (the call timed next starts here)."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            calibration_loop()
            times.append(perf_counter() - t0)
        self.probes.append(statistics.median(times))
        return len(self.probes) - 1

    def scale(self, seconds, mark):
        """Wall seconds of the call that followed probe ``mark``, in
        reference seconds. Needs the probe after the call to exist."""
        local = (self.probes[mark] + self.probes[mark + 1]) / 2
        return seconds * REFERENCE_S / local
