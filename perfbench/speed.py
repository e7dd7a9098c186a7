"""The machine-speed probe that corrects the benchmark's times.

The benchmark runs on a shared virtual machine whose speed changes while it
runs: the same deterministic round can take 1.5 times as long a minute
later, because other tenants share the physical cores.  So every timed
interpreter also measures the speed of its own CPU.  A timer signal every
``INTERVAL_S`` runs a fixed probe, a small piece of pure-Python ``Fraction``
and dictionary work from the standard library only, in the same thread, and
records how long it took.  A time measured over an interval is then
corrected to the reference speed, the speed at which the probe takes
``REF_PROBE_S``:

    corrected = measured * REF_PROBE_S / (median probe time near the interval)

The probe does no singcat work, so a change to singcat cannot change it;
it only tracks the machine.  The time the probe itself takes is taken out
of the measured time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
# The probe time that defines the reference speed: about the probe's time on
# the machine of the README when no other tenant slows it down.
REF_PROBE_S = 1.0e-4
# A correction uses the probes inside the interval, or at least this many
# probes nearest to it (half a second at INTERVAL_S).
NEAREST = 25
# Probes run right after set-up, to correct the set-up time.
SETUP_BURST = 40


def _work():
    acc, seen = Fraction(0), {}
    for i in range(1, 40):
        acc += Fraction(i, 7 + i)
        seen[(i, -i)] = acc
    return acc


class SpeedProbe:
    def __init__(self):
        self.stamps = []     # when each probe ended
        self.durations = []  # how long its timed pass took
        self.spent = 0.0     # all time spent probing, warm-up passes included

    def probe(self):
        t0 = perf_counter()
        _work()  # warm-up pass, not recorded
        t1 = perf_counter()
        _work()
        t2 = perf_counter()
        self.stamps.append(t2)
        self.durations.append(t2 - t1)
        self.spent += t2 - t0

    def _on_alarm(self, _signum, _frame):
        self.probe()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0=None, t1=None):
        """REF_PROBE_S over the median probe time during [t0, t1], or of the
        NEAREST probes around it; over all probes when no interval is
        given."""
        if t0 is None:
            return REF_PROBE_S / statistics.median(self.durations)
        i = bisect.bisect_left(self.stamps, t0)
        j = bisect.bisect_right(self.stamps, t1)
        if j - i < NEAREST:
            mid = bisect.bisect_left(self.stamps, (t0 + t1) / 2)
            i = max(0, mid - NEAREST // 2)
            j = min(len(self.stamps), i + NEAREST)
            i = max(0, j - NEAREST)
        return REF_PROBE_S / statistics.median(self.durations[i:j])
