"""The machine's speed during a run, for times in reference seconds.

On a CPU shared with other tenants the speed of one and the same Python
loop moves by a quarter and more within minutes.  So while a run
measures, an interval timer interrupts it every EVERY_S of wall time and
times a fixed stdlib loop (`probe`), which shares no code with the
library.  REF_S / t for a probe that took t seconds is the machine's
speed at that moment, in reference seconds (REF_S is the loop's time on
the reference machine) per wall second.  The probes sample it at even
steps of wall time, so their mean speed turns wall seconds into
reference seconds: the integral of the speed over the run.  The mean and
not the median, because the probe times are bimodal on a shared core
(the median jumps between the modes) and because a total time is a sum
over the slow and the fast stretches alike.  The time the probes take is
left out of every measured interval (`clock`).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_REPS = 14
REF_S = 0.005
EVERY_S = 0.1
SETUP_PROBES = 20


def probe() -> float:
    """Wall time of one pass of the fixed loop: the kinds of work the
    library does, Fraction products and sums over nested lists, a dict
    keyed by index tuples, and rationals printed and parsed again."""
    start = time.perf_counter()
    m = [[Fraction(4 * i + j - 7, (i + j) % 5 + 1) for j in range(4)]
         for i in range(4)]
    cells = {}
    for rep in range(PROBE_REPS):
        for i in range(4):
            for j in range(4):
                cells[rep, i, j] = sum((m[i][k] * m[k][j] for k in range(4)),
                                       Fraction(0))
    text = " ".join(str(v) for v in cells.values())
    [Fraction(tok) for tok in text.split()]
    return time.perf_counter() - start


class Sampler:
    """Probes the machine every EVERY_S while it is running (a context
    manager); clock() is perf_counter without the probes' time."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t = probe()
        self.samples.append(t)
        self.stolen += t
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def factor(self, first: int | None = None) -> float:
        """Reference seconds per wall second over the samples so far, or
        over the first `first` of them: their mean speed."""
        return statistics.fmean(REF_S / t
                                for t in self.samples[:first] or [probe()])
