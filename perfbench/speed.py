"""Machine speed, sampled inside a worker while it runs.

The VM this benchmark was built on switches between speeds about 30% apart,
for tens of seconds at a time; process CPU time moves with wall time, so the
cause is the host, not descheduling, and no amount of work in one run
averages it out.  A timer interrupts the worker every INTERVAL_S and times a
fixed piece of pure-Python work (_probe).  Probes taken while evolsym starts
up or runs documents track that work's speed closely (their median and the
work's time correlate at 0.93 to 0.96 over fresh processes), and no change
to evolsym alters the probe itself: it shares no state with the program,
and the cyclic collector, whose passes cost in proportion to the program's
heap, is paused while it runs.

run.py scales each worker's timings by REFERENCE_S over the median probe of
the same phase, and takes the probes' own time out of every timing
(Sampler.work_clock), so a run reports its timings at the reference speed.
"""

import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
# a round figure near the median probe on the 2-CPU Intel Xeon VM (2.1 GHz)
# with Python 3.11.7, where a run's median probe took 0.8 to 1.3 ms
REFERENCE_S = 0.0010


def _probe():
    s = 0
    d = {}
    for i in range(8000):
        s += (i * 7) % 13
        d[i & 255] = s
    return s


class Sampler:
    """Times _probe every INTERVAL_S while started; one per process, because
    it owns the process's SIGALRM."""

    def __init__(self):
        self.samples = []  # (start, seconds) of every probe
        self.spent = 0.0  # seconds spent in probes

    def _handler(self, _signum, _frame):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe()
        seconds = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append((start, seconds))
        self.spent += seconds

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def work_clock(self):
        """perf_counter without the time spent in probes."""
        return time.perf_counter() - self.spent

    def median_between(self, t0, t1):
        """Median seconds of the probes started in [t0, t1), or None."""
        inside = [s for t, s in self.samples if t0 <= t < t1]
        return statistics.median(inside) if inside else None
