"""Op timing that stays steady while the machine's speed drifts.

On the shared 2-vCPU reference VM, wall-clock speed drifts by up
to ±30 % over seconds to tens of seconds, and every kind of op slows
together.  So a fixed pure-Python `Fraction` loop, the gauge, is timed
at every segment boundary of an op and, through SIGALRM, every
SAMPLE_S inside a segment.  A segment's time at reference speed is its
wall time (without the samples) scaled by G_REF over the mean of the
gauge samples taken from its start to its end.  In tests on it, a dp
op drifted by ±28 % between 4 s windows while its ratio to boundary
samples stayed within ±2 %; a 5 s tucker compile and JSON round trip
varied with a CV of 15 % in wall time and 3.3 % scaled by the samples
taken inside it.
"""

import gc
import signal
from fractions import Fraction
from time import perf_counter

# gauge() seconds at reference speed: its median inside runs on the
# reference VM, so there reference and wall time agree on average
G_REF = 0.95e-3
SAMPLE_S = 0.05


def gauge():
    """Seconds for a fixed loop of Fraction additions (~1 ms)."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


class Clock:
    """The timeline of a run.  Each op execution (a "run" of the op) is
    one or more segments.  now() is perf_counter minus the time spent
    in gauge samples, so neither op times nor trace spans include it.
    While a segment is open, the tracer records under the run's id."""

    def __init__(self, tracer):
        self.tracer = tracer
        if tracer is not None:
            tracer.now = self.now
        self.records = []       # per run: None (untraced) or the op id
        self.segments = []      # (run index, seconds, gauge samples)
        self.wall = 0.0
        self.paused = 0.0       # seconds spent sampling inside segments
        self._samples = None    # samples of the open segment
        self._t = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def now(self):
        return perf_counter() - self.paused

    def start(self, record):
        self.records.append(record)
        self._open([gauge()])

    def mark(self):
        """End a segment and start the next (between stages of an op)."""
        self._open(self._close())

    def stop(self):
        self._close()

    def _open(self, samples):
        self._samples = samples
        if self.tracer is not None:
            self.tracer.op = self.records[-1]
        self._t = self.now()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def _close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        t = self.now() - self._t
        if self.tracer is not None:
            self.tracer.op = None
        samples, self._samples = self._samples, None
        g = gauge()
        samples.append(g)
        self.segments.append((len(self.records) - 1, t, samples))
        self.wall += t
        return [g]

    def _on_alarm(self, signum, frame):
        if self._samples is None:
            return              # a late alarm after the segment closed
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()            # a collection belongs to the op's time
        try:
            self._samples.append(gauge())
        finally:
            if enabled:
                gc.enable()
        self.paused += perf_counter() - t0

    def run_times(self):
        """Per run: (wall seconds, seconds at reference speed)."""
        wall = [0.0] * len(self.records)
        ref = [0.0] * len(self.records)
        for run, t, samples in self.segments:
            wall[run] += t
            ref[run] += t * G_REF * len(samples) / sum(samples)
        return wall, ref
