"""A fixed CPU probe, and op latencies rescaled by it to a reference speed.

On a shared host the speed of a vCPU can drop by half, in bursts under a
second and in spells of minutes.  A run-local statistic (fastest pass,
median of passes) removes the bursts but not the spells, so raw times
from two runs a few minutes apart can differ by 2x.  The worker times
:func:`probe` right before every op, and :class:`TimerProbe` times it
every ``INTERVAL_S`` inside long ops.  An op's latency, less the timer
probes inside it, is rescaled by ``PROBE_REF_S`` over the probe time
around it, i.e. reported at the speed at which the probe takes
``PROBE_REF_S``.  The probe is pure Python ``Fraction`` arithmetic like
the program under test, so both slow down together; the rescaled
latency changes only when the program's own cost changes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The probe's time on an uncontended vCPU of the 2-vCPU host that the
# seed-state figures in README.md come from.
PROBE_REF_S = 0.0004
INTERVAL_S = 0.1
# An op with fewer timer probes inside it takes its speed from the
# probes run before the ops around it.
MIN_INSIDE = 3


def probe() -> float:
    """Seconds taken by a fixed ~0.5 ms slice of Fraction arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i % 13 + 1)
    return time.perf_counter() - start


class TimerProbe:
    """Runs :func:`probe` on SIGALRM every ``INTERVAL_S`` while entered.

    ``samples`` holds ``(start, end, probe seconds)``.  The handler runs
    in the main thread between bytecodes, so a sample never straddles a
    timestamp the main thread takes.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def _fire(self, signum, frame):
        start = time.perf_counter()
        seconds = probe()
        self.samples.append((start, time.perf_counter(), seconds))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def rescaled(records: list[dict], samples: list) -> list[tuple[float, float]]:
    """(latency, latency at the reference speed) per record, in record order.

    The latency excludes the timer probes that ran inside the op.  The
    speed during an op is the median of those probes when there are at
    least ``MIN_INSIDE``; otherwise the median pre-op probe of the ops
    that started within one op-length before it or two after it,
    always including the next op's, timed right after this op ended.
    """
    order = sorted(range(len(records)), key=lambda i: records[i]["start"])
    starts = [records[i]["start"] for i in order]
    sample_starts = [sample[0] for sample in samples]
    out = [(0.0, 0.0)] * len(records)
    for pos, i in enumerate(order):
        rec = records[i]
        t0, t1 = rec["start"], rec["start"] + rec["seconds"]
        inside = samples[bisect.bisect_left(sample_starts, t0):
                         bisect.bisect_right(sample_starts, t1)]
        latency = rec["seconds"] - sum(end - start for start, end, _ in inside)
        if len(inside) >= MIN_INSIDE:
            speed = statistics.median(seconds for _, _, seconds in inside)
        else:
            lo = bisect.bisect_left(starts, t0 - latency)
            hi = bisect.bisect_right(starts, t0 + 2 * latency)
            speed = statistics.median(records[j]["probe"] for j in order[lo:max(hi, pos + 2)])
        out[i] = (latency, latency * PROBE_REF_S / speed)
    return out
