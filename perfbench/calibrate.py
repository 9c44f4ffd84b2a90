"""CPU-speed calibration for the end-to-end timings.

The benchmark runs on a shared virtual machine whose effective CPU speed
changes by up to a factor of two, in spells lasting from a second to
minutes (other tenants load the host).  No statistic within one run
removes a slow spell that lasts the whole run.  So the benchmark times
fixed reference work next to the work it measures and rescales each
measured time to a reference speed:

    rescaled = measured * (REFERENCE_S / reference work timed alongside) ** exponent

Two kinds of reference work are used:

- ``sample()`` times a kernel that does what superjet's inner loop does:
  it multiplies two polynomials held as dicts from tuple keys to
  ``Fraction`` coefficients.  A ``Sampler`` takes such a sample every
  ``PERIOD_S`` seconds while the operations run, from a timer signal, so
  that even an operation lasting seconds is rescaled by the speed seen
  during it.  Each workload states how strongly its operations follow
  the kernel's speed (``Workload.speed_exponent``).
- ``spawn_sample()`` times a fresh interpreter that imports a few
  standard-library modules.  It rescales set-up, whose process start and
  module loading slow down less than interpreted arithmetic does in a
  slow spell.

Neither calls anything from ``superjet``, so a change to the program does
not change the reference work, and a slower program still reads slower.
The reference constants are times the reference work took on the
machine the benchmark was defined on, so rescaled times read as seconds
on that machine at that speed.  The spawn sample rescales set-up with
exponent 1.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.0044        # one kernel round at the reference speed
SPAWN_REFERENCE_S = 0.100   # one reference interpreter start
ROUNDS = 5                  # kernel rounds per sample; the sample is their median
SPAWNS = 3                  # interpreter starts per spawn sample; the sample is their median
PERIOD_S = 0.25             # time between samples while operations run
SPAWN_IMPORTS = "import fractions, inspect, json, typing, email.parser, logging"

_LEFT = {(i, i % 3, (i * 7) % 5): Fraction(i + 1, i % 7 + 1) for i in range(40)}
_RIGHT = {(i % 5, i, (i * 3) % 4): Fraction(2 * i + 1, i % 5 + 2) for i in range(30)}


def kernel() -> int:
    """Multiply two fixed sparse polynomials; returns the term count."""
    out = {}
    for (a1, b1, c1), x in _LEFT.items():
        for (a2, b2, c2), y in _RIGHT.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            value = out.get(key, 0) + x * y
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    return len(out)


def sample() -> float:
    """Seconds per kernel round now: the median of ``ROUNDS`` rounds.

    The collector is paused so that a collection the measured program
    left pending does not land in the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(ROUNDS):
            t = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def spawn_sample() -> float:
    """Seconds per reference interpreter start now: the median of ``SPAWNS``."""
    times = []
    for _ in range(SPAWNS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SPAWN_IMPORTS], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Sampler:
    """Kernel samples taken every ``PERIOD_S`` seconds from ``SIGALRM``.

    ``marks`` holds ``(t0, t1, seconds per round)`` for each sample, with
    ``t0``/``t1`` on the ``time.perf_counter`` clock.  ``start`` and
    ``stop`` take a sample themselves, so every operation timed between
    them has a sample before and after it.
    """

    def __init__(self):
        self.marks = []
        self._previous = None

    def _take(self):
        t0 = time.perf_counter()
        seconds = sample()
        self.marks.append((t0, time.perf_counter(), seconds))

    def _on_alarm(self, _signum, _frame):
        self._take()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)  # one shot: never re-entered

    def start(self):
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()


def rescale(start: float, end: float, marks: list, exponent: float = 1.0) -> tuple:
    """Work time and rescaled time of the span ``[start, end]``.

    Samples taken inside the span are not work and are cut out.  Each
    piece of work between two samples is multiplied by
    ``(REFERENCE_S / mean of those two samples) ** exponent``.  The
    exponent is how strongly the measured work slows down when the kernel
    slows down: code that leans on other parts of the machine than the
    kernel does slows down less in a slow spell.
    """
    before = [m for m in marks if m[1] <= start]
    inside = [m for m in marks if start <= m[0] < end]
    after = [m for m in marks if m[0] >= end]
    work = scaled = 0.0
    t, left = start, before[-1]
    for right in inside + after[:1]:
        piece = min(right[0], end) - t
        work += piece
        scaled += piece * (REFERENCE_S / statistics.fmean((left[2], right[2]))) ** exponent
        t, left = right[1], right
    return work, scaled
