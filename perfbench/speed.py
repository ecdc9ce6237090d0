"""Seconds at reference speed: timing that follows the machine's speed.

The machine this benchmark was defined on changes speed by up to 40% from
one minute to the next, within a single child as well as between children.
So every child runs a short fixed probe (PROBE_ITERATIONS Fraction
additions, no charcond) when it starts, every PROBE_INTERVAL_S seconds on a
timer signal, and when it ends, and records when each probe ran.  A time
span is then measured as: the clock time between its ends, less the probes
inside it, each gap between two probes scaled by the median speed
(PROBE_S over the probe's duration) of the NEIGHBOURS probes on either side
of it (fewer at a child's ends), so that one probe slowed by an
interruption does not slow the time around it.  The probe runs with the
garbage collector off, so that a collection, whose cost grows with
charcond's heap, falls on charcond's time and not on the probe's.
``time.perf_counter`` is CLOCK_MONOTONIC, shared by all processes, so the
parent can place the child's probes on its own clock readings.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_ITERATIONS = 1000
PROBE_INTERVAL_S = 0.1
PROBE_S = 0.0025    # probe duration that defines the reference speed
NEIGHBOURS = 2      # probes on each side of a gap that set its speed


def _probe_work() -> None:
    acc, table = Fraction(0), {}
    for i in range(1, PROBE_ITERATIONS):
        acc += Fraction(i % 97, i % 89 + 1)
        table[i % 1000] = acc.numerator % 7


class Probes:
    """Child side: runs the probes and writes their (start, end) readings."""

    def __init__(self, path: str):
        self.path = path
        self.samples: list[tuple[float, float]] = []
        self.on_probe = None    # called with each probe's duration

    def probe(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _probe_work()
        end = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((start, end))
        if self.on_probe is not None:
            self.on_probe(end - start)

    def start(self) -> None:
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()
        with open(self.path, "w") as fh:
            json.dump(self.samples, fh)


class Timeline:
    """Parent side: the speed-scaled length of any span of a child's life."""

    def __init__(self, samples: list[list[float]]):
        samples = sorted(samples)
        speeds = [PROBE_S / (end - start) for start, end in samples]
        # gaps between probes: (from, to, speed), the outer two unbounded
        self.gaps = [(float("-inf"), samples[0][0],
                      statistics.median(speeds[:NEIGHBOURS]))]
        for i, ((_, e0), (s1, _)) in enumerate(zip(samples, samples[1:])):
            near = speeds[max(0, i + 1 - NEIGHBOURS):i + 1 + NEIGHBOURS]
            self.gaps.append((e0, s1, statistics.median(near)))
        self.gaps.append((samples[-1][1], float("inf"),
                          statistics.median(speeds[-NEIGHBOURS:])))

    def seconds(self, start: float, end: float) -> float:
        total = 0.0
        for lo, hi, speed in self.gaps:
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                total += overlap * speed
        return total


def load_timeline(path) -> Timeline | None:
    """The timeline a child wrote, or None when it wrote none."""
    try:
        with open(path) as fh:
            samples = json.load(fh)
    except (OSError, ValueError):
        return None
    return Timeline(samples) if samples else None
