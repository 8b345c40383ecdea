"""Wall times converted to reference seconds: the time a section would
take on a core that runs at a fixed reference speed.

The benchmark's host gives each virtual CPU a share of a physical core
whose other hardware thread belongs to someone else. While that thread
is busy, this one runs about 1.8 times slower, and the busy and idle
spells last seconds. Wall times of the same work then spread by half
between runs, which hides any change to headerscan.

`Speedometer` measures the core's speed while a section runs. A
SIGALRM timer interrupts the section every INTERVAL_S of wall time and
times one fixed probe: regex matching, bytes and dict work and a small
numpy product, the kinds of work headerscan does. Each probe gives a
speed, REFERENCE_PROBE_S divided by its duration. With s(t) the speed
at time t, a section of wall time T does work proportional to the
integral of s(t) over T, and the mean of speeds sampled evenly in time
estimates that integral divided by T. So

    reference seconds = (T - time spent in probes) * mean(speeds)

is what the section would take at speed 1: it changes when headerscan
does more or less work, and not when the neighbour's load does.
Probes add 2 to 4% to a section's wall time; their time is taken out.
Python runs the handler between bytecodes, so a probe due inside a
long numpy call runs when that call returns.
"""

from __future__ import annotations

import re
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# the probe's duration on an idle core of the reference host (Intel
# Xeon, model 207, 2.1 GHz); a constant, so figures compare across runs
REFERENCE_PROBE_S = 4.2e-4

_LINES = [(f"Received: from relay{i}.example.org (10.0.{i % 256}."
           f"{7 * i % 256}) by mx.example.net; Tue, 3 Mar 2009 "
           f"1{i % 10}:0{i % 6}:00 +0000").encode() for i in range(200)]
_PATTERN = re.compile(rb"from (\S+) \(([\d.]+)\)")
_MATRIX = np.arange(64, dtype=float).reshape(8, 8) / 64


def probe() -> float:
    """Fixed work; the value only keeps it from being optimised away."""
    acc = 0.0
    seen: dict[str, int] = {}
    for line in _LINES:
        m = _PATTERN.search(line)
        host = m.group(1).decode()
        seen[host] = seen.get(host, 0) + sum(int(p) for p in
                                             m.group(2).split(b"."))
        acc += len(line.split(b";")[1].strip())
    return acc + float(np.tanh(_MATRIX @ _MATRIX[3]).sum()) + len(seen)


class Speedometer:
    """Use as a context manager around one timed section; afterwards
    `wall_s` and `reference_s` hold its two times."""

    def __init__(self):
        self.speeds: list[float] = []
        self.probe_s = 0.0
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._t0 = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.speeds.append(REFERENCE_PROBE_S / (t1 - t0))
        self.probe_s += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter less the time probes have taken so far, to time
        parts of the section without the probes."""
        return time.perf_counter() - self.probe_s

    def __enter__(self) -> "Speedometer":
        self._sample()  # a short section still gets one sample
        self.probe_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.reference_s = ((self.wall_s - self.probe_s)
                            * statistics.fmean(self.speeds))
