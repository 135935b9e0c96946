"""Reference kernel that scales the benchmark's times to one host speed.

The speed of each CPU of the benchmark host changes by up to half within
seconds: a fixed loop takes 8 ms or 12 ms by turns, even with the process
pinned to one CPU (other tenants, clock changes).  So every timed stretch
of program work is bracketed by probes of a fixed stdlib kernel on the
same CPU, and its time is reported in reference seconds: the measured seconds times
``REFERENCE_S`` over the mean of the two probes.  A slow host slows the
kernel with the program and cancels out; a slower program does not slow
the kernel and shows in full.  Nothing here imports ``qcblowup``, so no
change to the program changes the kernel.

Short stretches (a pass, a command) are bracketed by :func:`probe`; long
ones (a grid, a set-up) are cut every ``TICK_S`` by a :class:`Sampler`.

The kernel is a plain integer loop.  On the baseline host the ratio of a
gw-session pass to it stayed within +-3% while the pass itself moved by
+-20%; a kernel of rational sparse-polynomial products, closer in kind to
the program's arithmetic, tracked it less well (+-8%).
"""

from __future__ import annotations

import signal
import time

#: The kernel's time on the host the baseline was measured on (2 cores,
#: Python 3.11.7); a reference second is a second of that host.
REFERENCE_S = 0.01
#: Wall seconds between two probes of a :class:`Sampler`.
TICK_S = 0.5


def kernel() -> int:
    """A fixed loop of integer bytecode."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def probe() -> float:
    """Seconds the kernel takes now: the least of three runs."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(durations: list[float], probes: list[float]) -> list[float]:
    """Each duration in reference seconds, by the mean of the probes taken
    right before and right after it (``probes`` has one entry more)."""
    if len(probes) != len(durations) + 1:
        raise ValueError("need one probe before each duration and one after the last")
    return [d * 2 * REFERENCE_S / (probes[i] + probes[i + 1])
            for i, d in enumerate(durations)]


class Sampler:
    """While entered, runs the kernel once every ``TICK_S`` from a SIGALRM
    handler, between two bytecodes of whatever the process is doing, and
    once on entry and on exit.  :meth:`stretches` gives the work between
    the probes, for :func:`scale`."""

    def __init__(self) -> None:
        self._ticks: list[tuple[float, float]] = []  # (end, seconds) of each probe
        self._previous = None

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self._ticks.append((end, end - start))

    def __enter__(self) -> "Sampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def stretches(self) -> tuple[list[float], list[float]]:
        """(seconds of work between consecutive probes, seconds of each probe)."""
        durations = [(end - probe_s) - previous_end for (previous_end, _), (end, probe_s)
                     in zip(self._ticks, self._ticks[1:])]
        return durations, [probe_s for _, probe_s in self._ticks]
