"""Host-speed calibration: a fixed kernel of interpreter work, timed.

The benchmark runs on shared hosts whose speed changes under it. On the
reference VM the mean speed of a 20-second window varies by 15 % (CV)
within three minutes and single phases run 1.6-2x slow for minutes,
while the program does exactly the same work in every batch: a raw time
says as much about the neighbours as about the code, and no bound of
10 % (or 25 %) holds on it. So every timed region of the ledger runs
under a :class:`HostClock`: a fixed kernel is timed right before the
region, every half second during it (from a timer signal; the pauses
are taken out of the region's time) and right after it, and host time
is reported in **reference-host seconds**::

    measured seconds x mean(REFERENCE_S / kernel seconds) over the samples

On the reference host at rest the factor is 1 and the numbers are plain
seconds; the raw seconds are always logged beside them.

The kernel imports nothing from the program, so no change to the
program can move it. It is shaped like the simulator on purpose - heap
pushes and pops, generator resumption, slotted and dict-backed objects,
keyed sorts, string formatting and dict churn - because what a busy
neighbour costs depends on the instruction mix: a tight arithmetic
loop over-reacts by a factor of two. It is broad rather than tight so
that one process's memory layout does not bias it (min-of-5 differs by
+-3 % between fresh processes), and it runs with the cyclic collector
off so that the size of the benchmark's own heap does not leak in.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

__all__ = ["REFERENCE_S", "HostClock", "kernel_seconds"]

# Kernel time on the reference host (2-core 2.1 GHz VM, CPython 3.11)
# at rest. A constant, so the unit does not move with the host.
REFERENCE_S = 0.045


class _Event:
    __slots__ = ("when", "resume", "value")


class _Record:
    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value
        self.tags: dict = {}

    def bump(self, n: int) -> int:
        self.value = (self.value * 31 + n) % 1_000_003
        return self.value

    def tag(self, name: str) -> None:
        self.tags[name] = self.tags.get(name, 0) + 1


def _process(step: int):
    total = 0
    while True:
        value = yield total
        total = (total + value * step) % 1_000_003


def _events(n: int) -> int:
    heap: list = []
    seen: dict = {}
    out = 0
    processes = [_process(step) for step in range(64)]
    for process in processes:
        next(process)
    for i in range(n):
        event = _Event()
        event.when = (i * 7919) % 1000 / 64.0
        event.resume = processes[i & 63].send
        event.value = i
        heapq.heappush(heap, (event.when, i, event))
        if i & 3 == 3:
            for _ in range(4):
                when, _seq, due = heapq.heappop(heap)
                out += due.resume(due.value)
                seen[due.value & 4095] = (when, out)
    return out


def _records(n: int) -> int:
    records = [_Record(i * 2654435761 % 10007, i) for i in range(n)]
    for record in records:
        record.bump(record.key)
        record.tag("a" if record.key & 1 else "b")
        record.tag("k%d" % (record.key & 7))
    records.sort(key=lambda r: (r.key, r.value))
    groups: dict = {}
    for record in records:
        groups.setdefault(record.key & 255, []).append(
            (record.key, record.value))
    return sum(len(rows) for rows in groups.values())


def _strings(n: int) -> int:
    parts = []
    for i in range(n):
        name = "node%04d/rack%02d" % (i % 500, i % 25)
        parts.append((name, len(name) + i, name.split("/")[0]))
    totals: dict = {}
    for _name, weight, head in parts:
        totals[head] = totals.get(head, 0) + weight
    return len(totals)


def kernel_seconds() -> float:
    """Time one pass of the fixed kernel (cyclic GC off meanwhile)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _events(16_000)
        _records(12_000)
        _strings(16_000)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class HostClock:
    """Times a region in raw and in reference-host seconds::

        with HostClock() as clock:
            work()
        clock.seconds, clock.raw_s, clock.slowness

    The kernel is timed before the region, every ``PERIOD_S`` inside it
    and after it; the samples inside are pauses, taken out of the
    region's time. They come from a timer signal (main thread only; the
    clock owns SIGALRM meanwhile), or, with ``timer=False``, from
    whoever calls :meth:`sample` - the tracer does, at span opens,
    where a pause cannot fall between two lines of its bookkeeping.
    """

    PERIOD_S = 0.5

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.samples: list[float] = []
        self.paused_s = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.paused_s += time.perf_counter() - start

    def __enter__(self) -> "HostClock":
        self.samples.append(kernel_seconds())
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S,
                             self.PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        if self.timer:
            # Disarm first: a sample taken before the clock is read
            # lies inside the region and is taken out with the others.
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        if self.timer:
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_seconds())
        self.raw_s = end - self._start - self.paused_s
        # Samples are evenly spaced in time, so the mean of the speeds
        # they saw is the region's mean speed.
        self.slowness = 1.0 / statistics.fmean(
            REFERENCE_S / sample for sample in self.samples)
        self.seconds = self.raw_s / self.slowness
