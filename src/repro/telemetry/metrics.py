"""Typed metric instruments and the registry that owns them.

The registry replaces the ad-hoc ``dict[str, float]`` metric stores
that grew inside the AM and task scheduler. Counters are monotonic
accumulators, gauges hold last-written values, histograms keep samples
for percentile queries. :meth:`MetricsRegistry.snapshot` /
:meth:`MetricsRegistry.delta` give per-DAG scoping: snapshot at DAG
start, delta at DAG end — the session-scoped and DAG-scoped views are
derived from the *same* counters and cannot drift.

:class:`MetricsView` is a ``MutableMapping`` facade over the counters
so legacy call sites (``am.metrics["reexecutions"] += 1``,
``dict(am.metrics)``) keep working unchanged.
"""

from __future__ import annotations

import math
from typing import Iterator, MutableMapping, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "MetricsView", "ReadCounter", "Snapshot"]


def _norm(value: float):
    """Present integral floats as ints (keeps legacy output stable)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class Counter:
    """A monotonic accumulator (resettable only by direct assignment).

    Registry-owned counters participate in dirty-key tracking: any
    mutation appends the counter to the registry's modification log
    (at most once per snapshot window), which is what makes
    :meth:`MetricsRegistry.delta_sparse` O(changed keys).
    """

    __slots__ = ("name", "_value", "_reg", "_idx", "_log_pos")

    def __init__(self, name: str, value: float = 0.0,
                 _registry: Optional["MetricsRegistry"] = None,
                 _idx: int = 0):
        self.name = name
        self._value = value
        self._reg = _registry
        self._idx = _idx
        self._log_pos = -1

    def _mark(self) -> None:
        reg = self._reg
        # Re-log only when no entry of ours is visible to the most
        # recent snapshot: one log append per counter per window.
        if reg is not None and self._log_pos < reg._max_base_pos:
            self._log_pos = len(reg._mod_log)
            reg._mod_log.append(self)

    @property
    def value(self) -> float:
        return self._value

    @value.setter
    def value(self, value: float) -> None:
        self._value = value
        self._mark()

    def inc(self, delta: float = 1.0) -> float:
        value = self._value + delta
        self._value = value
        self._mark()
        return value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={_norm(self._value)}>"


class ReadCounter(Counter):
    """A counter kept by someone else and read on demand: ``read()`` is
    its value. For a count bumped where the work happens (a kernel
    integer) that must not call into Python each time. Read-only:
    ``inc`` and assignment raise ``AttributeError``; being written
    nowhere, it never enters the registry's modification log, so
    :meth:`MetricsRegistry.delta_sparse` does not see it move."""

    __slots__ = ("_read",)

    def __init__(self, name: str, read, _registry=None, _idx: int = 0):
        self.name = name
        self._read = read
        self._reg = _registry
        self._idx = _idx
        self._log_pos = -1

    @property
    def _value(self) -> float:
        return self._read()


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value", "updated_at")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self.updated_at: Optional[float] = None

    def set(self, value: float, ts: Optional[float] = None) -> None:
        self.value = value
        self.updated_at = ts

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Sample-keeping distribution (simulations are small enough)."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, q in [0, 100]."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(q * len(ordered) / 100.0))
        return ordered[rank - 1]

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3f}>"


class Snapshot(dict):
    """Counter values at snapshot time — a plain dict byte-for-byte —
    plus the registry's modification-log position, which lets
    :meth:`MetricsRegistry.delta_sparse` visit only counters that
    changed since, instead of diffing the full registry."""

    __slots__ = ("log_pos",)


class MetricsRegistry:
    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        # Dirty-key tracking: counters append themselves here on first
        # mutation after each snapshot; snapshots record their position.
        self._mod_log: list[Counter] = []
        self._max_base_pos = 0
        self._unscoped: list[str] = []   # un-namespaced counter names

    # -- instrument access (create on demand) ---------------------------
    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(
                name, _registry=self, _idx=len(self.counters))
            if "." not in name:
                self._unscoped.append(name)
        return counter

    def read_counter(self, name: str, read) -> ReadCounter:
        """Register ``name`` as a :class:`ReadCounter` over ``read``."""
        counter = self.counters[name] = ReadCounter(
            name, read, _registry=self, _idx=len(self.counters))
        return counter

    def unscoped_names(self) -> list[str]:
        """Un-namespaced counter names in creation order (the legacy
        DAGStatus metric surface)."""
        return self._unscoped

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    # -- scoping --------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """Raw counter values, for later :meth:`delta` /
        :meth:`delta_sparse` scoping. Byte-identical to the historical
        plain dict; additionally carries the dirty-log position."""
        snap = Snapshot(
            (name, c._value) for name, c in self.counters.items())
        snap.log_pos = len(self._mod_log)
        if snap.log_pos > self._max_base_pos:
            self._max_base_pos = snap.log_pos
        return snap

    def delta(self, base: dict[str, float]) -> dict:
        """Per-counter growth since ``base`` (missing keys count as 0)."""
        return {
            name: _norm(c.value - base.get(name, 0.0))
            for name, c in self.counters.items()
        }

    def delta_sparse(self, base: dict[str, float]) -> dict:
        """Growth since ``base`` visiting only counters that changed —
        O(changed keys), not O(registry). Keys appear in counter
        creation order (same relative order as :meth:`delta`); counters
        untouched since the snapshot are simply absent. Falls back to
        the full :meth:`delta` for plain-dict bases."""
        pos = getattr(base, "log_pos", None)
        if pos is None:
            return self.delta(base)
        changed: dict[str, Counter] = {}
        for c in self._mod_log[pos:]:
            if c.name not in changed and self.counters.get(c.name) is c:
                changed[c.name] = c
        return {
            c.name: _norm(c._value - base.get(c.name, 0.0))
            for c in sorted(changed.values(), key=lambda c: c._idx)
        }

    def as_dict(self) -> dict:
        return {name: _norm(c.value) for name, c in self.counters.items()}

    def view(self) -> "MetricsView":
        return MetricsView(self)


class MetricsView(MutableMapping):
    """Dict-compatible live view over a registry's counters."""

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry

    def __getitem__(self, key: str):
        counter = self._registry.counters.get(key)
        if counter is None:
            raise KeyError(key)
        return _norm(counter.value)

    def __setitem__(self, key: str, value: float) -> None:
        self._registry.counter(key).value = float(value)

    def __delitem__(self, key: str) -> None:
        del self._registry.counters[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry.counters)

    def __len__(self) -> int:
        return len(self._registry.counters)

    def __repr__(self) -> str:
        return f"MetricsView({self._registry.as_dict()!r})"
