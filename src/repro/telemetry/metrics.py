"""Counters and the registry that owns them.

The registry replaces the ad-hoc ``dict[str, float]`` metric stores
that grew inside the AM and task scheduler: a table of named monotonic
counters. :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.delta`
give per-DAG scoping: snapshot at DAG start, delta at DAG end — the
session-scoped and DAG-scoped views are derived from the *same*
counters and cannot drift.
"""

from __future__ import annotations

__all__ = ["Counter", "MetricsRegistry"]


def _norm(value: float):
    """Present integral floats as ints (keeps legacy output stable)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class Counter:
    """A monotonic accumulator (resettable only by direct assignment)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self.value = value

    def inc(self, delta: float = 1.0) -> float:
        self.value = value = self.value + delta
        return value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={_norm(self.value)}>"


class MetricsRegistry:
    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self._unscoped: list[str] = []   # un-namespaced counter names

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created at 0 on first use."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
            if "." not in name:
                self._unscoped.append(name)
        return counter

    def unscoped_names(self) -> list[str]:
        """Un-namespaced counter names in creation order (the legacy
        DAGStatus metric surface)."""
        return self._unscoped

    # -- scoping --------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Raw counter values, for a later :meth:`delta`."""
        return {name: c.value for name, c in self.counters.items()}

    def delta(self, base: dict[str, float]) -> dict:
        """Per-counter growth since ``base`` (missing keys count as 0),
        every counter in creation order."""
        return {
            name: _norm(c.value - base.get(name, 0.0))
            for name, c in self.counters.items()
        }

    def as_dict(self) -> dict:
        return {name: _norm(c.value) for name, c in self.counters.items()}
