"""Hierarchical spans over the simulation clock.

A :class:`Span` is a named interval with a kind, optional parent and
attribute dict. The hierarchy mirrors the execution model:

    session -> dag -> vertex -> attempt
    session -> container            (lifecycle of one held container)
    attempt ~> fetch                (shuffle fetches, linked by attrs)

Spans are cheap records — no context managers, no thread-locals; the
emitting code calls :meth:`Tracer.start` / :meth:`Tracer.finish`
explicitly with the simulation's current time.

When the tracer is given a *sink* (the partitioned
:class:`~repro.telemetry.store.SpanStore`), it stops being the system
of record: only **open** spans stay resident; a span's
:meth:`Span.record` tuple is handed to the sink the moment it finishes
and queries for closed spans go through the store. Without a sink the
tracer retains everything, exactly as it always did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

__all__ = ["Span", "Tracer"]


@dataclass(slots=True)
class Span:
    span_id: int
    kind: str           # "session" | "dag" | "vertex" | "attempt" | ...
    name: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def record(self) -> tuple:
        """The store's record of this span, as it stands now. It shares
        ``attrs``, so an update before the record is flushed lands."""
        return (self.span_id, self.kind, self.name, self.start, self.end,
                self.parent_id, self.attrs)

    def __repr__(self) -> str:
        end = f"{self.end:.3f}" if self.end is not None else "..."
        return f"<Span {self.kind}:{self.name} [{self.start:.3f},{end}]>"


class Tracer:
    """Creates and collects spans; timestamps default to ``env.now``."""

    def __init__(self, env=None, sink=None):
        self.env = env
        self.sink = sink
        self.spans: list[Span] = []     # full retention (sink-less only)
        self._by_id: dict[int, Span] = {}
        self._count = 0

    def _now(self, ts: Optional[float]) -> float:
        if ts is not None:
            return ts
        if self.env is not None:
            return self.env.now
        raise ValueError("tracer has no clock: pass ts= explicitly")

    def start(
        self,
        kind: str,
        name: str,
        parent: Union[Span, int, None] = None,
        ts: Optional[float] = None,
        **attrs,
    ) -> Span:
        if ts is None:
            ts = self._now(None)
        return self._start(kind, name, parent, ts, attrs)

    def _start(self, kind: str, name: str, parent, ts: float,
               attrs: dict) -> Span:
        # Hot-path core: takes the attrs dict by reference so callers
        # that already hold one (the facade) skip a kwargs re-copy.
        if parent is not None and parent.__class__ is Span:
            parent = parent.span_id
        self._count = span_id = self._count + 1
        span = Span(span_id, kind, name, ts, None, parent, attrs)
        if self.sink is None:
            self.spans.append(span)
        self._by_id[span_id] = span
        return span

    def finish(self, span: Span, ts: Optional[float] = None,
               **attrs) -> Span:
        if span.end is None:
            if ts is None:
                ts = self.env.now if self.env is not None else \
                    self._now(None)
            span.end = ts
            if attrs:
                span.attrs.update(attrs)
            if self.sink is not None:
                # Closed: the store owns its record now. Drop our
                # reference so resident state is exactly the open set.
                self._by_id.pop(span.span_id, None)
                self.sink.add_span(span.record())
        elif attrs:
            span.attrs.update(attrs)
        return span

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def open_spans(self) -> list[Span]:
        """Unfinished spans in creation order."""
        if self.sink is None:
            return [s for s in self.spans if not s.finished]
        return sorted(self._by_id.values(), key=lambda s: s.span_id)

    def children(self, span: Span) -> list[Span]:
        source = self.spans if self.sink is None else self.open_spans()
        return [s for s in source if s.parent_id == span.span_id]

    def select(self, kind: Optional[str] = None, **attrs) -> list[Span]:
        """Matching retained spans — everything ever started when there
        is no sink; only the open set when the store is the record."""
        source = self.spans if self.sink is None else self.open_spans()
        out = []
        for span in source:
            if kind is not None and span.kind != kind:
                continue
            if any(span.attrs.get(k) != v for k, v in attrs.items()):
                continue
            out.append(span)
        return out
