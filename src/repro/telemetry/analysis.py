"""Timeline analysis: the per-DAG report types and the critical-path
walk that :class:`~repro.telemetry.rollups.RollupEngine` folds as spans
close (``query --summary`` / ``--critical-path`` read the result from a
store's manifest).

The critical path answers "why did this DAG take this long?". It is
computed purely from the telemetry timeline — no AM internals — by
walking backwards from the attempt that finished last:

1. For every task, take its *effective* completion: the
   latest-finishing SUCCEEDED attempt (re-executions for lost output
   count; speculative losers are KILLED and thus excluded).
2. The predecessor of an attempt is the latest-finishing effective
   producer attempt among its vertex's input edges (ONE_TO_ONE edges
   constrain the partner index; scatter-gather and broadcast consider
   all producer tasks).
3. Boundaries between consecutive path nodes are attributed to
   *telescoping* segments — ``init`` (DAG start to first attempt
   queued), ``wait`` (producer done but attempt not yet queued),
   ``queue`` (waiting for a container), ``run`` (executing) and
   ``finalize`` (last attempt done to DAG end) — so the segment
   durations always sum to the DAG wall-clock exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .spans import Span

__all__ = ["CriticalPathSegment", "CriticalPathReport", "DagSummary",
           "effective_update", "walk_chain", "telescope"]


@dataclass
class CriticalPathSegment:
    kind: str                # init | wait | queue | run | finalize
    start: float
    end: float
    vertex: str = ""
    attempt: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathReport:
    dag_id: str
    dag_name: str
    start: float
    end: float
    segments: list[CriticalPathSegment] = field(default_factory=list)

    @property
    def wall_clock(self) -> float:
        return self.end - self.start

    @property
    def total(self) -> float:
        return sum(seg.duration for seg in self.segments)

    def breakdown(self) -> dict[str, float]:
        """Total duration on the path per segment kind."""
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.kind] = out.get(seg.kind, 0.0) + seg.duration
        return out

    def render(self) -> str:
        lines = [
            f"critical path of {self.dag_id} ({self.dag_name}): "
            f"{self.wall_clock:.3f}s wall-clock",
        ]
        for seg in self.segments:
            what = seg.attempt or seg.vertex or "-"
            lines.append(
                f"  {seg.start:9.3f} -> {seg.end:9.3f}  "
                f"{seg.kind:<8} {seg.duration:8.3f}s  {what}"
            )
        parts = ", ".join(
            f"{kind}={dur:.3f}s"
            for kind, dur in sorted(self.breakdown().items())
        )
        lines.append(f"  breakdown: {parts}")
        return "\n".join(lines)


def effective_update(eff: dict[tuple[str, int], Span],
                     span: Span) -> None:
    """Fold one attempt span into the effective-attempt map.

    The effective completion of a task is its latest-finishing
    SUCCEEDED attempt; exact end-time ties keep the lowest span id, so
    folding in close order (incremental rollups) and in creation order
    (post-hoc scans) converge on the same map.
    """
    if not span.finished or span.attrs.get("outcome") != "succeeded":
        return
    key = (span.attrs.get("vertex", ""), span.attrs.get("index", 0))
    best = eff.get(key)
    if best is None or span.end > best.end or (
            span.end == best.end and span.span_id < best.span_id):
        eff[key] = span


def _latest(spans) -> Span:
    """Deterministic "finished last": ties on (end, start) resolve to
    the lowest span id regardless of container iteration order, so the
    incremental (close-order) and post-hoc (creation-order) walks pick
    the same attempt."""
    return max(spans, key=lambda s: (s.end, s.start, -s.span_id))


def walk_chain(eff: dict[tuple[str, int], Span],
               producers: dict[str, list[tuple[str, str]]]) -> list[Span]:
    """Backward critical-path walk from the attempt that finished
    last, returned in forward (execution) order."""
    if not eff:
        return []
    cur = _latest(eff.values())
    chain = [cur]
    while True:
        candidates: list[Span] = []
        for src, movement in producers.get(cur.attrs.get("vertex", ""), []):
            if movement == "ONE_TO_ONE":
                partner = eff.get((src, cur.attrs.get("index", 0)))
                if partner is not None:
                    candidates.append(partner)
            else:
                candidates.extend(
                    span for (vertex, _i), span in eff.items()
                    if vertex == src
                )
        candidates = [c for c in candidates if c.end <= cur.end]
        if not candidates:
            break
        cur = _latest(candidates)
        chain.append(cur)
    chain.reverse()
    return chain


def telescope(report: CriticalPathReport, chain: list[Span]) -> None:
    """Fill ``report.segments`` by telescoping the chain over the DAG
    window: every boundary is clamped into the window of its attempt,
    so consecutive segments share endpoints and the sum is exactly
    ``report.end - report.start``. An empty chain (nothing succeeded:
    failed/killed DAG) renders the whole window as one opaque ``init``
    segment so the invariant still holds."""
    if not chain:
        report.segments.append(CriticalPathSegment(
            "init", report.start, report.end, vertex="", attempt=""))
        return

    t = report.start

    def push(kind: str, start: float, end: float, span: Span) -> float:
        if end > start:
            report.segments.append(CriticalPathSegment(
                kind, start, end,
                vertex=span.attrs.get("vertex", ""),
                attempt=span.attrs.get("attempt", span.name),
            ))
        return max(start, end)

    for i, span in enumerate(chain):
        queued = min(max(span.start, t), span.end)
        launched = min(max(span.attrs.get("launched", span.start), queued),
                      span.end)
        t = push("init" if i == 0 else "wait", t, queued, span)
        t = push("queue", queued, launched, span)
        t = push("run", launched, span.end, span)

    if report.end > t:
        report.segments.append(CriticalPathSegment(
            "finalize", t, report.end,
            vertex=chain[-1].attrs.get("vertex", ""),
            attempt="",
        ))


@dataclass
class DagSummary:
    dag_id: str
    name: str
    outcome: str
    wall_clock: float
    vertices: int
    attempts: int
    succeeded: int
    failed: int
    killed: int
    speculations: int
    reexecutions: int
    fetch_retries: int
    faults: int
    critical: Optional[CriticalPathReport] = None

    def line(self) -> str:
        return (
            f"{self.dag_id} ({self.name}): {self.outcome} in "
            f"{self.wall_clock:.3f}s — {self.vertices} vertices, "
            f"{self.attempts} attempts ({self.succeeded} ok / "
            f"{self.failed} failed / {self.killed} killed), "
            f"{self.speculations} speculations, "
            f"{self.reexecutions} re-executions, "
            f"{self.fetch_retries} fetch retries, "
            f"{self.faults} faults"
        )

    def render(self) -> str:
        parts = [self.line()]
        if self.critical is not None:
            parts.append(self.critical.render())
        return "\n".join(parts)
