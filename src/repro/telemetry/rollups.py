"""Incremental rollups: per-DAG summaries without re-reading the timeline.

The legacy path answered "how did this DAG go?" by post-hoc scans over
the whole timeline (`analysis.dag_summary` / `analysis.critical_path`)
— fine in memory, impossible once spans stream to disk. The
:class:`RollupEngine` maintains the same aggregates *incrementally*:

* **At span close** — attempt outcomes fold into per-DAG counters and
  the effective-attempt map (`analysis.effective_update`); attempt run
  latencies fold into fixed-bucket per-vertex histograms; closing the
  DAG span triggers the critical-path walk (`analysis.walk_chain` +
  `analysis.telescope`, the same functions the post-hoc scan uses)
  after which the per-task state is dropped.
* **At event emission** — `am.dag_submitted` registers the edge list,
  `am.dag_finished` seals the outcome, speculation/re-execution/fetch
  retry events bump counters, and cluster-scoped `chaos.fault` events
  are kept as a (tiny) timestamp list to window per DAG.

The invariant — enforced by the Hypothesis equivalence test — is that
for any sequence of spans and events, :meth:`RollupEngine.summary`
equals `analysis.dag_summary` and :meth:`RollupEngine.critical` equals
`analysis.critical_path` on the same timeline. Resident cost is the
per-task effective map of *in-flight* DAGs only; finished DAGs keep
just their summary and critical-path segments.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Optional

from .analysis import (CriticalPathReport, DagSummary, effective_update,
                       telescope, walk_chain)

__all__ = ["RollupEngine", "DagRollup", "LATENCY_BUCKETS"]

# Fixed histogram bucket upper bounds (simulated seconds); the last
# bucket is open-ended. Fixed buckets keep rollup payloads mergeable
# across DAGs and sessions.
LATENCY_BUCKETS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0,
                   300.0, 600.0)

# Event kinds the engine folds. The facade offers it only these events,
# and only attempt, vertex and dag spans (on_span_closed folds no other
# kind), so the bulk of the record stream never enters this module.
_INTERESTING = frozenset((
    "am.dag_submitted", "am.dag_finished", "am.speculation",
    "am.reexecution", "shuffle.fetch_retry", "chaos.fault",
))


def _bucket_index(value: float) -> int:
    return bisect_left(LATENCY_BUCKETS, value)


class DagRollup:
    """Aggregates for one DAG execution."""

    __slots__ = ("dag_id", "name", "outcome", "start", "end", "vertices",
                 "attempts", "succeeded", "failed", "killed",
                 "speculations", "reexecutions", "fetch_retries",
                 "latency", "segments", "_eff", "_producers")

    def __init__(self, dag_id: str):
        self.dag_id = dag_id
        self.name = dag_id
        self.outcome: Optional[str] = None   # None -> "RUNNING"
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.vertices = 0
        self.attempts = 0
        self.succeeded = 0
        self.failed = 0
        self.killed = 0
        self.speculations = 0
        self.reexecutions = 0
        self.fetch_retries = 0
        # vertex -> fixed-bucket counts of attempt run latencies
        self.latency: dict[str, list[int]] = {}
        self.segments = None                 # set when the DAG closes
        self._eff: Optional[dict] = {}       # dropped at DAG close
        self._producers: dict[str, list[tuple[str, str]]] = {}

    @property
    def closed(self) -> bool:
        return self.end is not None

    def observe_latency(self, vertex: str, duration: float) -> None:
        counts = self.latency.get(vertex)
        if counts is None:
            counts = self.latency[vertex] = [0] * (len(LATENCY_BUCKETS) + 1)
        counts[_bucket_index(duration)] += 1


class RollupEngine:
    """Folds span closes and event emissions into per-DAG rollups."""

    def __init__(self):
        self._dags: dict[str, DagRollup] = {}
        self._order: list[str] = []          # submission order
        self._fault_ts: list[float] = []     # cluster-scoped, sorted

    # -- lookup ---------------------------------------------------------
    def _rollup(self, dag_id: str) -> DagRollup:
        roll = self._dags.get(dag_id)
        if roll is None:
            roll = self._dags[dag_id] = DagRollup(dag_id)
            self._order.append(dag_id)
        return roll

    def dag_ids(self) -> list[str]:
        return list(self._order)

    def get(self, dag_id: str) -> Optional[DagRollup]:
        return self._dags.get(dag_id)

    # -- fold: spans ----------------------------------------------------
    def on_span_closed(self, span) -> None:
        kind = span.kind
        if kind == "attempt":
            attrs = span.attrs
            dag_id = attrs.get("dag")
            if not dag_id:
                return
            roll = self._rollup(dag_id)
            roll.attempts += 1
            outcome = attrs.get("outcome")
            if outcome == "succeeded":
                roll.succeeded += 1
            elif outcome == "failed":
                roll.failed += 1
            elif outcome == "killed":
                roll.killed += 1
            launched = attrs.get("launched", span.start)
            roll.observe_latency(attrs.get("vertex", ""),
                                 span.end - launched)
            if roll._eff is not None:
                effective_update(roll._eff, span)
        elif kind == "vertex":
            dag_id = span.attrs.get("dag")
            if dag_id:
                self._rollup(dag_id).vertices += 1
        elif kind == "dag":
            dag_id = span.attrs.get("dag", span.name)
            roll = self._rollup(dag_id)
            roll.name = span.attrs.get("dag_name", span.name)
            roll.start = span.start
            roll.end = span.end
            self._finalize_path(roll)

    def _finalize_path(self, roll: DagRollup) -> None:
        """Critical path at DAG close; per-task state is dropped."""
        report = CriticalPathReport(
            dag_id=roll.dag_id, dag_name=roll.name,
            start=roll.start, end=roll.end,
        )
        telescope(report, walk_chain(roll._eff or {}, roll._producers))
        roll.segments = report.segments
        roll._eff = None
        roll._producers = {}

    # -- fold: events ---------------------------------------------------
    def on_event(self, kind: str, ts: float, attrs: dict) -> None:
        if kind not in _INTERESTING:
            return
        if kind == "chaos.fault":
            insort(self._fault_ts, ts)
            return
        dag_id = attrs.get("dag")
        if not dag_id:
            return
        roll = self._rollup(dag_id)
        if kind == "am.dag_submitted":
            for src, dst, movement in attrs.get("edges", []):
                roll._producers.setdefault(dst, []).append((src, movement))
        elif kind == "am.dag_finished":
            roll.outcome = attrs.get("state", "?")
        elif kind == "am.speculation":
            roll.speculations += 1
        elif kind == "am.reexecution":
            roll.reexecutions += 1
        else:  # shuffle.fetch_retry
            roll.fetch_retries += 1

    # -- read side ------------------------------------------------------
    def faults_in(self, start: float, end: float) -> int:
        return (bisect_right(self._fault_ts, end)
                - bisect_left(self._fault_ts, start))

    def critical(self, dag_id: str) -> CriticalPathReport:
        roll = self._dags.get(dag_id)
        if roll is None or not roll.closed:
            raise ValueError(f"no finished dag rollup for {dag_id!r}")
        return CriticalPathReport(
            dag_id=roll.dag_id, dag_name=roll.name,
            start=roll.start, end=roll.end,
            segments=list(roll.segments),
        )

    def summary(self, dag_id: str,
                with_critical_path: bool = True) -> DagSummary:
        roll = self._dags.get(dag_id)
        if roll is None:
            raise ValueError(f"unknown dag {dag_id!r}")
        start = roll.start if roll.start is not None else 0.0
        end = roll.end if roll.end is not None else start
        return DagSummary(
            dag_id=roll.dag_id,
            name=roll.name,
            outcome=roll.outcome if roll.outcome is not None else "RUNNING",
            wall_clock=end - start,
            vertices=roll.vertices,
            attempts=roll.attempts,
            succeeded=roll.succeeded,
            failed=roll.failed,
            killed=roll.killed,
            speculations=roll.speculations,
            reexecutions=roll.reexecutions,
            fetch_retries=roll.fetch_retries,
            faults=self.faults_in(start, end),
            critical=self.critical(dag_id)
            if with_critical_path and roll.closed else None,
        )

    def summaries(self,
                  with_critical_path: bool = True) -> list[DagSummary]:
        return [self.summary(dag_id, with_critical_path)
                for dag_id in self._order]

    # -- persistence ----------------------------------------------------
    def payload(self, dag_id: str) -> dict:
        """JSON-serializable rollup for the store manifest's ``rollups``."""
        roll = self._dags[dag_id]
        summary = self.summary(dag_id, with_critical_path=False)
        return {
            "dag_id": roll.dag_id,
            "name": roll.name,
            "outcome": summary.outcome,
            "start": roll.start,
            "end": roll.end,
            "wall_clock": summary.wall_clock,
            "vertices": roll.vertices,
            "attempts": roll.attempts,
            "succeeded": roll.succeeded,
            "failed": roll.failed,
            "killed": roll.killed,
            "speculations": roll.speculations,
            "reexecutions": roll.reexecutions,
            "fetch_retries": roll.fetch_retries,
            "faults": summary.faults,
            "latency_buckets": list(LATENCY_BUCKETS),
            "latency": roll.latency,
            "critical_path": [
                {"kind": seg.kind, "start": seg.start, "end": seg.end,
                 "vertex": seg.vertex, "attempt": seg.attempt}
                for seg in (roll.segments or [])
            ],
        }
