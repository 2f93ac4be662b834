"""Post-hoc scans over a whole timeline: the oracle the incremental
rollups are checked against.

``repro.telemetry.rollups.RollupEngine`` folds every DAG's summary and
critical path as its spans close, and ``query`` reads only that. These
functions compute the same reports the slow way, from every stored
span and event of a :class:`~repro.telemetry.timeline.TimelineStore`,
through the same ``effective_update`` / ``walk_chain`` / ``telescope``
steps - so a test can say "the rollup equals a full scan".
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.analysis import (CriticalPathReport, DagSummary,
                                      effective_update, telescope,
                                      walk_chain)
from repro.telemetry.spans import Span
from repro.telemetry.timeline import TimelineStore

__all__ = ["critical_path", "dag_summary", "summarize_session", "dag_ids",
           "dag_span", "vertex_spans", "attempt_spans"]


def dag_ids(store: TimelineStore) -> list[str]:
    """DAG execution ids in submission order."""
    out = []
    for span in store.spans(kind="dag"):
        dag_id = span.attrs.get("dag", span.name)
        if dag_id not in out:
            out.append(dag_id)
    return out


def dag_span(store: TimelineStore, dag_id: str) -> Optional[Span]:
    for span in store.spans(kind="dag"):
        if span.attrs.get("dag", span.name) == dag_id:
            return span
    return None


def vertex_spans(store: TimelineStore, dag_id: str) -> list[Span]:
    return store.spans(kind="vertex", dag=dag_id)


def attempt_spans(store: TimelineStore, dag_id: str,
                  vertex: Optional[str] = None) -> list[Span]:
    attrs = {"dag": dag_id}
    if vertex is not None:
        attrs["vertex"] = vertex
    return store.spans(kind="attempt", **attrs)


def _effective_attempts(store: TimelineStore,
                        dag_id: str) -> dict[tuple[str, int], Span]:
    """Latest-finishing succeeded attempt per (vertex, task index)."""
    eff: dict[tuple[str, int], Span] = {}
    for span in attempt_spans(store, dag_id):
        effective_update(eff, span)
    return eff


def _producers(store: TimelineStore,
               dag_id: str) -> dict[str, list[tuple[str, str]]]:
    """vertex name -> [(producer vertex, data movement), ...]."""
    out: dict[str, list[tuple[str, str]]] = {}
    for ev in store.events(kind="am.dag_submitted", dag=dag_id):
        for src, dst, movement in ev.attrs.get("edges", []):
            out.setdefault(dst, []).append((src, movement))
    return out


def critical_path(store: TimelineStore, dag_id: str) -> CriticalPathReport:
    dag = dag_span(store, dag_id)
    if dag is None or not dag.finished:
        raise ValueError(f"no finished dag span for {dag_id!r}")

    report = CriticalPathReport(
        dag_id=dag_id,
        dag_name=dag.attrs.get("dag_name", dag.name),
        start=dag.start,
        end=dag.end,
    )
    eff = _effective_attempts(store, dag_id)
    producers = _producers(store, dag_id) if eff else {}
    telescope(report, walk_chain(eff, producers))
    return report


def dag_summary(store: TimelineStore, dag_id: str,
                with_critical_path: bool = True) -> DagSummary:
    dag = dag_span(store, dag_id)
    if dag is None:
        raise ValueError(f"unknown dag {dag_id!r}")
    finished = store.events(kind="am.dag_finished", dag=dag_id)
    outcome = finished[-1].attrs.get("state", "?") if finished else "RUNNING"

    attempts = attempt_spans(store, dag_id)
    outcomes = [span.attrs.get("outcome") for span in attempts]
    critical = None
    if with_critical_path and dag.finished:
        critical = critical_path(store, dag_id)

    end = dag.end if dag.end is not None else dag.start
    return DagSummary(
        dag_id=dag_id,
        name=dag.attrs.get("dag_name", dag.name),
        outcome=outcome,
        wall_clock=end - dag.start,
        vertices=len(vertex_spans(store, dag_id)),
        attempts=len(attempts),
        succeeded=outcomes.count("succeeded"),
        failed=outcomes.count("failed"),
        killed=outcomes.count("killed"),
        speculations=len(store.events(kind="am.speculation", dag=dag_id)),
        reexecutions=len(store.events(kind="am.reexecution", dag=dag_id)),
        fetch_retries=len(store.events(kind="shuffle.fetch_retry",
                                       dag=dag_id)),
        # Faults are cluster-scoped (no dag attr): count those injected
        # while this DAG was on the clock.
        faults=len(store.events(kind="chaos.fault", since=dag.start,
                                until=end)),
        critical=critical,
    )


def summarize_session(store: TimelineStore,
                      with_critical_path: bool = True) -> list[DagSummary]:
    return [
        dag_summary(store, dag_id, with_critical_path=with_critical_path)
        for dag_id in dag_ids(store)
    ]
