"""The Chrome trace view of a timeline, and the record schema check.

The Chrome exporter produces the ``chrome://tracing`` / Perfetto
"JSON Array Format": a list of events where durations are ``"X"``
(complete) events, point-in-time markers are ``"i"`` (instant) events
and ``"M"`` (metadata) events name the processes and threads.

Mapping from the simulated cluster onto the trace-viewer model:

* **pid 0** is the Tez AM: the DAG span renders on tid 1 and each
  vertex span on its own tid (2..).
* **pid 1..N** is one per cluster node; each container the node ever
  launched gets its own tid, so container lifecycles and the task
  attempts they host nest visually. Shuffle-fetch spans render on the
  node's tid 0 ("shuffle" lane).
* Faults, blacklists and node losses are instant events on the pid/tid
  they affected.

Timestamps are simulated seconds scaled to microseconds (``ts * 1e6``)
because trace viewers assume microsecond resolution.

The lossless form of a run is its persisted store (``segments/`` +
``MANIFEST.json``); a trace is a view of one: ``python -m
repro.telemetry.query STORE --chrome-trace OUT.json``.
:func:`validate_records` is the per-record schema
``python -m repro.telemetry.check --store`` applies to every segment.
"""

from __future__ import annotations

import json
from typing import Optional

from .timeline import TimelineStore

__all__ = ["chrome_trace", "write_chrome_trace", "validate_records"]

_US = 1_000_000  # simulated seconds -> trace-viewer microseconds


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------

class _TidMap:
    """Stable pid/tid assignment for nodes, containers and AM lanes."""

    def __init__(self):
        self._node_pids: dict[str, int] = {}
        self._container_tids: dict[tuple[int, str], int] = {}
        self._next_tid_by_pid: dict[int, int] = {}
        self.metadata: list[dict] = []
        self._register_process(0, "tez-am")
        self._register_thread(0, 1, "dag")

    def _register_process(self, pid: int, name: str) -> None:
        self.metadata.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": name},
        })

    def _register_thread(self, pid: int, tid: int, name: str) -> None:
        self.metadata.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name},
        })

    def node_pid(self, node_id: str) -> int:
        pid = self._node_pids.get(node_id)
        if pid is None:
            pid = self._node_pids[node_id] = len(self._node_pids) + 1
            self._register_process(pid, str(node_id))
            self._register_thread(pid, 0, "shuffle")
            self._next_tid_by_pid[pid] = 1
        return pid

    def container_tid(self, node_id: str, container_id: str) -> tuple[int, int]:
        pid = self.node_pid(node_id)
        key = (pid, container_id)
        tid = self._container_tids.get(key)
        if tid is None:
            tid = self._next_tid_by_pid[pid]
            self._next_tid_by_pid[pid] = tid + 1
            self._container_tids[key] = tid
            self._register_thread(pid, tid, str(container_id))
        return pid, tid

    def am_lane(self, name: str) -> int:
        """tid on pid 0 for a named AM lane (dag=1, vertices=2..)."""
        tid = 2 + len([m for m in self.metadata
                       if m["pid"] == 0 and m["name"] == "thread_name"
                       and m["tid"] >= 2])
        self._register_thread(0, tid, name)
        return tid


def _complete(name: str, cat: str, start: float, end: float,
              pid: int, tid: int, args: dict) -> dict:
    return {
        "ph": "X", "name": name, "cat": cat,
        "ts": round(start * _US, 3),
        "dur": round((end - start) * _US, 3),
        "pid": pid, "tid": tid, "args": args,
    }


def _instant(name: str, cat: str, ts: float, pid: int, tid: int,
             args: dict) -> dict:
    return {
        "ph": "i", "name": name, "cat": cat,
        "ts": round(ts * _US, 3),
        "pid": pid, "tid": tid, "s": "t", "args": args,
    }


def chrome_trace(store: TimelineStore,
                 dag_id: Optional[str] = None) -> list[dict]:
    """Trace-event list for the whole session (or one DAG)."""
    tids = _TidMap()
    events: list[dict] = []

    def want(attrs: dict) -> bool:
        return dag_id is None or attrs.get("dag", dag_id) == dag_id

    # AM lanes: DAG spans on tid 1, each vertex span on its own lane.
    vertex_lanes: dict[tuple[str, str], int] = {}
    for span in store.spans(kind="dag"):
        if not span.finished or not want(span.attrs):
            continue
        events.append(_complete(span.name, "dag", span.start, span.end,
                                0, 1, dict(span.attrs)))
    for span in store.spans(kind="vertex"):
        if not span.finished or not want(span.attrs):
            continue
        key = (span.attrs.get("dag", ""), span.name)
        if key not in vertex_lanes:
            vertex_lanes[key] = tids.am_lane(f"vertex:{span.name}")
        events.append(_complete(span.name, "vertex", span.start, span.end,
                                0, vertex_lanes[key], dict(span.attrs)))

    # Container lifecycles: one lane per container on its node's pid.
    for span in store.spans(kind="container"):
        if not span.finished:
            continue
        node = span.attrs.get("node", "?")
        pid, tid = tids.container_tid(node, span.name)
        events.append(_complete(span.name, "container", span.start,
                                span.end, pid, tid, dict(span.attrs)))

    # Task runs nest inside their container lane.
    for ev in store.events(kind="task.run"):
        if not want(ev.attrs):
            continue
        node = ev.attrs.get("node", "?")
        container = ev.attrs.get("container", "?")
        pid, tid = tids.container_tid(node, container)
        start = ev.attrs.get("start", ev.ts)
        events.append(_complete(ev.attrs.get("attempt", "task"), "task",
                                start, ev.ts, pid, tid, dict(ev.attrs)))

    # Shuffle-fetch spans on the node's tid 0.
    for span in store.spans(kind="fetch"):
        if not span.finished or not want(span.attrs):
            continue
        pid = tids.node_pid(span.attrs.get("node", "?"))
        events.append(_complete(span.name, "shuffle", span.start, span.end,
                                pid, 0, dict(span.attrs)))

    # State-machine swimlanes: every am.transition renders as an
    # instant event on a per-machine lane of the AM process (sm:dag,
    # sm:vertex, sm:task, sm:attempt), so control-plane activity is
    # visible next to the spans it drives.
    sm_lanes: dict[str, int] = {}
    for ev in store.events(kind="am.transition"):
        if not want(ev.attrs):
            continue
        machine = str(ev.attrs.get("machine", "?"))
        tid = sm_lanes.get(machine)
        if tid is None:
            tid = sm_lanes[machine] = tids.am_lane(f"sm:{machine}")
        name = (f"{ev.attrs.get('from_state')}"
                f"->{ev.attrs.get('to_state')}")
        events.append(_instant(name, "am.sm", ev.ts, 0, tid,
                               dict(ev.attrs)))

    # Point events: faults, blacklists, node losses, allocations.
    instant_kinds = {
        "chaos.fault": "chaos",
        "am.node_blacklisted": "am",
        "am.speculation": "am",
        "am.reexecution": "am",
        "yarn.node_lost": "yarn",
        "yarn.node_recovered": "yarn",
        "yarn.preemption": "yarn",
    }
    for ev in store.events():
        cat = instant_kinds.get(ev.kind)
        if cat is None or not want(ev.attrs):
            continue
        node = ev.attrs.get("node")
        pid = tids.node_pid(node) if node else 0
        tid = 0 if node else 1
        events.append(_instant(ev.kind, cat, ev.ts, pid, tid,
                               dict(ev.attrs)))

    return tids.metadata + sorted(events, key=lambda e: (e["ts"], e["pid"]))


def write_chrome_trace(store: TimelineStore, path: str,
                       dag_id: Optional[str] = None) -> int:
    """Write ``path`` as a Chrome trace; returns the event count."""
    events = chrome_trace(store, dag_id=dag_id)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ms"}, fh, indent=None)
    return len(events)


# ---------------------------------------------------------------------------
# Record schema (what every store segment line holds)
# ---------------------------------------------------------------------------

_EVENT_KEYS = {"type", "seq", "ts", "kind", "attrs"}
_SPAN_KEYS = {"type", "span_id", "kind", "name", "start", "end",
              "parent_id", "attrs"}


def validate_records(records: list[dict]) -> list[str]:
    """Schema-check span / event records; returns a list of problems
    (empty when every record is well-formed)."""
    problems = []
    for i, rec in enumerate(records):
        where = f"record {i}"
        if not isinstance(rec, dict):
            problems.append(f"{where}: not an object")
            continue
        rtype = rec.get("type")
        if rtype == "event":
            missing = _EVENT_KEYS - rec.keys()
            if missing:
                problems.append(f"{where}: event missing {sorted(missing)}")
                continue
            if not isinstance(rec["ts"], (int, float)) or rec["ts"] < 0:
                problems.append(f"{where}: bad ts {rec['ts']!r}")
            if not isinstance(rec["kind"], str) or not rec["kind"]:
                problems.append(f"{where}: bad kind {rec.get('kind')!r}")
            if not isinstance(rec["attrs"], dict):
                problems.append(f"{where}: attrs not an object")
        elif rtype == "span":
            missing = _SPAN_KEYS - rec.keys()
            if missing:
                problems.append(f"{where}: span missing {sorted(missing)}")
                continue
            if not isinstance(rec["start"], (int, float)):
                problems.append(f"{where}: bad start {rec['start']!r}")
            end = rec["end"]
            if end is not None:
                if not isinstance(end, (int, float)):
                    problems.append(f"{where}: bad end {end!r}")
                elif end < rec["start"]:
                    problems.append(f"{where}: end {end} < start "
                                    f"{rec['start']}")
        else:
            problems.append(f"{where}: unknown type {rtype!r}")
    return problems
