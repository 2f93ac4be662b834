"""Timeline query service over a partitioned store directory.

The ATS-analogue read path: where production Tez answers the Tez UI
from the YARN Application Timeline Server, this CLI answers the same
questions from a persisted ``SpanStore`` directory (``segments/`` plus
``MANIFEST.json``, which also carries the per-DAG rollups, shard
summaries and kernel counters) without loading the timeline into
memory.

Usage::

    python -m repro.telemetry.query STORE_DIR [filters] [mode]

Filters (compose; segment partitions prune what gets read):

    --events / --spans        record class (default: both)
    --kind KIND               exact kind ("attempt", "yarn.allocation")
    --prefix P                event-kind prefix ("am.", "shuffle.")
    --dag DAG_ID              records of one DAG execution
    --since T / --until T     simulated-time window
    --under SPAN_ID           spans under this ancestor (transitively)
    --limit N                 stop after N records

Modes:

    (default)                 matching records as JSONL on stdout
    --summary                 per-DAG summary lines (reads the
                              manifest's rollups when present; falls
                              back to a segment scan), then shard and
                              kernel lines
    --critical-path [DAG]     rendered critical path (rollups or scan)

A store is written once, when its run persists it, so there is nothing
to tail: query a run after it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import (CriticalPathReport, CriticalPathSegment,
                       DagSummary, critical_path, dag_summary)
from .store import MANIFEST_NAME, read_manifest
from .timeline import TimelineStore

__all__ = ["main", "rollup_payloads", "shard_line", "kernel_line"]


# ---------------------------------------------------------------------------
# Manifest-backed summaries (no timeline scan)
# ---------------------------------------------------------------------------

def rollup_payloads(manifest: dict) -> list[dict]:
    """The manifest's rollups in submission order (by start time)."""
    return sorted(manifest["rollups"].values(),
                  key=lambda p: (p.get("start") or 0.0, p["dag_id"]))


def kernel_line(payload: dict) -> str:
    return (
        f"kernel: heap_pushes={payload.get('heap_pushes', 0)} "
        f"pool_reuse={payload.get('pool_reuse', 0)} "
        f"processes_started={payload.get('processes_started', 0)}"
    )


def shard_line(payload: dict) -> str:
    return (
        f"shard {payload['client']}/{payload['shard']}: "
        f"dags={payload['dags']} "
        f"am_attempts={payload['am_attempts']} "
        f"journal={payload['journal_records']} "
        f"fenced_appends={payload['fenced_appends']} "
        f"checkpoints={payload['checkpoints']} "
        f"replayed={payload['events_replayed']} "
        f"recovered={payload['tasks_recovered']} "
        f"dropped={payload['entries_dropped']}"
    )


def summary_from_payload(payload: dict) -> DagSummary:
    return DagSummary(
        dag_id=payload["dag_id"], name=payload["name"],
        outcome=payload["outcome"], wall_clock=payload["wall_clock"],
        vertices=payload["vertices"], attempts=payload["attempts"],
        succeeded=payload["succeeded"], failed=payload["failed"],
        killed=payload["killed"], speculations=payload["speculations"],
        reexecutions=payload["reexecutions"],
        fetch_retries=payload["fetch_retries"], faults=payload["faults"],
    )


def report_from_payload(payload: dict) -> CriticalPathReport:
    return CriticalPathReport(
        dag_id=payload["dag_id"], dag_name=payload["name"],
        start=payload["start"], end=payload["end"],
        segments=[CriticalPathSegment(seg["kind"], seg["start"],
                                      seg["end"], vertex=seg["vertex"],
                                      attempt=seg["attempt"])
                  for seg in payload["critical_path"]],
    )


# ---------------------------------------------------------------------------
# Record selection
# ---------------------------------------------------------------------------

def _descendant_ids(store: TimelineStore, root_id: int) -> set[int]:
    """``root_id`` plus every span transitively parented under it."""
    children: dict[int, list[int]] = {}
    for rec in store.spanstore.iter_span_records():
        if rec["parent_id"] is not None:
            children.setdefault(rec["parent_id"], []).append(
                rec["span_id"])
    keep = {root_id}
    frontier = [root_id]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            if child not in keep:
                keep.add(child)
                frontier.append(child)
    return keep


def select_records(store: TimelineStore, args) -> list[dict]:
    out: list[dict] = []
    attrs = {"dag": args.dag} if args.dag else {}
    want_spans = args.spans or not args.events
    want_events = args.events or not args.spans
    if want_spans:
        under = (_descendant_ids(store, args.under)
                 if args.under is not None else None)
        for rec in store.spanstore.iter_span_records(kind=args.kind,
                                                     attrs=attrs):
            if under is not None and rec["span_id"] not in under:
                continue
            if args.since is not None and (rec["end"] or rec["start"]) \
                    < args.since:
                continue
            if args.until is not None and rec["start"] > args.until:
                continue
            out.append(rec)
            if args.limit and len(out) >= args.limit:
                return out
    if want_events:
        for rec in store.spanstore.iter_event_records(
                kind=args.kind, prefix=args.prefix, since=args.since,
                until=args.until, attrs=attrs):
            out.append(rec)
            if args.limit and len(out) >= args.limit:
                return out
    return out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.query",
        description="Query a partitioned telemetry store directory.")
    parser.add_argument("store", help="store directory (segments/ + "
                        "MANIFEST.json)")
    parser.add_argument("--events", action="store_true")
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--kind")
    parser.add_argument("--prefix")
    parser.add_argument("--dag")
    parser.add_argument("--since", type=float)
    parser.add_argument("--until", type=float)
    parser.add_argument("--under", type=int, metavar="SPAN_ID")
    parser.add_argument("--limit", type=int, default=0)
    parser.add_argument("--summary", action="store_true")
    parser.add_argument("--critical-path", nargs="?", const="*",
                        metavar="DAG_ID", dest="critical")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(args.store):
        print(f"no such store directory: {args.store}", file=sys.stderr)
        return 2

    try:
        manifest = read_manifest(args.store)
    except OSError:
        print(f"no {MANIFEST_NAME} in {args.store}", file=sys.stderr)
        return 2
    store = TimelineStore.open(args.store)

    if args.summary:
        payloads = rollup_payloads(manifest)
        if payloads:
            if args.dag:
                payloads = [p for p in payloads
                            if p["dag_id"] == args.dag]
            for payload in payloads:
                print(summary_from_payload(payload).line())
        else:
            dag_ids = [args.dag] if args.dag else store.dag_ids()
            for dag_id in dag_ids:
                print(dag_summary(store, dag_id,
                                  with_critical_path=False).line())
        if not args.dag:
            for payload in manifest["shards"]:
                print(shard_line(payload))
            if manifest["kernel"] is not None:
                print(kernel_line(manifest["kernel"]))
        return 0

    if args.critical is not None:
        payloads = {p["dag_id"]: p for p in rollup_payloads(manifest)}
        dag_ids = ([args.critical] if args.critical != "*"
                   else (list(payloads) or store.dag_ids()))
        for dag_id in dag_ids:
            payload = payloads.get(dag_id)
            if payload is not None and payload.get("critical_path"):
                print(report_from_payload(payload).render())
            else:
                print(critical_path(store, dag_id).render())
        return 0

    for rec in select_records(store, args):
        print(json.dumps(rec))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
