"""JSONL trace and partitioned-store schema checker (used by CI).

Usage::

    python -m repro.telemetry.check trace.jsonl [more.jsonl ...]
    python -m repro.telemetry.check --store STORE_DIR [...]

``--store`` validates a persisted segment directory end to end: the
write-once layout (a ``closed`` manifest listing only canonical JSONL
segments - no ``.pkl`` spool run, no ``*`` wildcard partition),
manifest/segment cross-consistency (files exist, footers agree with
their manifest entries, record counts match), partition-key discipline
(every record in a segment belongs to the segment's partition),
intra-segment ordering (events by seq, both within the footer's key
range), one record per ``span_id`` across the store, the per-record
schema of every span/event, and the manifest's run keys: ``kernel``
(known counters, non-negative ints, or ``null``), ``shards`` (what
``query`` prints of each) and ``rollups`` (what ``query`` reads of
each, keyed by a ``dag_id`` that has a stored ``dag`` span).
"""

from __future__ import annotations

import json
import os
import sys

from .export import validate_records
from .store import (MANIFEST_NAME, SEGMENT_DIR, event_partition,
                    read_manifest, span_partition)

# The manifest's kernel counters (Telemetry._run).
_KERNEL_KEYS = {"heap_pushes", "pool_reuse", "processes_started"}
# The fields query.shard_line prints of a shard summary, besides its
# string ``client``.
_SHARD_COUNTS = ("shard", "dags", "am_attempts", "journal_records",
                 "fenced_appends", "checkpoints", "events_replayed",
                 "tasks_recovered", "entries_dropped")
# The keys query.summary_from_payload / report_from_payload read.
_ROLLUP_KEYS = {"dag_id", "name", "outcome", "wall_clock", "vertices",
                "attempts", "succeeded", "failed", "killed",
                "speculations", "reexecutions", "fetch_retries", "faults",
                "start", "end", "critical_path"}
_SEGMENT_KEYS = {"kind", "start", "end", "vertex", "attempt"}


def _count(value) -> bool:
    return type(value) is int and value >= 0


def check_kernel(payload) -> list[str]:
    if payload is None:
        return []
    if not isinstance(payload, dict):
        return [f"kernel counters are not an object: {payload!r}"]
    problems = [f"kernel counter {key!r} unknown"
                for key in sorted(payload.keys() - _KERNEL_KEYS)]
    for key in sorted(payload.keys() & _KERNEL_KEYS):
        if not _count(payload[key]):
            problems.append(f"kernel {key}={payload[key]!r}")
    return problems


def check_shards(shards) -> list[str]:
    if not isinstance(shards, list):
        return [f"shards are not a list: {shards!r}"]
    problems = []
    for i, shard in enumerate(shards):
        if not isinstance(shard, dict):
            problems.append(f"shard #{i} is not an object: {shard!r}")
            continue
        if not isinstance(shard.get("client"), str):
            problems.append(f"shard #{i} client={shard.get('client')!r}")
        for key in _SHARD_COUNTS:
            if not _count(shard.get(key)):
                problems.append(f"shard #{i} {key}={shard.get(key)!r}")
    return problems


def check_rollups(rollups, dag_spans: set) -> list[str]:
    """``dag_spans``: the ids of the store's ``dag`` spans."""
    if not isinstance(rollups, dict):
        return [f"rollups are not an object: {rollups!r}"]
    problems = []
    seen: set = set()
    for key, payload in rollups.items():
        if not isinstance(payload, dict):
            problems.append(f"rollup {key!r} is not an object")
            continue
        missing = _ROLLUP_KEYS - payload.keys()
        if missing:
            problems.append(f"rollup {key!r} missing {sorted(missing)}")
            continue
        dag_id = payload["dag_id"]
        if dag_id != key:
            problems.append(f"rollup {key!r} holds dag_id {dag_id!r}")
        if dag_id in seen:
            problems.append(f"rollup dag_id {dag_id!r} stored twice")
        seen.add(dag_id)
        if dag_id not in dag_spans:
            problems.append(f"rollup {dag_id!r} has no stored dag span")
        path = payload["critical_path"]
        if not isinstance(path, list) or any(
                not isinstance(seg, dict) or _SEGMENT_KEYS - seg.keys()
                for seg in path):
            problems.append(f"rollup {dag_id!r} critical_path {path!r}")
    return problems


def check_store(store_dir: str) -> list[str]:
    """Validate one partitioned store directory; returns problems."""
    try:
        manifest = read_manifest(store_dir)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{store_dir}: unreadable {MANIFEST_NAME}: {exc}"]
    problems: list[str] = []
    if manifest.get("closed") is not True:
        problems.append(f"{store_dir}/{MANIFEST_NAME}: not closed "
                        f"(closed={manifest.get('closed')!r})")
    entries = manifest.get("segments", [])
    if not entries:
        problems.append(f"{store_dir}: manifest lists no segments")
    seen_files = set()
    span_files: dict = {}       # span_id -> the segment that holds it
    dag_spans: set = set()      # dag id of every stored dag span
    for entry in entries:
        name = entry.get("file", "?")
        where = f"{store_dir}/{SEGMENT_DIR}/{name}"
        if name in seen_files:
            problems.append(f"{where}: listed twice in manifest")
        seen_files.add(name)
        if "*" in (entry.get("kind"), entry.get("dag")):
            problems.append(f"{where}: wildcard partition "
                            f"({entry.get('kind')}, {entry.get('dag')})")
        if name.endswith(".pkl"):
            problems.append(f"{where}: a spool run, not a JSONL segment")
            continue
        path = os.path.join(store_dir, SEGMENT_DIR, name)
        try:
            with open(path, encoding="utf-8") as fh:
                lines = [json.loads(line) for line in fh if line.strip()]
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{where}: {exc}")
            continue
        if not lines or lines[-1].get("type") != "footer":
            problems.append(f"{where}: missing footer line")
            continue
        footer, records = lines[-1], lines[:-1]
        for key in ("rtype", "kind", "dag", "count", "min_ts", "max_ts",
                    "min_key", "max_key"):
            if footer.get(key) != entry.get(key):
                problems.append(
                    f"{where}: footer {key}={footer.get(key)!r} != "
                    f"manifest {entry.get(key)!r}")
        if len(records) != entry.get("count"):
            problems.append(f"{where}: {len(records)} records, manifest "
                            f"says {entry.get('count')}")
        problems.extend(f"{where}: {p}" for p in validate_records(records))
        rtype, kind, dag = entry.get("rtype"), entry.get("kind"), \
            entry.get("dag")
        order_key = "seq" if rtype == "event" else "span_id"
        prev = None
        for rec in records:
            if rec.get("type") != rtype:
                problems.append(f"{where}: {rec.get('type')} record in "
                                f"{rtype} segment")
                continue
            part = (event_partition(rec["kind"], rec["attrs"])
                    if rtype == "event"
                    else span_partition(rec["kind"], rec["attrs"]))
            if part != (rtype, kind, dag):
                problems.append(f"{where}: record partition {part} != "
                                f"segment ({rtype}, {kind}, {dag})")
            key = rec.get(order_key)
            if rtype == "event" and prev is not None and key < prev:
                problems.append(f"{where}: seq {key} out of order")
            if rtype == "span":
                if key in span_files:
                    problems.append(f"{where}: span_id {key} stored twice "
                                    f"(also in {span_files[key]})")
                span_files[key] = name
                if rec["kind"] == "dag":
                    dag_spans.add(rec["attrs"].get("dag", rec["name"]))
            prev = key
            lo, hi = entry.get("min_key"), entry.get("max_key")
            if lo is not None and (key < lo or key > hi):
                problems.append(f"{where}: {order_key} {key} outside "
                                f"footer range [{lo}, {hi}]")
    try:
        on_disk = set(os.listdir(os.path.join(store_dir, SEGMENT_DIR)))
    except OSError as exc:
        problems.append(f"{store_dir}: {exc}")
        on_disk = seen_files
    for orphan in sorted(on_disk - seen_files):
        problems.append(f"{store_dir}: segment {orphan} not in manifest")
    for missing in sorted(seen_files - on_disk):
        problems.append(f"{store_dir}: manifest entry {missing} missing "
                        f"on disk")
    where = f"{store_dir}/{MANIFEST_NAME}"
    for key in ("kernel", "shards", "rollups"):
        if key not in manifest:
            problems.append(f"{where}: no {key!r}")
    problems.extend(f"{where}: {p}" for p in
                    check_kernel(manifest.get("kernel"))
                    + check_shards(manifest.get("shards", []))
                    + check_rollups(manifest.get("rollups", {}), dag_spans))
    return problems


def check_file(path: str) -> list[str]:
    try:
        records = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    return [f"{path}:{lineno}: invalid JSON: {exc}"]
    except OSError as exc:
        return [f"{path}: {exc}"]
    if not records:
        return [f"{path}: empty trace"]
    return [f"{path}: {p}" for p in validate_records(records)]


def main(argv: list[str]) -> int:
    store_mode = False
    if argv and argv[0] == "--store":
        store_mode = True
        argv = argv[1:]
    if not argv:
        print("usage: python -m repro.telemetry.check FILE.jsonl ... |"
              " --store STORE_DIR ...",
              file=sys.stderr)
        return 2
    problems = []
    total = 0
    if store_mode:
        for store_dir in argv:
            problems.extend(check_store(store_dir))
            try:
                manifest = read_manifest(store_dir)
                total += sum(e.get("count", 0)
                             for e in manifest.get("segments", []))
            except (OSError, json.JSONDecodeError):
                pass
        what = "store(s)"
    else:
        for path in argv:
            problems.extend(check_file(path))
            try:
                with open(path, encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
            except OSError:
                pass
        what = "file(s)"
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"ok: {total} records across {len(argv)} {what}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
