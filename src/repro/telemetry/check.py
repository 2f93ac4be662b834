"""JSONL trace and partitioned-store schema checker (used by CI).

Usage::

    python -m repro.telemetry.check trace.jsonl [more.jsonl ...]
    python -m repro.telemetry.check --store STORE_DIR [...]

``--store`` validates a partitioned segment directory end to end:
manifest/segment cross-consistency (files exist, footers agree with
their manifest entries, record counts match), partition-key discipline
(every record in a segment belongs to the segment's partition),
intra-segment ordering (events by seq, both within the footer's key
range), one record per ``span_id`` across the store, plus the
per-record schema of every span/event — including the attr schema of
``telemetry.backpressure`` control events — and, when the store has
one, ``kernel.json``'s counters.
"""

from __future__ import annotations

import json
import os
import sys

from .export import validate_records
from .store import (MANIFEST_NAME, SEGMENT_DIR, event_partition,
                    read_manifest, span_partition)

# telemetry.backpressure is a control event (emitted on ring overflow
# in lossy mode); its attrs are a stable schema so downstream alerting
# can rely on them.
_BACKPRESSURE_KEYS = {"ring", "capacity", "policy", "dropped_spans",
                      "dropped_events"}


def check_backpressure_event(attrs: dict) -> list[str]:
    problems = []
    missing = _BACKPRESSURE_KEYS - attrs.keys()
    if missing:
        problems.append(f"backpressure event missing {sorted(missing)}")
        return problems
    if attrs["ring"] not in ("span", "event"):
        problems.append(f"backpressure ring {attrs['ring']!r}")
    if attrs["policy"] not in ("block", "drop"):
        problems.append(f"backpressure policy {attrs['policy']!r}")
    for key in ("capacity", "dropped_spans", "dropped_events"):
        if not isinstance(attrs[key], int) or attrs[key] < 0:
            problems.append(f"backpressure {key}={attrs[key]!r}")
    return problems


# kernel.json (Telemetry._write_kernel): the DES kernel's counters.
_KERNEL_KEYS = {"heap_pushes", "pool_reuse", "processes_started"}


def check_kernel(payload) -> list[str]:
    if not isinstance(payload, dict):
        return [f"kernel counters are not an object: {payload!r}"]
    problems = [f"kernel counter {key!r} unknown"
                for key in sorted(payload.keys() - _KERNEL_KEYS)]
    for key in sorted(payload.keys() & _KERNEL_KEYS):
        value = payload[key]
        if type(value) is not int or value < 0:
            problems.append(f"kernel {key}={value!r}")
    return problems


def check_store(store_dir: str) -> list[str]:
    """Validate one partitioned store directory; returns problems."""
    try:
        manifest = read_manifest(store_dir)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{store_dir}: unreadable {MANIFEST_NAME}: {exc}"]
    problems: list[str] = []
    entries = manifest.get("segments", [])
    if not entries:
        problems.append(f"{store_dir}: manifest lists no segments")
    seen_files = set()
    span_files: dict = {}       # span_id -> the segment that holds it
    for entry in entries:
        name = entry.get("file", "?")
        where = f"{store_dir}/{SEGMENT_DIR}/{name}"
        if name in seen_files:
            problems.append(f"{where}: listed twice in manifest")
        seen_files.add(name)
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
            prev = key
            lo, hi = entry.get("min_key"), entry.get("max_key")
            if lo is not None and (key < lo or key > hi):
                problems.append(f"{where}: {order_key} {key} outside "
                                f"footer range [{lo}, {hi}]")
            if (rtype == "event"
                    and rec["kind"] == "telemetry.backpressure"):
                problems.extend(f"{where}: {p}" for p in
                                check_backpressure_event(rec["attrs"]))
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
    kernel = os.path.join(store_dir, "kernel.json")
    if os.path.isfile(kernel):
        try:
            with open(kernel, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{kernel}: {exc}")
        else:
            problems.extend(f"{kernel}: {p}" for p in check_kernel(payload))
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
