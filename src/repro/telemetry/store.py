"""Partitioned on-disk span/event store: bounded-memory system of record.

This is the scale backend behind :class:`~repro.telemetry.Telemetry`
(the simulation's Application-Timeline-Server analogue). Spans and
events flow through fixed-size ring buffers and are flushed into
dimension-partitioned on-disk *segments*:

* **Partition key** — ``(record type, entity kind, dag_id)``: spans
  partition by their span kind (``dag``/``vertex``/``attempt``/...),
  events by the first dotted component of their kind (``am``, ``yarn``,
  ``shuffle``, ...), both crossed with the owning DAG id (``-`` when a
  record is cluster-scoped). Queries prune whole segments by partition
  before reading a byte.
* **Segment** — one file per (flush, partition): records in the exact
  schema of the JSONL exporter, time-ordered (events by emission
  ``seq``; spans by close order), terminated by a ``footer`` carrying
  the record count and key ranges. Canonical segments are ``.jsonl``
  (one JSON object per line). While spooling, flushes instead land as
  ``.pkl`` *runs* — one pickled batch of record tuples per ring per
  flush, LSM-style: no record dicts, no partitioning, no footers, just
  the cheapest possible drain of the ring (~4x cheaper than shaping at
  flush time). :meth:`SpanStore.persist` compacts every run into
  partitioned canonical JSONL segments, so a persisted store directory
  is pure JSONL; the binary form only ever lives in the private spool.
* **Manifest** — ``MANIFEST.json`` lists every segment with its
  partition and ranges; readers discover segments only through it, and
  ``python -m repro.telemetry.check --store`` cross-validates footer
  against manifest. It also carries what the run says about itself,
  handed to :meth:`SpanStore.persist`: ``kernel`` (the DES kernel's
  counters, ``null`` without an environment), ``shards`` (control-plane
  shard summaries, ``[]`` when none) and ``rollups`` (per-DAG summaries
  and critical paths, keyed by ``dag_id``). A persisted store is
  ``MANIFEST.json`` plus ``segments/`` and nothing else. While the
  writer is spooling to its lazy temp dir the manifest lives in memory
  and is written once at close/persist; a store opened on an explicit
  ``dir`` is *live* — it spools straight to JSONL and rewrites the
  manifest each flush so ``query --follow`` can tail it.

A ring that fills is flushed to disk synchronously, so nothing is ever
dropped; the spool directory is created lazily on the first flush, so
small runs never touch disk. Resident memory is therefore bounded by
the ring capacities plus the set of currently-open spans — constant in
task count; the store tracks its high-water mark in
:attr:`SpanStore.peak_resident`.
"""

from __future__ import annotations

import heapq
import json
import os
import pickle
import tempfile
from collections import deque
from typing import Iterator, Optional

__all__ = ["SpanStore", "JsonlStreamWriter", "event_record",
           "span_record", "event_partition", "span_partition",
           "read_manifest"]

MANIFEST_NAME = "MANIFEST.json"
SEGMENT_DIR = "segments"
MANIFEST_VERSION = 1


# ---------------------------------------------------------------------------
# Canonical record schema (shared with the JSONL exporter)
# ---------------------------------------------------------------------------

def event_record(ev) -> dict:
    return {"type": "event", "seq": ev.seq, "ts": ev.ts, "kind": ev.kind,
            "attrs": ev.attrs}


def span_record(span) -> dict:
    return {"type": "span", "span_id": span.span_id, "kind": span.kind,
            "name": span.name, "start": span.start, "end": span.end,
            "parent_id": span.parent_id, "attrs": span.attrs}


def _dag_of(attrs: dict) -> str:
    dag = attrs.get("dag")
    return dag if isinstance(dag, str) and dag else "-"


def event_partition(kind: str, attrs: dict) -> tuple[str, str, str]:
    return ("event", kind.split(".", 1)[0], _dag_of(attrs))


def span_partition(kind: str, attrs: dict) -> tuple[str, str, str]:
    return ("span", kind, _dag_of(attrs))


def _group_matches_prefix(group: str, prefix: str) -> bool:
    """Can an event kind in this partition group start with ``prefix``?"""
    if "." in prefix:
        return group == prefix.split(".", 1)[0]
    return group.startswith(prefix)


# ---------------------------------------------------------------------------
# Streaming JSONL writer (also used standalone, e.g. by the chaos sweep)
# ---------------------------------------------------------------------------

class JsonlStreamWriter:
    """Append records to a JSONL file one at a time — bounded memory.

    Serialization is byte-identical to ``json.dumps(record)`` per line,
    so artifacts written through this stream are indistinguishable from
    the historical build-a-list-then-dump form.
    """

    def __init__(self, path: str):
        self.path = path
        self.count = 0
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record) + "\n")
        self.count += 1

    def close(self) -> int:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return self.count

    def __enter__(self) -> "JsonlStreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Manifest helpers
# ---------------------------------------------------------------------------

def read_manifest(store_dir: str) -> dict:
    path = os.path.join(store_dir, MANIFEST_NAME)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _segment_sources(store_dir: str, entries: list[dict]) -> list[str]:
    return [os.path.join(store_dir, SEGMENT_DIR, e["file"])
            for e in entries]


def _span_tuple_record(t: tuple) -> dict:
    return {"type": "span", "span_id": t[0], "kind": t[1], "name": t[2],
            "start": t[3], "end": t[4], "parent_id": t[5], "attrs": t[6]}


def _event_tuple_record(t: tuple) -> dict:
    return {"type": "event", "seq": t[0], "ts": t[1], "kind": t[2],
            "attrs": t[3]}


def _read_spool_run(path: str) -> tuple[str, list[tuple]]:
    """(rtype, record tuples) from a write-optimized spool run. Only
    files named by this store's own manifest are ever loaded."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _iter_segment_records(path: str) -> Iterator[dict]:
    if path.endswith(".pkl"):
        rtype, tuples = _read_spool_run(path)
        to_record = _span_tuple_record if rtype == "span" \
            else _event_tuple_record
        for t in tuples:
            yield to_record(t)
        return
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") == "footer":
                return
            yield rec


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class SpanStore:
    """Ring-buffered writer plus segment reader over one store dir."""

    def __init__(
        self,
        dir: Optional[str] = None,
        ring_spans: int = 8192,
        ring_events: int = 8192,
    ):
        self.configured_dir = dir
        self.ring_spans = int(ring_spans)
        self.ring_events = int(ring_events)
        # Live mode (explicit dir): segments land as canonical JSONL
        # and the manifest is rewritten every flush so readers can tail
        # the directory. Lazy spools drain each ring as one record-tuple
        # pickle run and defer shaping and the manifest to
        # close()/persist().
        self._live = dir is not None
        self._dir: Optional[str] = None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self._span_ring: deque = deque()
        self._event_ring: deque = deque()
        self._manifest_entries: list[dict] = []
        self._segment_seq = 0
        self._flushes = 0
        self.peak_resident = 0
        self._flushed_spans = 0
        self._flushed_events = 0
        # Open-span snapshots (see add_snapshot): ids whose snapshot is
        # still in the ring, and ids whose flushed record is one.
        self._ring_snapshots: set = set()
        self._snapshots: set = set()
        # What the manifest says about the run until persist() is told.
        self._run = {"kernel": None, "shards": [], "rollups": {}}
        self.closed = False
        if dir is not None and os.path.isdir(
                os.path.join(dir, SEGMENT_DIR)):
            self._attach_existing(dir)

    # -- directory lifecycle -------------------------------------------
    def _attach_existing(self, dir: str) -> None:
        """Re-open an existing store directory for appending."""
        self._dir = dir
        try:
            manifest = read_manifest(dir)
        except OSError:
            return
        self._manifest_entries = manifest.get("segments", [])
        self._segment_seq = manifest.get("next_segment", 0)
        self._run = {key: manifest[key] for key in self._run}
        self._flushed_spans = sum(e["count"] for e in self._manifest_entries
                                  if e["rtype"] == "span")
        self._flushed_events = sum(e["count"] for e in self._manifest_entries
                                   if e["rtype"] == "event")

    @property
    def spool_dir(self) -> Optional[str]:
        """The on-disk directory, if any flush has materialized one."""
        return self._dir

    def _materialize(self) -> str:
        if self._dir is None:
            if self.configured_dir is not None:
                self._dir = self.configured_dir
            else:
                self._tmp = tempfile.TemporaryDirectory(
                    prefix="repro-telemetry-")
                self._dir = self._tmp.name
            os.makedirs(os.path.join(self._dir, SEGMENT_DIR),
                        exist_ok=True)
        return self._dir

    # -- write side -----------------------------------------------------
    # A record is the tuple the spool pickles, from emission to disk:
    # spans ``(span_id, kind, name, start, end, parent_id, attrs)``
    # (``Span.record``), events ``(seq, ts, kind, attrs)``. Resident
    # memory only ever shrinks at a flush, so the high-water mark is
    # always observed either immediately before one or at close;
    # sampling there keeps the per-record path to an append and a
    # length check.

    def add_span(self, rec: tuple) -> None:
        ring = self._span_ring
        ring.append(rec)
        if len(ring) >= self.ring_spans:
            self.flush()

    def add_snapshot(self, rec: tuple) -> None:
        """Store an open span's record as it stands; the span's next
        record (its close, or a later snapshot) replaces it, so the
        store keeps one record per span. Taken at persist time, so by
        the time a snapshot can be replaced every segment holding it is
        canonical JSONL."""
        self._ring_snapshots.add(rec[0])
        self.add_span(rec)

    def add_event(self, rec: tuple) -> None:
        ring = self._event_ring
        ring.append(rec)
        if len(ring) >= self.ring_events:
            self.flush()

    @property
    def span_count(self) -> int:
        """Stored (flushed + ring) span records: one per span."""
        return self._flushed_spans + len(self._span_ring)

    @property
    def event_count(self) -> int:
        return self._flushed_events + len(self._event_ring)

    @property
    def segment_count(self) -> int:
        return len(self._manifest_entries)

    @property
    def flushes(self) -> int:
        return self._flushes

    # -- flush ----------------------------------------------------------
    def flush(self) -> int:
        """Drain both rings into new segments; returns records written."""
        span_ring, event_ring = self._span_ring, self._event_ring
        resident = len(span_ring) + len(event_ring)
        if resident == 0:
            return 0
        if resident > self.peak_resident:
            self.peak_resident = resident
        root = self._dir if self._dir is not None else self._materialize()
        older = len(self._manifest_entries)
        written = 0
        if self._live:
            parts: dict[tuple, list] = {}
            for t in span_ring:
                key = span_partition(t[1], t[6])
                parts.setdefault(key, []).append(_span_tuple_record(t))
            for t in event_ring:
                key = event_partition(t[2], t[3])
                parts.setdefault(key, []).append(_event_tuple_record(t))
            for (rtype, kind, dag), records in parts.items():
                written += self._write_segment(root, rtype, kind, dag,
                                               records)
        else:
            # Spool fast path: drain each ring as one pickled run of its
            # record tuples — partitioning, record dicts and footers
            # all wait for persist-time compaction.
            if span_ring:
                written += self._write_spool_run(root, "span",
                                                 list(span_ring))
            if event_ring:
                written += self._write_spool_run(root, "event",
                                                 list(event_ring))
        self._flushed_spans += len(span_ring)
        self._flushed_events += len(event_ring)
        if self._snapshots:
            replaced = {t[0] for t in span_ring} & self._snapshots
            if replaced:
                self._forget_spans(root, replaced,
                                   self._manifest_entries[:older])
                self._snapshots -= replaced
        if self._ring_snapshots:
            self._snapshots |= self._ring_snapshots
            self._ring_snapshots.clear()
        span_ring.clear()
        event_ring.clear()
        if self._live:
            self._write_manifest(root)
        self._flushes += 1
        return written

    def _segment_footer(self, name: str, rtype: str, kind: str, dag: str,
                        records: list[dict]) -> dict:
        ts_key = "ts" if rtype == "event" else "end"
        order_key = "seq" if rtype == "event" else "span_id"
        times = [r[ts_key] for r in records if r[ts_key] is not None] \
            or [0.0]
        return {
            "type": "footer", "file": name, "rtype": rtype, "kind": kind,
            "dag": dag, "count": len(records),
            "min_ts": min(times), "max_ts": max(times),
            "min_key": min(r[order_key] for r in records),
            "max_key": max(r[order_key] for r in records),
        }

    @staticmethod
    def _write_jsonl_segment(path: str, records: list[dict],
                             footer: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps(footer) + "\n")

    def _write_segment(self, root: str, rtype: str, kind: str, dag: str,
                       records: list[dict]) -> int:
        self._segment_seq += 1
        name = f"seg-{self._segment_seq:06d}.jsonl"
        footer = self._segment_footer(name, rtype, kind, dag, records)
        self._write_jsonl_segment(
            os.path.join(root, SEGMENT_DIR, name), records, footer)
        entry = dict(footer)
        entry.pop("type")
        self._manifest_entries.append(entry)
        return len(records)

    def _write_spool_run(self, root: str, rtype: str,
                         tuples: list[tuple]) -> int:
        """One un-shaped run: the ring's record tuples, pickled.

        The manifest entry uses the wildcard partition ``("*", "*")``
        and no time range — readers never prune a spool run; compaction
        at persist() replaces it with properly partitioned segments.
        """
        self._segment_seq += 1
        name = f"seg-{self._segment_seq:06d}.pkl"
        path = os.path.join(root, SEGMENT_DIR, name)
        with open(path, "wb") as fh:
            pickle.dump((rtype, tuples), fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        self._manifest_entries.append({
            "file": name, "rtype": rtype, "kind": "*", "dag": "*",
            "count": len(tuples), "min_ts": None, "max_ts": None,
            "min_key": None, "max_key": None,
        })
        return len(tuples)

    def _forget_spans(self, root: str, span_ids: set,
                      entries: list[dict]) -> None:
        """Delete the records of ``span_ids`` from these (JSONL) span
        segments, dropping a segment that is left empty."""
        for entry in entries:
            if entry["rtype"] != "span":
                continue
            name = entry["file"]
            path = os.path.join(root, SEGMENT_DIR, name)
            records = list(_iter_segment_records(path))
            kept = [r for r in records if r["span_id"] not in span_ids]
            if len(kept) == len(records):
                continue
            self._flushed_spans -= len(records) - len(kept)
            if not kept:
                os.remove(path)
                self._manifest_entries.remove(entry)
                continue
            footer = self._segment_footer(name, "span", entry["kind"],
                                          entry["dag"], kept)
            self._write_jsonl_segment(path, kept, footer)
            entry.update(footer)
            entry.pop("type")

    def _write_manifest(self, root: str) -> None:
        manifest = {
            "version": MANIFEST_VERSION,
            "next_segment": self._segment_seq,
            "closed": self.closed,
            "segments": self._manifest_entries,
            **self._run,
        }
        path = os.path.join(root, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)

    def close(self) -> None:
        """Flush everything and seal the manifest."""
        self.flush()
        self.closed = True
        if self._dir is not None:
            self._write_manifest(self._dir)

    def discard(self) -> None:
        """Drop the private spool immediately instead of waiting for
        the temp dir's finalizer (the telemetry object graph is cyclic,
        so that can be a whole gen-2 GC away). For callers that only
        wanted the write-path statistics, e.g. benchmarks."""
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
            self._dir = None
            self._manifest_entries = []

    def persist(self, target_dir: str, run: dict) -> str:
        """Flush, compact and land the whole store (segments +
        manifest) in ``target_dir``; returns the directory. ``run``
        (``kernel``, ``shards``, ``rollups``) goes into the manifest.
        Safe to call on a store that spooled to a lazy temp dir —
        canonical JSONL segments are moved, spool-codec segments are
        transcoded on the way through, so a persisted store is pure
        JSONL."""
        self._run = run
        self._live = True  # the final flush lands as canonical JSONL
        if self._dir is None:
            self.configured_dir = target_dir
            self._materialize()
        self.flush()
        self.closed = True
        src = self._dir
        same = os.path.abspath(src) == os.path.abspath(target_dir)
        seg_src = os.path.join(src, SEGMENT_DIR)
        seg_dst = os.path.join(target_dir, SEGMENT_DIR)
        if not same:
            os.makedirs(seg_dst, exist_ok=True)
        compacted: list[dict] = []
        for entry in self._manifest_entries:
            name = entry["file"]
            spath = os.path.join(seg_src, name)
            if name.endswith(".pkl"):
                # Compact the un-shaped run into one canonical segment
                # per partition, in deterministic partition order.
                rtype, tuples = _read_spool_run(spath)
                parts: dict[tuple, list] = {}
                if rtype == "span":
                    for t in tuples:
                        key = span_partition(t[1], t[6])
                        parts.setdefault(key, []).append(
                            _span_tuple_record(t))
                else:
                    for t in tuples:
                        key = event_partition(t[2], t[3])
                        parts.setdefault(key, []).append(
                            _event_tuple_record(t))
                for (rt, kind, dag) in sorted(parts):
                    records = parts[(rt, kind, dag)]
                    self._segment_seq += 1
                    seg_name = f"seg-{self._segment_seq:06d}.jsonl"
                    footer = self._segment_footer(seg_name, rt, kind,
                                                  dag, records)
                    self._write_jsonl_segment(
                        os.path.join(seg_dst, seg_name), records, footer)
                    seg_entry = dict(footer)
                    seg_entry.pop("type")
                    compacted.append(seg_entry)
                os.remove(spath)
                continue
            if not same:
                os.replace(spath, os.path.join(seg_dst, name))
            compacted.append(entry)
        self._manifest_entries = compacted
        if not same:
            self._dir = target_dir
        self._write_manifest(target_dir)
        if not same and self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
        return target_dir

    # -- read side ------------------------------------------------------
    def _event_segments(self, kind=None, prefix=None, since=None,
                        until=None, dag=None) -> list[dict]:
        out = []
        for entry in self._manifest_entries:
            if entry["rtype"] != "event":
                continue
            if entry["kind"] == "*":
                # Un-compacted spool run: nothing to prune on; the
                # record-level filters below still apply on read.
                out.append(entry)
                continue
            if kind is not None and entry["kind"] != kind.split(".", 1)[0]:
                continue
            if prefix is not None and not _group_matches_prefix(
                    entry["kind"], prefix):
                continue
            if dag is not None and entry["dag"] != dag:
                continue
            if since is not None and entry["max_ts"] < since:
                continue
            if until is not None and entry["min_ts"] > until:
                continue
            out.append(entry)
        return out

    def iter_event_records(self, kind=None, prefix=None, since=None,
                           until=None, attrs=None) -> Iterator[dict]:
        """Stored event records in global emission (seq) order,
        filtered; merges pruned segments with the in-memory ring."""
        attrs = attrs or {}
        dag = attrs.get("dag")
        dag = dag if isinstance(dag, str) else None
        entries = self._event_segments(kind=kind, prefix=prefix,
                                       since=since, until=until, dag=dag)
        sources = []
        if self._dir is not None:
            sources = [_iter_segment_records(p)
                       for p in _segment_sources(self._dir, entries)]
        sources.append(iter([_event_tuple_record(t)
                             for t in self._event_ring]))
        for rec in heapq.merge(*sources, key=lambda r: r["seq"]):
            if kind is not None and rec["kind"] != kind:
                continue
            if prefix is not None and not rec["kind"].startswith(prefix):
                continue
            if since is not None and rec["ts"] < since:
                continue
            if until is not None and rec["ts"] > until:
                continue
            if any(rec["attrs"].get(k) != v for k, v in attrs.items()):
                continue
            yield rec

    def iter_span_records(self, kind=None, attrs=None) -> list[dict]:
        """Stored (closed) span records in creation (span_id) order.

        Spans land in segments in close order, which is *not* id
        order, so matching records are materialized and sorted — the
        compatibility path for whole-timeline queries; incremental
        rollups exist precisely so scale paths never need this."""
        attrs = attrs or {}
        dag = attrs.get("dag")
        dag = dag if isinstance(dag, str) else None
        matches: list[dict] = []

        def want(rec: dict) -> bool:
            if kind is not None and rec["kind"] != kind:
                return False
            return not any(rec["attrs"].get(k) != v
                           for k, v in attrs.items())

        if self._dir is not None:
            for entry in self._manifest_entries:
                if entry["rtype"] != "span":
                    continue
                if entry["kind"] != "*":
                    if kind is not None and entry["kind"] != kind:
                        continue
                    if dag is not None and entry["dag"] != dag:
                        continue
                path = os.path.join(self._dir, SEGMENT_DIR, entry["file"])
                for rec in _iter_segment_records(path):
                    if want(rec):
                        matches.append(rec)
        for t in self._span_ring:
            rec = _span_tuple_record(t)
            if want(rec):
                matches.append(rec)
        matches.sort(key=lambda r: r["span_id"])
        return matches
