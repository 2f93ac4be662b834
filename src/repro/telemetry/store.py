"""Partitioned on-disk span/event store: bounded-memory system of record.

This is the scale backend behind :class:`~repro.telemetry.Telemetry`
(the simulation's Application-Timeline-Server analogue). A store is
written once: during a run spans and events flow through fixed-size
ring buffers into a private spool, and :meth:`SpanStore.persist` lands
the run in one directory and seals the store.

* **Spool** — a ring that fills is drained as one ``.pkl`` *run*: one
  pickled batch of record tuples per ring per flush, LSM-style: no
  record dicts, no partitioning, no footers, just the cheapest possible
  drain of the ring (~4x cheaper than shaping at flush time). The spool
  directory is created lazily on the first flush, so small runs never
  touch disk, and it lives only until ``persist`` or ``discard``.
* **Partition key** — ``(record type, entity kind, dag_id)``: spans
  partition by their span kind (``dag``/``vertex``/``attempt``/...),
  events by the first dotted component of their kind (``am``, ``yarn``,
  ``shuffle``, ...), both crossed with the owning DAG id (``-`` when a
  record is cluster-scoped). Queries prune whole segments by partition
  before reading a byte.
* **Segment** — one canonical ``.jsonl`` file per partition of a ring:
  records in the exact schema of the JSONL exporter, time-ordered
  (events by emission ``seq``; spans by close order), terminated by a
  ``footer`` carrying the record count and key ranges. ``persist``
  writes the final ring first, then compacts every spooled run, so a
  persisted store directory is pure JSONL.
* **Manifest** — ``MANIFEST.json`` lists every segment with its
  partition and ranges; readers discover segments only through it, and
  ``python -m repro.telemetry.check --store`` cross-validates footer
  against manifest. It also carries what the run says about itself,
  handed to :meth:`SpanStore.persist`: ``kernel`` (the DES kernel's
  counters, ``null`` without an environment), ``shards`` (control-plane
  shard summaries, ``[]`` when none) and ``rollups`` (per-DAG summaries
  and critical paths, keyed by ``dag_id``). It is written once, with
  ``closed: true``. A persisted store is ``MANIFEST.json`` plus
  ``segments/`` and nothing else; ``SpanStore(store_dir)`` opens one
  for reading.

A ring that fills is flushed to disk synchronously, so nothing is ever
dropped before ``persist``. Resident memory is therefore bounded by the
ring capacities plus the set of currently-open spans — constant in
task count; the store tracks its high-water mark in
:attr:`SpanStore.peak_resident`. A sealed store (persisted, closed,
discarded or opened for reading) records nothing: what is emitted into
it is dropped, and its directory never changes.
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


def _partitioned(spans, events) -> dict[tuple, list[dict]]:
    """Records of span and event tuples grouped by partition, in
    first-seen partition order, spans first."""
    parts: dict[tuple, list] = {}
    for t in spans:
        parts.setdefault(span_partition(t[1], t[6]), []).append(
            _span_tuple_record(t))
    for t in events:
        parts.setdefault(event_partition(t[2], t[3]), []).append(
            _event_tuple_record(t))
    return parts


def _read_spool_run(path: str) -> tuple[str, list[tuple]]:
    """(rtype, record tuples) from a write-optimized spool run. Only
    files this store spooled itself are ever loaded."""
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
    """Ring-buffered write-once writer, or the reader of one persisted
    store directory (``SpanStore(store_dir)``)."""

    def __init__(self, store_dir: Optional[str] = None, /, *,
                 ring_spans: int = 8192, ring_events: int = 8192):
        self.ring_spans = int(ring_spans)
        self.ring_events = int(ring_events)
        self._dir: Optional[str] = None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self._span_ring: deque = deque()
        self._event_ring: deque = deque()
        # Spool runs while writing; the segments once persisted.
        self._manifest_entries: list[dict] = []
        self._segment_seq = 0
        self._flushes = 0
        self.peak_resident = 0
        # Records drained from the rings: they outlive a discarded spool.
        self._flushed_spans = 0
        self._flushed_events = 0
        self.closed = False
        if store_dir is not None:
            segments = read_manifest(store_dir)["segments"]
            if any(not e["file"].endswith(".jsonl") for e in segments):
                raise ValueError(f"{store_dir}: a spool, not a persisted "
                                 f"store")
            self._dir = store_dir
            self._manifest_entries = segments
            self._flushed_spans = sum(e["count"] for e in segments
                                      if e["rtype"] == "span")
            self._flushed_events = sum(e["count"] for e in segments
                                       if e["rtype"] == "event")
            self._seal()

    def _seal(self) -> None:
        """Record nothing more: a sealed store's rings hold no record
        (``maxlen=0`` drops every append), so nothing reaches a flush."""
        self.closed = True
        self._span_ring = deque(maxlen=0)
        self._event_ring = deque(maxlen=0)

    @property
    def spool_dir(self) -> Optional[str]:
        """The on-disk directory: the private spool once a flush has
        materialized it, the store's own directory once persisted."""
        return self._dir

    # -- write side -----------------------------------------------------
    # A record is the tuple the spool pickles, from emission to disk:
    # spans ``(span_id, kind, name, start, end, parent_id, attrs)``
    # (``Span.record``), events ``(seq, ts, kind, attrs)``. Resident
    # memory only ever shrinks at a flush, so the high-water mark is
    # always observed immediately before one; sampling there keeps the
    # per-record path to an append and a length check.

    def add_span(self, rec: tuple) -> None:
        ring = self._span_ring
        ring.append(rec)
        if len(ring) >= self.ring_spans:
            self.flush()

    def add_event(self, rec: tuple) -> None:
        ring = self._event_ring
        ring.append(rec)
        if len(ring) >= self.ring_events:
            self.flush()

    @property
    def span_count(self) -> int:
        """Stored (flushed + ring) span records."""
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

    def _drained(self) -> int:
        """Count a flush of the rings as they stand; returns how many
        records it drains."""
        resident = len(self._span_ring) + len(self._event_ring)
        if resident:
            if resident > self.peak_resident:
                self.peak_resident = resident
            self._flushes += 1
            self._flushed_spans += len(self._span_ring)
            self._flushed_events += len(self._event_ring)
        return resident

    def flush(self) -> int:
        """Spool each ring as one pickled run of its record tuples -
        partitioning, record dicts and footers all wait for
        :meth:`persist`; returns records written."""
        written = self._drained()
        if not written:
            return 0
        if self._dir is None:
            self._tmp = tempfile.TemporaryDirectory(
                prefix="repro-telemetry-")
            self._dir = self._tmp.name
            os.makedirs(os.path.join(self._dir, SEGMENT_DIR))
        for rtype, ring in (("span", self._span_ring),
                            ("event", self._event_ring)):
            if ring:
                self._write_spool_run(rtype, list(ring))
                ring.clear()
        return written

    def _write_spool_run(self, rtype: str, tuples: list[tuple]) -> None:
        """One un-shaped run: the ring's record tuples, pickled, under
        the wildcard partition ``("*", "*")`` with no time range -
        readers never prune a spool run."""
        self._segment_seq += 1
        name = f"seg-{self._segment_seq:06d}.pkl"
        path = os.path.join(self._dir, SEGMENT_DIR, name)
        with open(path, "wb") as fh:
            pickle.dump((rtype, tuples), fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        self._manifest_entries.append({
            "file": name, "rtype": rtype, "kind": "*", "dag": "*",
            "count": len(tuples), "min_ts": None, "max_ts": None,
            "min_key": None, "max_key": None,
        })

    def _write_segment(self, seg_dir: str, part: tuple,
                       records: list[dict]) -> dict:
        """One canonical JSONL segment of one partition; returns its
        manifest entry (the footer without its ``type``)."""
        rtype, kind, dag = part
        self._segment_seq += 1
        name = f"seg-{self._segment_seq:06d}.jsonl"
        ts_key = "ts" if rtype == "event" else "end"
        order_key = "seq" if rtype == "event" else "span_id"
        times = [r[ts_key] for r in records if r[ts_key] is not None] \
            or [0.0]
        entry = {
            "file": name, "rtype": rtype, "kind": kind, "dag": dag,
            "count": len(records),
            "min_ts": min(times), "max_ts": max(times),
            "min_key": min(r[order_key] for r in records),
            "max_key": max(r[order_key] for r in records),
        }
        with open(os.path.join(seg_dir, name), "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"type": "footer", **entry}) + "\n")
        return entry

    def close(self) -> None:
        """End a run that is not persisted: spool what the rings hold
        (the store's counters settle) and seal the store."""
        self.flush()
        self._seal()

    def discard(self) -> None:
        """End a run that is not persisted: drop the private spool now
        instead of waiting for the temp dir's finalizer (the telemetry
        object graph is cyclic, so that can be a whole gen-2 GC away),
        and seal the store. For callers that only wanted the write-path
        statistics, e.g. benchmarks."""
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
            self._dir = None
            self._manifest_entries = []
        self._seal()

    def persist(self, target_dir: str, run: dict) -> str:
        """Land the whole store in ``target_dir`` and seal it; returns
        the directory. The final ring lands first as partitioned
        canonical JSONL segments (first-seen partition order), then
        every spooled run is compacted into one segment per partition
        (sorted partition order), and the manifest is written once,
        carrying ``run`` (``kernel``, ``shards``, ``rollups``). A
        store is persisted once: a second call raises."""
        if self.closed:
            raise RuntimeError("the store is sealed (persisted, closed, "
                               "discarded or opened for reading)")
        seg_dst = os.path.join(target_dir, SEGMENT_DIR)
        os.makedirs(seg_dst, exist_ok=True)
        self._drained()
        final = [self._write_segment(seg_dst, part, records)
                 for part, records in _partitioned(
                     self._span_ring, self._event_ring).items()]
        segments: list[dict] = []
        for entry in self._manifest_entries:
            rtype, tuples = _read_spool_run(
                os.path.join(self._dir, SEGMENT_DIR, entry["file"]))
            parts = (_partitioned(tuples, ()) if rtype == "span"
                     else _partitioned((), tuples))
            segments += [self._write_segment(seg_dst, part, parts[part])
                         for part in sorted(parts)]
        self._manifest_entries = segments + final
        manifest = {
            "version": MANIFEST_VERSION,
            "next_segment": self._segment_seq,
            "closed": True,
            "segments": self._manifest_entries,
            **run,
        }
        with open(os.path.join(target_dir, MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
        self._dir = target_dir
        self._seal()
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
