"""The telemetry write path against a frozen copy of the one it replaced.

Until commit 16c8b43 an event was wrapped in a ``TelemetryEvent`` and a
closed ``Span`` object was put on the ring, and both were re-tupled at
flush. Now the ring holds the tuple the spool writes from the moment a
record is emitted. ``_FrozenLog`` / ``_FrozenStore`` below keep the old
``EventLog.emit`` and ``SpanStore.add_span`` / ``add_event`` / ``flush``
/ ``_write_spool_run`` / ``persist`` verbatim, with the manifest they
read and wrote (``_attach_existing``, ``_write_manifest``,
``write_rollup``; as does ``_frozen_persist_store`` for
``Telemetry.persist_store``), and
Hypothesis drives both paths in lock-step through generated scripts:
events with and without a ``dag``, spans closed in random order, attrs
updated after a close both before and after a flush, ring capacities
1-16, spool and live directories, persist, then reopen and append. Both
must agree on the unpickled spool runs, on every byte of a live or
persisted directory (segments, ``MANIFEST.json``, rollups), and on
``span_count``, ``event_count``, ``flushes`` and ``peak_resident``.

A store now keeps its rollups (and shard summaries and kernel counters)
in ``MANIFEST.json``; ``_as_recorded`` lays a shipped directory out as
the frozen path wrote it before the bytes are compared. The frozen path
keeps that layout but only the lossless ``block`` ring: the lossy
``drop`` policy and its control events were deleted from the store,
and with them their branches here.

Hand mutations of the shipped path this test was checked against, on a
scratch copy, each caught within the example budget below: ``flush``
spooling the deque itself instead of ``list(ring)``; ``Span.record``
copying ``attrs`` (an update after the close is lost);
``Telemetry.finish`` taking the record before it stamps ``end``;
``EventLog.emit`` numbering from 1. A script does nothing after a persist, so
``add_snapshot`` registering nothing is caught by the one-record-per-span
tests in ``test_telemetry_store.py`` instead.

The golden pins what two control-plane scenarios leave in a persisted
store: the sha256 of every file, recorded at 16c8b43 in one fresh
process, ``reuse_session`` first. The kernel counters have since gained
``processes_started``; ``_as_recorded`` checks it against the kernel's
count and takes it out before hashing, so everything the store held
then is still pinned byte for byte.

    python tests/test_telemetry_record_path.py            # print
    python tests/test_telemetry_record_path.py --record   # rewrite golden
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).resolve().parent),
                    str(Path(__file__).resolve().parents[1] / "src")]

from hypothesis import given, settings, strategies as st

import control_plane_scenarios as scenarios
from repro.telemetry import Telemetry
from repro.telemetry.events import EventLog, TelemetryEvent
from repro.telemetry.spans import Span
from repro.telemetry.store import (
    MANIFEST_NAME,
    SEGMENT_DIR,
    SpanStore,
    _event_tuple_record,
    _read_spool_run,
    _span_tuple_record,
    event_partition,
    event_record,
    read_manifest,
    span_partition,
    span_record,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "telemetry_store.json"
STORE_SCENARIOS = ("reuse_session", "chaos_node_crash")
ROLLUP_DIR = "rollups"


# ==================================== the replaced write path, verbatim
def _span_tuple(span) -> tuple:
    return (span.span_id, span.kind, span.name, span.start, span.end,
            span.parent_id, span.attrs)


def _event_tuple(ev) -> tuple:
    return (ev.seq, ev.ts, ev.kind, ev.attrs)


class _FrozenLog(EventLog):
    def emit(self, kind: str, ts: float, **attrs) -> TelemetryEvent:
        event = TelemetryEvent(ts, kind, attrs, self._count)
        self._count += 1
        if self.sink is None:
            self._events.append(event)
        else:
            self.sink.add_event(event)
        return event


class _FrozenStore(SpanStore):
    # The manifest's loss counters: always 0 with a ``block`` ring.
    dropped_spans = dropped_events = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tee = False
        self.tee_spans: list = []
        self.tee_events: list = []

    def add_span(self, span) -> None:
        if self.tee:
            self.tee_spans.append(span)
        ring = self._span_ring
        ring.append(span)
        if len(ring) >= self.ring_spans:
            self.flush()

    def add_event(self, ev) -> None:
        if self.tee:
            self.tee_events.append(ev)
        ring = self._event_ring
        ring.append(ev)
        if len(ring) >= self.ring_events:
            self.flush()

    def flush(self) -> int:
        """Drain both rings into new segments; returns records written."""
        span_ring, event_ring = self._span_ring, self._event_ring
        resident = len(span_ring) + len(event_ring)
        if resident == 0:
            return 0
        if resident > self.peak_resident:
            self.peak_resident = resident
        root = self._dir if self._dir is not None else self._materialize()
        written = 0
        if self._live:
            parts: dict[tuple, list] = {}
            for span in span_ring:
                key = span_partition(span.kind, span.attrs)
                parts.setdefault(key, []).append(span_record(span))
            for ev in event_ring:
                key = event_partition(ev.kind, ev.attrs)
                parts.setdefault(key, []).append(event_record(ev))
            for (rtype, kind, dag), records in parts.items():
                written += self._write_segment(root, rtype, kind, dag,
                                               records)
        else:
            # Spool fast path: drain each ring as one pickled run of
            # raw field tuples — partitioning, record dicts and footers
            # all wait for persist-time compaction.
            if span_ring:
                written += self._write_spool_run(
                    root, "span", [_span_tuple(s) for s in span_ring])
            if event_ring:
                written += self._write_spool_run(
                    root, "event", [_event_tuple(e) for e in event_ring])
        self._flushed_spans += len(span_ring)
        self._flushed_events += len(event_ring)
        span_ring.clear()
        event_ring.clear()
        if self._live:
            self._write_manifest(root)
        self._flushes += 1
        return written

    def _write_spool_run(self, root: str, rtype: str,
                         tuples: list[tuple]) -> int:
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

    def _attach_existing(self, dir: str) -> None:
        self._dir = dir
        try:
            manifest = read_manifest(dir)
        except OSError:
            return
        self._manifest_entries = manifest.get("segments", [])
        self._segment_seq = manifest.get("next_segment", 0)
        self._flushed_spans = sum(e["count"] for e in self._manifest_entries
                                  if e["rtype"] == "span")
        self._flushed_events = sum(e["count"] for e in self._manifest_entries
                                   if e["rtype"] == "event")

    def _write_manifest(self, root: str) -> None:
        manifest = {
            "version": 1,
            "next_segment": self._segment_seq,
            "closed": self.closed,
            "segments": self._manifest_entries,
            "dropped_spans": self.dropped_spans,
            "dropped_events": self.dropped_events,
        }
        path = os.path.join(root, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)

    def write_rollup(self, dag_id: str, payload: dict) -> str:
        root = self._materialize()
        rolldir = os.path.join(root, ROLLUP_DIR)
        os.makedirs(rolldir, exist_ok=True)
        path = os.path.join(rolldir, f"{_safe(dag_id)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        return path

    def persist(self, target_dir: str) -> str:
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
            roll_src = os.path.join(src, ROLLUP_DIR)
            if os.path.isdir(roll_src):
                os.makedirs(os.path.join(target_dir, ROLLUP_DIR),
                            exist_ok=True)
                for name in os.listdir(roll_src):
                    os.replace(os.path.join(roll_src, name),
                               os.path.join(target_dir, ROLLUP_DIR, name))
            self._dir = target_dir
        self._write_manifest(target_dir)
        if not same and self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
        return target_dir


def _frozen_persist_store(store, open_spans, rollups, target_dir) -> None:
    """``Telemetry.persist_store`` as it was, minus the sidecars a
    clock-less script has none of."""
    for span in open_spans:
        store.add_span(span)
    for dag_id in rollups.dag_ids():
        roll = rollups.get(dag_id)
        if roll is not None and roll.closed:
            store.write_rollup(dag_id, rollups.payload(dag_id))
    store.persist(target_dir)


# ========================================================== the scripts
_EVENT_KINDS = ("am.transition", "yarn.allocation", "shuffle.fetch_retry",
                "am.dag_finished", "chaos.fault", "sim.tick")
_SPAN_KINDS = ("attempt", "vertex", "dag", "container", "session")
_DAGS = ("dag#1", "dag#2")

_OP = st.one_of(
    st.tuples(st.just("event"), st.sampled_from(_EVENT_KINDS),
              st.sampled_from(_DAGS + (None,)), st.integers(0, 9)),
    st.tuples(st.just("open"), st.sampled_from(_SPAN_KINDS),
              st.sampled_from(_DAGS + (None,)), st.integers(0, 50)),
    st.tuples(st.just("close"), st.integers(0, 50),
              st.sampled_from(("succeeded", "failed", None))),
    st.tuples(st.just("update"), st.integers(0, 50), st.integers(0, 9)),
    st.just(("flush",)),
)


@st.composite
def _scripts(draw):
    return {
        "ring_spans": draw(st.integers(1, 16)),
        "ring_events": draw(st.integers(1, 16)),
        "live": draw(st.booleans()),
        "ops": draw(st.lists(_OP, max_size=60)),
        "persist": draw(st.booleans()),
        "tail": draw(st.lists(st.tuples(st.sampled_from(_EVENT_KINDS),
                                        st.integers(0, 9)), max_size=8)),
    }


def _attrs(dag, value, **more) -> dict:
    attrs = {} if dag is None else {"dag": dag}
    attrs.update(more, value=value)
    return attrs


class _Sides:
    """The shipped path (a ``Telemetry`` facade) and the frozen one,
    fed the same script."""

    def __init__(self, script, root):
        opts = {key: script[key] for key in ("ring_spans", "ring_events")}
        self.root = root
        self.dirs = {side: os.path.join(root, side) if script["live"]
                     else None for side in ("shipped", "frozen")}
        self.tel = Telemetry(store_opts={"dir": self.dirs["shipped"],
                                         **opts})
        self.store = _FrozenStore(dir=self.dirs["frozen"], **opts)
        self.log = _FrozenLog(sink=self.store)
        self.open = []       # (shipped span, frozen span) in open order
        self.closed = []
        self.frozen_ids = 0

    def apply(self, step, op) -> None:
        ts = float(step)
        tel, what = self.tel, op[0]
        if what == "event":
            _, kind, dag, value = op
            tel.event(kind, ts=ts, **_attrs(dag, value))
            self.log.emit(kind, ts, **_attrs(dag, value))
        elif what == "open":
            _, kind, dag, pick = op
            parent = self.open[pick % len(self.open)] if self.open \
                else (None, None)
            name = f"{kind}{step}"
            attrs = _attrs(dag, step, vertex="v", index=step % 3)
            shipped = tel.span(kind, name, parent=parent[0], ts=ts,
                               **attrs)
            self.frozen_ids += 1
            frozen = Span(self.frozen_ids, kind, name, ts, None,
                          None if parent[1] is None
                          else parent[1].span_id, dict(attrs))
            self.open.append((shipped, frozen))
        elif what == "close" and self.open:
            _, pick, outcome = op
            shipped, frozen = pair = self.open.pop(pick % len(self.open))
            extra = {} if outcome is None else {"outcome": outcome}
            tel.finish(shipped, ts=ts, **extra)
            # Tracer.finish's sink branch as it was.
            frozen.end = ts
            frozen.attrs.update(extra)
            self.store.add_span(frozen)
            self.closed.append(pair)
        elif what == "update" and self.closed:
            _, pick, value = op
            shipped, frozen = self.closed[pick % len(self.closed)]
            tel.finish(shipped, note=value)
            frozen.attrs["note"] = value
        elif what == "flush":
            tel.flush()
            self.store.flush()

    def counters(self) -> list:
        return [
            tuple(getattr(store, name) for name in (
                "span_count", "event_count", "flushes", "peak_resident"))
            for store in (self.tel.spanstore, self.store)]

    def persist(self) -> dict:
        targets = {side: os.path.join(self.root, f"persisted-{side}")
                   for side in ("shipped", "frozen")}
        self.tel.persist_store(targets["shipped"])
        _frozen_persist_store(self.store, [f for _s, f in self.open],
                              self.tel.rollups, targets["frozen"])
        return targets


def _tree(root) -> dict:
    """relative path -> bytes of every file under ``root``."""
    out = {}
    for folder, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _safe(dag_id: str) -> str:
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in dag_id)


def _json_bytes(payload) -> bytes:
    return json.dumps(payload, indent=1, sort_keys=True).encode()


def _as_recorded(tree: dict, env=None) -> dict:
    """A shipped store's ``tree`` laid out as the frozen path and the
    golden's recording wrote it: the manifest's ``kernel`` as
    ``kernel.json`` without ``processes_started`` (checked to be the
    kernel's), ``shards`` as ``shards.json``, each rollup as
    ``rollups/<safe dag id>.json``, and a manifest without those three
    keys whose ``dropped_spans`` and ``dropped_events`` are 0."""
    if MANIFEST_NAME not in tree:       # a live store yet to flush
        return tree
    tree = dict(tree)
    manifest = json.loads(tree[MANIFEST_NAME])
    kernel = manifest.pop("kernel")
    shards = manifest.pop("shards")
    rollups = manifest.pop("rollups")
    manifest.update(dropped_spans=0, dropped_events=0)
    tree[MANIFEST_NAME] = _json_bytes(manifest)
    if kernel is not None:
        assert kernel.pop("processes_started") == env.processes_started > 0
        tree["kernel.json"] = _json_bytes(kernel)
    if shards:
        tree["shards.json"] = _json_bytes({"shards": shards})
    for dag_id, payload in rollups.items():
        tree[os.path.join(ROLLUP_DIR, f"{_safe(dag_id)}.json")] = \
            _json_bytes(payload)
    return tree


def _spool_runs(store) -> list:
    """(manifest entry, unpickled run) of every spooled run."""
    return [(entry, _read_spool_run(
                os.path.join(store.spool_dir, SEGMENT_DIR, entry["file"])))
            for entry in store._manifest_entries
            if entry["file"].endswith(".pkl")]


@settings(max_examples=150, database=None, deadline=None)
@given(_scripts())
def test_the_record_path_writes_what_the_object_path_wrote(script):
    with tempfile.TemporaryDirectory() as root:
        sides = _Sides(script, root)
        for step, op in enumerate(script["ops"]):
            sides.apply(step, op)
        shipped, frozen = sides.tel.spanstore, sides.store
        assert sides.counters()[0] == sides.counters()[1]
        if script["live"]:
            assert _as_recorded(_tree(sides.dirs["shipped"])) == \
                _tree(sides.dirs["frozen"])
        elif shipped.spool_dir is not None:
            assert _spool_runs(shipped) == _spool_runs(frozen)
        if not script["persist"]:
            shipped.close()
            frozen.close()
            assert sides.counters()[0] == sides.counters()[1]
            if script["live"]:
                assert _as_recorded(_tree(sides.dirs["shipped"])) == \
                    _tree(sides.dirs["frozen"])
            elif shipped.spool_dir is not None:
                assert _spool_runs(shipped) == _spool_runs(frozen)
            shipped.discard()
            frozen.discard()
            return
        targets = sides.persist()
        assert sides.counters()[0] == sides.counters()[1]
        assert _as_recorded(_tree(targets["shipped"])) == \
            _tree(targets["frozen"])
        # Reopen and append: the same records land the same way.
        again = {"shipped": SpanStore(dir=targets["shipped"]),
                 "frozen": _FrozenStore(dir=targets["frozen"])}
        logs = {"shipped": EventLog(sink=again["shipped"]),
                "frozen": _FrozenLog(sink=again["frozen"])}
        for step, (kind, value) in enumerate(script["tail"]):
            logs["shipped"].emit(kind, float(step), _attrs("dag#1", value))
            logs["frozen"].emit(kind, float(step), **_attrs("dag#1", value))
        for store in again.values():
            store.close()
        assert [store.span_count for store in again.values()] == \
            [shipped.span_count] * 2
        assert again["shipped"].event_count == again["frozen"].event_count
        assert _as_recorded(_tree(targets["shipped"])) == \
            _tree(targets["frozen"])


# ============================================================ the golden
def _tree_sha256(tree: dict) -> str:
    digest = hashlib.sha256()
    for rel, data in sorted(tree.items()):
        digest.update(rel.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def persisted_store_sha256(name: str) -> str:
    """Run one scenario, persist its simulation's store, hash it."""
    sims = []
    make_sim = scenarios.make_sim

    def capture(**overrides):
        sims.append(make_sim(**overrides))
        return sims[-1]

    scenarios.make_sim = capture
    try:
        scenarios.SCENARIOS[name]()
    finally:
        scenarios.make_sim = make_sim
    (sim,) = sims
    with tempfile.TemporaryDirectory() as root:
        store = os.path.join(root, "store")
        sim.telemetry.persist_store(store)
        assert sorted(os.listdir(store)) == [MANIFEST_NAME, SEGMENT_DIR]
        return _tree_sha256(_as_recorded(_tree(store), sim.env))


def test_persisted_stores_match_the_golden():
    # A fresh process, as at recording: application and container ids
    # come from process-global counters and are in the records.
    proc = subprocess.run([sys.executable, __file__], text=True,
                          check=True, stdout=subprocess.PIPE)
    assert json.loads(proc.stdout) == \
        json.loads(GOLDEN_PATH.read_text())["stores"]


def main(argv) -> int:
    observed = {name: persisted_store_sha256(name)
                for name in STORE_SCENARIOS}
    if argv == ["--record"]:
        golden = json.loads(GOLDEN_PATH.read_text())
        golden["stores"] = observed
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(observed, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
