"""The partitioned on-disk span store (telemetry system of record).

Three layers of coverage:

* **Store mechanics** — spool runs vs live JSONL segments, manifest
  wildcards and persist-time compaction, the lossless ring flush,
  reopening a persisted directory, ``discard()``, and the one run
  artefact: ``MANIFEST.json`` (with the run's kernel counters, shard
  summaries and rollups) plus ``segments/``, checked key by key.
* **Equivalence on the figure benchmarks** — a test-local recorder
  keeps every record the store is handed in memory alongside the
  bounded path, so every figure workload asserts that the partitioned
  store (and a persisted+reopened copy of it) yields the exact same
  timeline, summaries and critical paths the in-memory store would
  have.
* **Incremental rollups (Hypothesis)** — random span trees closed in
  random order must produce rollup summaries and critical paths
  identical to post-hoc scans over the store.
"""

import importlib
import json
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    critical_path,
    dag_summary,
    summarize_session,
)
from repro.telemetry import query
from repro.telemetry.check import check_store
from repro.telemetry.events import EventLog, TelemetryEvent
from repro.telemetry.spans import Span, Tracer
from repro.telemetry.store import (
    SpanStore,
    _span_tuple_record,
    event_record,
    read_manifest,
    span_record,
)
from repro.telemetry.timeline import TimelineStore, span_from_record

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


# ----------------------------------------------------------- builders
# The records a store is handed: span and event tuples.
def mk_span(span_id, kind="attempt", dag="dag#1", end_offset=1.0,
            **attrs):
    return Span(span_id, kind, f"s{span_id}", float(span_id),
                float(span_id) + end_offset, None,
                {"dag": dag, **attrs}).record()


def mk_event(seq, kind="am.task", dag="dag#1", **attrs):
    return (seq, float(seq), kind, {"dag": dag, **attrs})


def fill(store, n_spans=10, n_events=10):
    for i in range(n_spans):
        store.add_span(mk_span(i + 1, kind="attempt" if i % 2 else
                               "vertex", dag=f"dag#{i % 2}"))
    for i in range(n_events):
        store.add_event(mk_event(i, kind="am.task" if i % 2 else
                                 "shuffle.fetch", dag=f"dag#{i % 2}"))


# What a store persisted without a Telemetry facade says about its run.
NO_RUN = {"kernel": None, "shards": [], "rollups": {}}


def normalize(records):
    """Canonical JSON form: tuples->lists, key order fixed — the exact
    bytes a JSONL segment would hold."""
    return json.dumps(list(records), sort_keys=True)


# ==================================================== spool mechanics
def test_spool_flush_writes_runs_with_wildcard_manifest():
    store = SpanStore(ring_spans=4, ring_events=4)
    fill(store, 10, 10)
    seg_dir = os.path.join(store.spool_dir, "segments")
    files = sorted(os.listdir(seg_dir))
    assert files and all(f.endswith(".pkl") for f in files)
    # Spool runs are unpartitioned: wildcard manifest entries that
    # readers never prune on.
    assert {e["kind"] for e in store._manifest_entries} == {"*"}
    assert store.span_count == 10 and store.event_count == 10
    # Filters still apply record-by-record across runs + ring.
    recs = store.iter_span_records(kind="vertex", attrs={"dag": "dag#0"})
    assert [r["span_id"] for r in recs] == [1, 3, 5, 7, 9]
    seqs = [r["seq"] for r in store.iter_event_records(prefix="am.")]
    assert seqs == [1, 3, 5, 7, 9]
    windows = list(store.iter_event_records(since=3.0, until=6.0))
    assert [r["seq"] for r in windows] == [3, 4, 5, 6]
    store.discard()


def test_event_merge_is_globally_seq_ordered_across_runs_and_ring():
    store = SpanStore(ring_events=4, ring_spans=4)
    for i in range(11):  # 2 full runs on disk + 3 in the ring
        store.add_event(mk_event(i))
    assert store.flushes >= 2 and len(store._event_ring) > 0
    assert [r["seq"] for r in store.iter_event_records()] == list(range(11))
    store.discard()


def test_persist_compacts_runs_into_partitioned_jsonl(tmp_path):
    store = SpanStore(ring_spans=4, ring_events=4)
    fill(store, 10, 10)
    before_spans = normalize(store.iter_span_records())
    before_events = normalize(store.iter_event_records())
    target = str(tmp_path / "store")
    store.persist(target, NO_RUN)
    files = sorted(os.listdir(os.path.join(target, "segments")))
    assert files and all(f.endswith(".jsonl") for f in files)
    manifest = read_manifest(target)
    assert manifest["closed"] is True
    entries = manifest["segments"]
    assert entries and all(e["kind"] != "*" for e in entries)
    # Each compacted segment holds exactly one partition, and its
    # footer agrees with the manifest entry.
    for entry in entries:
        path = os.path.join(target, "segments", entry["file"])
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        footer = lines[-1]
        assert footer["type"] == "footer"
        for key in ("file", "rtype", "kind", "dag", "count",
                    "min_ts", "max_ts", "min_key", "max_key"):
            assert footer[key] == entry[key]
        body = lines[:-1]
        assert len(body) == entry["count"]
        for rec in body:
            if entry["rtype"] == "span":
                assert rec["kind"] == entry["kind"]
            else:
                assert rec["kind"].split(".", 1)[0] == entry["kind"]
            assert rec["attrs"].get("dag", "-") == entry["dag"]
    assert check_store(target) == []
    # The records read back identically after compaction.
    assert normalize(store.iter_span_records()) == before_spans
    assert normalize(store.iter_event_records()) == before_events


def test_live_store_is_jsonl_and_tails_manifest_each_flush(tmp_path):
    target = str(tmp_path / "live")
    store = SpanStore(dir=target, ring_spans=4, ring_events=4)
    fill(store, 9, 9)
    # Mid-run (not closed): a reader can already discover every
    # flushed segment through the on-disk manifest.
    manifest = read_manifest(target)
    assert manifest["closed"] is False
    assert manifest["segments"]
    assert all(e["file"].endswith(".jsonl") and e["kind"] != "*"
               for e in manifest["segments"])
    store.close()
    assert read_manifest(target)["closed"] is True
    assert check_store(target) == []


def test_reopen_persisted_store_appends_without_collisions(tmp_path):
    target = str(tmp_path / "store")
    first = SpanStore(ring_spans=4, ring_events=4)
    fill(first, 6, 6)
    first.persist(target, NO_RUN)

    again = SpanStore(dir=target)
    assert again.span_count == 6 and again.event_count == 6
    for i in range(6, 9):
        again.add_span(mk_span(i + 1))
        again.add_event(mk_event(i))
    again.close()
    assert again.span_count == 9 and again.event_count == 9
    names = [e["file"] for e in read_manifest(target)["segments"]]
    assert len(names) == len(set(names))
    assert check_store(target) == []
    assert [r["seq"] for r in again.iter_event_records()] == list(range(9))


def test_discard_drops_the_private_spool():
    store = SpanStore(ring_spans=2)
    for i in range(4):
        store.add_span(mk_span(i + 1))
    spool = store.spool_dir
    assert spool is not None and os.path.isdir(spool)
    store.discard()
    assert store.spool_dir is None
    assert not os.path.isdir(spool)


# ================================================ one record per span
def _warm_session():
    """A session AM holding 4 prewarmed containers: the session span
    and one span per container stay open until the session stops."""
    from helpers import make_sim
    from repro.tez import TezConfig
    sim = make_sim()
    client = sim.tez_client("s", session=True, config=TezConfig(
        container_idle_timeout=1e9, session_idle_timeout=1e9))
    client.start()
    client.prewarm(4)
    sim.env.run(until=sim.env.now + 30.0)
    return sim, client


def _stored_span_ids(store_dir):
    return [rec["span_id"] for rec in
            TimelineStore.open(store_dir).spanstore.iter_span_records()]


def test_a_span_persisted_open_is_stored_once_after_it_closes(tmp_path):
    """persist_store() snapshots every open span; the span's close
    replaces the snapshot, so the store holds one record per span id -
    the closed one - and span_count counts spans."""
    sim, client = _warm_session()
    tel = sim.telemetry
    open_ids = {span.span_id for span in tel.tracer.open_spans()}
    assert len(open_ids) >= 5
    target = str(tmp_path / "store")
    tel.persist_store(target)
    live = [span.span_id for span in tel.store.spans()]
    assert sorted(live) == sorted(set(live)) and open_ids <= set(live)
    client.stop()
    sim.env.run(until=sim.env.now + 60.0)
    assert not open_ids & {span.span_id for span in tel.tracer.open_spans()}
    tel.close()
    ids = _stored_span_ids(target)
    assert sorted(ids) == sorted(set(ids))
    assert tel.spanstore.span_count == len(ids)
    assert open_ids <= set(ids)
    assert all(rec["end"] is not None for rec in
               TimelineStore.open(target).spanstore.iter_span_records()
               if rec["span_id"] in open_ids)
    assert check_store(target) == []


def test_a_span_persisted_open_twice_keeps_its_latest_snapshot(tmp_path):
    sim, _client = _warm_session()
    tel = sim.telemetry
    session = tel.tracer.select(kind="session")[0]
    target = str(tmp_path / "store")
    tel.persist_store(target)
    session.attrs["mark"] = "second"
    tel.persist_store(target)
    ids = _stored_span_ids(target)
    assert sorted(ids) == sorted(set(ids))
    assert tel.spanstore.span_count == len(ids)
    (rec,) = [r for r in TimelineStore.open(target).spanstore
              .iter_span_records(kind="session")]
    assert rec["end"] is None and rec["attrs"]["mark"] == "second"
    assert check_store(target) == []


def test_store_check_fails_on_a_duplicate_span_id(tmp_path, capsys):
    from repro.telemetry.check import main as check_main
    target = str(tmp_path / "store")
    store = SpanStore(dir=target, ring_spans=2)
    store.add_span(mk_span(1, kind="vertex"))
    store.add_span(mk_span(2))
    store.add_span(mk_span(1, kind="vertex", end_offset=2.0))
    store.close()
    problems = check_store(target)
    assert len(problems) == 1 and "span_id 1 stored twice" in problems[0]
    assert check_main(["--store", target]) == 1
    assert "stored twice" in capsys.readouterr().out


# ========================================================= ring flush
def test_block_policy_is_lossless_and_bounded():
    store = SpanStore(ring_spans=8, ring_events=8)
    fill(store, 100, 100)
    assert store.flushes > 1
    assert store.peak_resident <= 16
    assert store.span_count == 100 and store.event_count == 100
    assert len(list(store.iter_event_records())) == 100
    store.discard()


# ================================================== one run artefact
def _session_run(*names, clients=1, shards=1):
    """A sim whose session clients ran a one-vertex DAG per name, the
    names dealt to the clients in turn."""
    from helpers import fn_vertex, make_sim
    from repro.tez import DAG
    sim = make_sim()
    runs = [sim.tez_client(f"c{i}", session=True, shards=shards)
            for i in range(clients)]
    for i, name in enumerate(names):
        dag = DAG(name).add_vertex(fn_vertex("v", lambda c, d: {}, 2))
        handle = runs[i % clients].submit_dag(dag)
        sim.env.run(until=handle.completion)
        assert handle.status.succeeded
    for client in runs:
        client.stop()
    sim.env.run(until=sim.env.now + 60.0)
    return sim


def test_a_persisted_store_is_the_manifest_and_its_segments(tmp_path):
    sim = _session_run("a", "b", shards=2)
    target = str(tmp_path / "store")
    sim.telemetry.persist_store(target)
    assert sorted(os.listdir(target)) == ["MANIFEST.json", "segments"]
    manifest = read_manifest(target)
    assert set(manifest["rollups"]) == set(sim.telemetry.store.dag_ids())
    assert [s["client"] for s in manifest["shards"]] == ["c0", "c0"]
    assert manifest["kernel"]["heap_pushes"] == sim.env.heap_pushes
    assert check_store(target) == []
    # Reopened and appended to, the store keeps what the run said.
    again = SpanStore(dir=target)
    again.add_event(mk_event(10**6))
    again.close()
    reread = read_manifest(target)
    assert {key: reread[key] for key in NO_RUN} == \
        {key: manifest[key] for key in NO_RUN}
    assert check_store(target) == []
    # Without an environment or shard clients the keys are still there.
    bare = Telemetry()
    bare.event("am.tick", ts=0.0)
    bare.persist_store(str(tmp_path / "bare"))
    manifest = read_manifest(str(tmp_path / "bare"))
    assert {key: manifest[key] for key in NO_RUN} == NO_RUN


def test_dags_whose_file_safe_names_collide_keep_both_rollups(
        tmp_path, capsys):
    sim = _session_run("a#1", "a_1", clients=2)
    assert sorted(sim.telemetry.store.dag_ids()) == ["a#1#1", "a_1#1"]
    target = str(tmp_path / "store")
    sim.telemetry.persist_store(target)
    assert query.main([target, "--summary"]) == 0
    out = capsys.readouterr().out
    assert "a#1#1" in out and "a_1#1" in out
    assert check_store(target) == []


@pytest.fixture(scope="module")
def sharded_store(tmp_path_factory):
    target = str(tmp_path_factory.mktemp("sharded") / "store")
    _session_run("a", "b", shards=2).telemetry.persist_store(target)
    assert sorted(read_manifest(target)["rollups"]) == ["a#1", "b#1.1"]
    assert check_store(target) == []
    return target


def _problems_after(store_dir, tmp_path, edit):
    """check_store's problems for a copy of the store whose manifest
    ``edit`` changed in place."""
    import shutil
    copy = str(tmp_path / "copy")
    shutil.copytree(store_dir, copy)
    manifest = read_manifest(copy)
    edit(manifest)
    with open(os.path.join(copy, "MANIFEST.json"), "w") as fh:
        json.dump(manifest, fh)
    return check_store(copy)


@pytest.mark.parametrize("edit, expect", [
    (lambda m: m.pop("rollups"), "no 'rollups'"),
    (lambda m: m.update(shards={}), "shards are not a list"),
    (lambda m: m["shards"][0].update(client=7), "shard #0 client=7"),
    (lambda m: m["shards"][1].pop("checkpoints"),
     "shard #1 checkpoints=None"),
    (lambda m: m["shards"][0].update(dags=-1), "shard #0 dags=-1"),
    (lambda m: m["shards"][0].update(journal_records=2.0),
     "shard #0 journal_records=2.0"),
    (lambda m: m.update(rollups=[]), "rollups are not an object"),
    (lambda m: m["rollups"]["a#1"].pop("wall_clock"),
     "rollup 'a#1' missing ['wall_clock']"),
    (lambda m: m["rollups"]["b#1.1"].update(dag_id="a#1"),
     "rollup dag_id 'a#1' stored twice"),
    (lambda m: m["rollups"].update({"z#1": {**m["rollups"]["a#1"],
                                             "dag_id": "z#1"}}),
     "rollup 'z#1' has no stored dag span"),
    (lambda m: m["rollups"]["a#1"]["critical_path"][0].pop("vertex"),
     "rollup 'a#1' critical_path"),
])
def test_store_check_validates_every_manifest_key(sharded_store, tmp_path,
                                                   edit, expect):
    problems = _problems_after(sharded_store, tmp_path, edit)
    assert problems and all("MANIFEST.json" in p for p in problems)
    assert any(expect in p for p in problems), problems


# ============================================= metrics snapshot delta
def test_delta_sparse_matches_full_delta_and_is_sparse():
    reg = MetricsRegistry()
    for name in ("a", "b", "c.scoped"):
        reg.counter(name).inc(5)
    snap = reg.snapshot()
    reg.counter("b").inc(2)
    reg.counter("fresh").inc()
    sparse = reg.delta_sparse(snap)
    full = reg.delta(snap)
    assert sparse == {"b": 2, "fresh": 1}
    assert {k: v for k, v in full.items() if v} == sparse
    # Plain-dict bases (the historical snapshot shape) still work.
    assert reg.delta_sparse(dict(snap)) == full
    # Snapshots stay byte-identical to the historical plain dict.
    assert json.dumps(reg.snapshot()) == json.dumps(
        {"a": 5.0, "b": 7.0, "c.scoped": 5.0, "fresh": 1.0})


# ============================== figure-benchmark timeline equivalence
FIG_MODULES = [
    "bench_fig08_hive_tpcds",
    "bench_fig09_hive_tpch",
    "bench_fig10_pig_etl",
    "bench_fig11_pig_kmeans",
    "bench_fig12_spark_sharing",
    "bench_fig13_spark_latency",
]


@pytest.fixture
def recorded(monkeypatch):
    """store -> (span records, event records): everything each
    ``SpanStore`` is handed, kept in memory beside the bounded path."""
    seen = {}
    add_span, add_event = SpanStore.add_span, SpanStore.add_event

    def recording_add_span(store, rec):
        seen.setdefault(store, ([], []))[0].append(rec)
        add_span(store, rec)

    def recording_add_event(store, rec):
        seen.setdefault(store, ([], []))[1].append(rec)
        add_event(store, rec)

    monkeypatch.setattr(SpanStore, "add_span", recording_add_span)
    monkeypatch.setattr(SpanStore, "add_event", recording_add_event)
    return seen


def legacy_timeline(tel, recorded):
    """The in-memory timeline the recorder retained: a sink-less
    tracer/log holding every span and event, exactly as pre-store
    telemetry did."""
    spans, events = recorded[tel.spanstore]
    by_id = {}
    # A span still open is in the tracer's open set and, once
    # persist_store() has snapshotted it, among the records: keep one.
    for span in [span_from_record(_span_tuple_record(t)) for t in spans] \
            + tel.tracer.open_spans():
        by_id.setdefault(span.span_id, span)
    tracer = Tracer()
    tracer.spans = [by_id[span_id] for span_id in sorted(by_id)]
    log = EventLog()
    log._events = [TelemetryEvent(ts, kind, attrs, seq)
                   for seq, ts, kind, attrs in events]
    log._count = len(log._events)
    return TimelineStore(log=log, tracer=tracer)


def assert_store_equals_legacy(tel, store, legacy):
    """timeline + summaries + critical paths, store vs in-memory."""
    assert normalize([span_record(s) for s in store.spans()]) == \
        normalize([span_record(s) for s in legacy.spans()])
    assert normalize([event_record(e) for e in store.events()]) == \
        normalize([event_record(e) for e in legacy.events()])
    dag_ids = legacy.dag_ids()
    assert store.dag_ids() == dag_ids
    for dag_id in dag_ids:
        assert dag_summary(store, dag_id) == dag_summary(legacy, dag_id)
        assert critical_path(store, dag_id) == \
            critical_path(legacy, dag_id)
        if tel is not None:
            # Incremental rollups agree with both.
            assert tel.rollups.summary(dag_id) == \
                dag_summary(legacy, dag_id)
            assert tel.rollups.critical(dag_id) == \
                critical_path(legacy, dag_id)


@pytest.mark.parametrize("mod_name", FIG_MODULES)
def test_figure_benchmark_store_equivalence(mod_name, monkeypatch,
                                            tmp_path, recorded):
    """On every figure benchmark the partitioned store round-trips to
    the exact same timeline, summaries and critical paths as the legacy
    in-memory store (retained by the recorder), live and after
    persist+reopen."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    mod = importlib.import_module(mod_name)
    sims = []
    real_finish = mod.finish_bench

    def capture(sim, *args, **kwargs):
        if sim not in sims:
            sims.append(sim)
        return real_finish(sim, *args, **kwargs)

    monkeypatch.setattr(mod, "finish_bench", capture)
    mod.run_workload()
    assert sims, f"{mod_name}.run_workload() never called finish_bench"

    for sim in sims:
        tel = sim.telemetry
        assert tel.spanstore in recorded, "no record reached the store"
        legacy = legacy_timeline(tel, recorded)
        assert_store_equals_legacy(tel, tel.store, legacy)

    # Persist + reopen the last simulation's store: the directory is
    # pure partitioned JSONL and queries still match the in-memory
    # timeline (open spans are persisted too).
    tel = sims[-1].telemetry
    target = str(tmp_path / "store")
    tel.persist_store(target)
    assert sorted(os.listdir(target)) == ["MANIFEST.json", "segments"]
    assert check_store(target) == []
    legacy = legacy_timeline(tel, recorded)
    reopened = TimelineStore.open(target)
    assert_store_equals_legacy(None, reopened, legacy)


# ==================== incremental rollups == post-hoc scans (Hypothesis)
DAG_ID = "dag#r"

_ts = st.integers(0, 400).map(lambda v: v / 8.0)
_outcome = st.sampled_from(["succeeded", "failed", "killed"])
_movement = st.sampled_from(["SCATTER_GATHER", "BROADCAST", "ONE_TO_ONE"])


@st.composite
def dag_scenarios(draw):
    n_vertices = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for j in range(1, n_vertices):
        for i in range(j):
            if draw(st.booleans()):
                edges.append((vertices[i], vertices[j], draw(_movement)))
    attempts = []
    for vertex in vertices:
        for index in range(draw(st.integers(1, 3))):
            for retry in range(draw(st.integers(1, 2))):
                queued = draw(_ts)
                launched = queued + draw(_ts)
                end = launched + draw(_ts)
                attempts.append({
                    "attempt": f"{DAG_ID}/{vertex}/t{index}_a{retry}",
                    "vertex": vertex, "index": index,
                    "queued": queued, "launched": launched, "end": end,
                    "outcome": draw(_outcome),
                })
    # Attempts close in random order: incremental folding must not
    # depend on close order matching creation order.
    close_order = draw(st.permutations(range(len(attempts))))
    extra = draw(st.lists(st.tuples(
        st.sampled_from(["am.speculation", "am.reexecution",
                         "shuffle.fetch_retry", "chaos.fault"]),
        _ts), max_size=6))
    return {"vertices": vertices, "edges": edges, "attempts": attempts,
            "close_order": close_order, "extra": extra}


def replay(scenario, ring=4):
    """Feed a random scenario through the facade (incremental rollups
    + tiny rings, so reads cross multiple spool runs)."""
    tel = Telemetry(store_opts={"ring_spans": ring, "ring_events": ring})
    attempts = scenario["attempts"]
    span_end = max((a["end"] for a in attempts), default=0.0)
    dag_start, dag_end = 0.0, span_end + 1.0
    tel.event("am.dag_submitted", ts=dag_start, dag=DAG_ID,
              edges=scenario["edges"])
    dag_span = tel.span("dag", DAG_ID, ts=dag_start, dag=DAG_ID,
                        dag_name="random-dag")
    vertex_spans = [
        tel.span("vertex", v, ts=dag_start, dag=DAG_ID, vertex=v)
        for v in scenario["vertices"]
    ]
    open_attempts = [
        tel.span("attempt", a["attempt"], ts=a["queued"], dag=DAG_ID,
                 vertex=a["vertex"], index=a["index"],
                 attempt=a["attempt"], launched=a["launched"])
        for a in attempts
    ]
    for i in scenario["close_order"]:
        tel.finish(open_attempts[i], ts=attempts[i]["end"],
                   outcome=attempts[i]["outcome"])
    for kind, ts in scenario["extra"]:
        if kind == "chaos.fault":
            tel.event(kind, ts=ts, node="node0001")  # cluster-scoped
        else:
            tel.event(kind, ts=ts, dag=DAG_ID)
    tel.event("am.dag_finished", ts=dag_end, dag=DAG_ID,
              state="SUCCEEDED")
    for vspan in vertex_spans:
        tel.finish(vspan, ts=dag_end)
    tel.finish(dag_span, ts=dag_end)  # folds the critical path
    return tel


@settings(max_examples=60, database=None, deadline=None)
@given(dag_scenarios())
def test_incremental_rollups_equal_post_hoc_scans(scenario):
    tel = replay(scenario)
    try:
        scan = dag_summary(tel.store, DAG_ID)
        roll = tel.rollups.summary(DAG_ID)
        assert roll == scan
        assert tel.rollups.critical(DAG_ID) == \
            critical_path(tel.store, DAG_ID)
        assert [roll] == tel.rollups.summaries()
        assert [scan] == summarize_session(tel.store)
        # The telescoping invariant holds on the incremental path too.
        report = tel.rollups.critical(DAG_ID)
        assert report.total == pytest.approx(report.wall_clock)
    finally:
        tel.spanstore.discard()


# ------------------------------- always-on telemetry on a real workload
def test_store_is_bounded_and_lossless_and_moves_nothing():
    """The 40x40 buffered shuffle with the store as system of record,
    on rings small enough that segments must flush: resident records
    stay within the rings, nothing is dropped, and the simulated run -
    makespan and every task placement - equals telemetry=False."""
    from control_plane_scenarios import wide_shuffle_on
    from repro import SimCluster
    from repro.tez.vertex_manager import ShuffleVertexManagerConfig

    ring = 512

    def run(enabled):
        sim = SimCluster(num_nodes=4, nodes_per_rack=2,
                         memory_per_node_mb=16 * 1024, cores_per_node=8,
                         telemetry=enabled,
                         telemetry_opts={"ring_spans": ring,
                                         "ring_events": ring})
        return sim, wide_shuffle_on(sim, 40, ShuffleVertexManagerConfig())

    _, off = run(False)
    sim, on = run(True)
    assert on == off
    store = sim.telemetry.spanstore
    assert store.peak_resident <= 2 * ring
    assert store.flushes >= 1
    sim.telemetry.close()
    store.discard()
