"""Telemetry subsystem: spans, events, metrics, the Chrome trace view,
analysis.

Covers the hand-built critical-path scenarios (a re-execution on the
path, a speculative attempt winning), the telescoping invariant
(segments sum exactly to the DAG wall-clock), a persisted store's
round trip + schema check, the Chrome trace-event shape on a real
TPC-H-style run (live, and as ``query --chrome-trace`` writes it from
the store), and the AM's one counter surface (``DAGAppMaster.registry``
behind the plain ``DAGStatus.metrics`` dict). The post-hoc scans
(``timeline_oracle``) stand for what the rollups must equal.
"""

import json

import pytest

from repro import SimCluster
from repro.tez import DAG
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    chrome_trace,
    get_telemetry,
    validate_records,
    write_chrome_trace,
)
from repro.telemetry import query
from repro.telemetry.check import check_store
from repro.telemetry.timeline import TimelineStore

from helpers import (
    SG,
    edge,
    fn_vertex,
    hdfs_sink,
    hdfs_source,
    make_sim,
)
from timeline_oracle import (
    critical_path,
    dag_ids,
    dag_summary,
    summarize_session,
)

DAG_ID = "dag#1"


def write_kv(sim, path, n, record_bytes=32, mod=10):
    sim.hdfs.write(path, [(i % mod, i) for i in range(n)],
                   record_bytes=record_bytes)


def tpch_style_dag():
    """scan -> join -> agg, two scatter-gather stages."""
    scan = fn_vertex("scan", lambda c, d: {"join": list(d["src"])}, -1,
                     cpu_per_record=4e-4)
    hdfs_source(scan, "src", ["/in/lineitem"])
    join = fn_vertex("join", lambda c, d: {"agg": [
        (k % 4, v) for k, vs in d["scan"] for v in vs
    ]}, 4, cpu_per_record=3e-4)
    agg = fn_vertex("agg", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["join"]
    ]}, 2)
    hdfs_sink(agg, "out", "/out/q")
    dag = (DAG("tpch-q-style").add_vertex(scan).add_vertex(join)
           .add_vertex(agg))
    dag.add_edge(edge(scan, join, SG))
    dag.add_edge(edge(join, agg, SG))
    return dag


# ===================================================== metrics registry
def test_metrics_registry_counters():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.counter("a").inc(2)
    assert reg.counter("a").value == 3


def test_metrics_registry_snapshot_delta_scopes_per_dag():
    reg = MetricsRegistry()
    reg.counter("tasks").inc(5)
    base = reg.snapshot()
    reg.counter("tasks").inc(3)
    reg.counter("fresh").inc()
    delta = reg.delta(base)
    assert delta["tasks"] == 3
    assert delta["fresh"] == 1
    # A snapshot is a plain dict, byte for byte.
    assert json.dumps(reg.snapshot()) == json.dumps(
        {"tasks": 8.0, "fresh": 1.0})


# ======================================================= event log API
def test_event_log_select_by_kind_prefix_and_attrs():
    tel = Telemetry()
    tel.event("yarn.allocation", ts=1.0, node="n0")
    tel.event("yarn.preemption", ts=2.0, node="n1")
    tel.event("am.speculation", ts=3.0, vertex="m")
    assert len(tel.store.events(prefix="yarn.")) == 2
    assert tel.store.events(kind="am.speculation")[0].attrs["vertex"] == "m"
    assert tel.store.events(prefix="yarn.", node="n1")[0].ts == 2.0
    assert [e.kind for e in tel.store.events(since=1.5)] == [
        "yarn.preemption", "am.speculation"]


# ============================== critical path on hand-built timelines
def _hand_built(edges):
    tel = Telemetry()
    dag = tel.span("dag", "q", ts=0.0, dag=DAG_ID, dag_name="q")
    tel.event("am.dag_submitted", ts=0.0, dag=DAG_ID,
              vertices=["m", "r"], edges=edges)
    return tel, dag


def _attempt(tel, vertex, index, attempt_no, start, launched, end,
             outcome, speculative=False):
    name = f"{DAG_ID}/{vertex}/t{index}_a{attempt_no}"
    span = tel.span("attempt", name, ts=start, dag=DAG_ID, vertex=vertex,
                    index=index, attempt=name, speculative=speculative)
    span.attrs["launched"] = launched
    tel.finish(span, ts=end, outcome=outcome)
    return span


def test_critical_path_includes_reexecuted_attempt():
    tel, dag = _hand_built(edges=[["m", "r", "SCATTER_GATHER"]])
    _attempt(tel, "m", 0, 0, 1.0, 1.5, 4.0, "succeeded")
    # Output lost: the task re-runs and the rerun finishes later — it
    # is the effective producer even though a0 also succeeded.
    _attempt(tel, "m", 0, 1, 5.0, 5.5, 8.0, "succeeded")
    _attempt(tel, "r", 0, 0, 4.2, 4.5, 10.0, "succeeded")
    tel.finish(dag, ts=10.5)

    report = critical_path(tel.store, DAG_ID)
    assert report.total == pytest.approx(report.wall_clock)
    assert report.wall_clock == pytest.approx(10.5)
    on_path = {seg.attempt for seg in report.segments if seg.kind == "run"}
    assert f"{DAG_ID}/m/t0_a1" in on_path
    assert f"{DAG_ID}/m/t0_a0" not in on_path
    # Telescoping: consecutive segments share endpoints.
    for a, b in zip(report.segments, report.segments[1:]):
        assert a.end == pytest.approx(b.start)


def test_critical_path_follows_winning_speculative_attempt():
    tel, dag = _hand_built(edges=[["m", "r", "SCATTER_GATHER"]])
    # The original straggles and is killed; the speculative wins.
    _attempt(tel, "m", 0, 0, 1.0, 1.2, 9.0, "killed")
    _attempt(tel, "m", 0, 1, 3.0, 3.5, 6.0, "succeeded",
             speculative=True)
    _attempt(tel, "r", 0, 0, 6.1, 6.2, 8.0, "succeeded")
    tel.finish(dag, ts=8.5)

    report = critical_path(tel.store, DAG_ID)
    assert report.total == pytest.approx(report.wall_clock)
    run_attempts = {seg.attempt for seg in report.segments
                    if seg.kind == "run"}
    assert f"{DAG_ID}/m/t0_a1" in run_attempts
    assert f"{DAG_ID}/m/t0_a0" not in run_attempts
    kinds = [seg.kind for seg in report.segments]
    assert kinds[0] == "init" and kinds[-1] == "finalize"


def test_critical_path_one_to_one_matches_partner_index():
    tel, dag = _hand_built(edges=[["m", "r", "ONE_TO_ONE"]])
    _attempt(tel, "m", 0, 0, 0.5, 0.6, 2.0, "succeeded")
    _attempt(tel, "m", 1, 0, 0.5, 0.6, 7.0, "succeeded")   # slow partner
    _attempt(tel, "r", 0, 0, 2.1, 2.2, 3.0, "succeeded")
    _attempt(tel, "r", 1, 0, 7.1, 7.2, 9.0, "succeeded")
    tel.finish(dag, ts=9.0)

    report = critical_path(tel.store, DAG_ID)
    run_attempts = [seg.attempt for seg in report.segments
                    if seg.kind == "run"]
    # r/t1 chains to ITS producer m/t1, never the fast m/t0.
    assert run_attempts == [f"{DAG_ID}/m/t1_a0", f"{DAG_ID}/r/t1_a0"]
    assert report.total == pytest.approx(report.wall_clock)


def test_critical_path_failed_dag_is_single_opaque_segment():
    tel, dag = _hand_built(edges=[])
    _attempt(tel, "m", 0, 0, 1.0, 1.5, 4.0, "failed")
    tel.finish(dag, ts=5.0)
    report = critical_path(tel.store, DAG_ID)
    assert [seg.kind for seg in report.segments] == ["init"]
    assert report.total == pytest.approx(report.wall_clock)


def test_dag_summary_counts_cluster_faults_in_window():
    # chaos.fault events carry no dag attr (faults hit the cluster,
    # not a DAG); the summary counts those inside the DAG's window.
    tel = Telemetry()
    dag = tel.span("dag", "q", ts=2.0, dag=DAG_ID, dag_name="q")
    tel.event("am.dag_submitted", ts=2.0, dag=DAG_ID,
              vertices=["m"], edges=[])
    _attempt(tel, "m", 0, 0, 2.5, 2.7, 4.0, "succeeded")
    tel.event("chaos.fault", ts=0.5, fault="node_crash")   # before
    tel.event("chaos.fault", ts=3.0, fault="rack_outage")  # inside
    tel.finish(dag, ts=5.0)
    tel.event("chaos.fault", ts=6.0, fault="node_crash")   # after
    assert dag_summary(tel.store, DAG_ID).faults == 1


def test_critical_path_requires_finished_dag_span():
    tel = Telemetry()
    tel.span("dag", "q", ts=0.0, dag=DAG_ID, dag_name="q")
    with pytest.raises(ValueError):
        critical_path(tel.store, DAG_ID)


# ============================================ end-to-end acceptance run
def run_tpch_style():
    sim = make_sim(num_nodes=6, nodes_per_rack=3,
                   hdfs_block_size=16 * 1024)
    write_kv(sim, "/in/lineitem", 6000, record_bytes=48, mod=20)
    client = sim.tez_client()
    handle = client.submit_dag(tpch_style_dag())
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded, handle.status.diagnostics
    return sim, client, handle


def test_acceptance_chrome_trace_and_critical_path(tmp_path):
    """ISSUE acceptance: a TPC-H-style DAG yields a loadable Chrome
    trace and a critical path whose segments sum to the wall-clock."""
    sim, client, handle = run_tpch_style()
    store = sim.timeline

    events = chrome_trace(store)
    assert events, "trace must not be empty"
    phases = {e["ph"] for e in events}
    assert phases <= {"X", "i", "M"}
    for e in events:
        assert {"ph", "pid", "tid", "name"} <= e.keys()
        if e["ph"] in ("X", "i"):
            assert e["ts"] >= 0
        if e["ph"] == "X":
            assert e["dur"] >= 0
    # Perfetto-recognisable: AM process + per-node processes named.
    names = {(m["name"], m["args"]["name"]) for m in events
             if m["ph"] == "M"}
    assert ("process_name", "tez-am") in names
    assert any(n[0] == "process_name" and str(n[1]).startswith("node")
               for n in names)
    cats = {e.get("cat") for e in events if e["ph"] == "X"}
    assert {"dag", "vertex", "container", "task"} <= cats

    path = tmp_path / "trace.json"
    count = write_chrome_trace(store, str(path))
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == count == len(events)

    (dag_id,) = dag_ids(store)
    report = critical_path(store, dag_id)
    assert report.wall_clock == pytest.approx(handle.status.elapsed)
    assert report.total == pytest.approx(report.wall_clock)
    assert {"run"} <= set(report.breakdown())
    # The path traverses the whole pipeline: its run segments end at
    # the sink vertex.
    run_vertices = [seg.vertex for seg in report.segments
                    if seg.kind == "run"]
    assert run_vertices[-1] == "agg"
    assert report.render()


def test_store_round_trip_and_schema_check(tmp_path):
    sim, client, handle = run_tpch_style()
    live = sim.timeline
    live_spans = len(live.spans())
    live_seqs = [ev.seq for ev in live.events()]
    target = str(tmp_path / "store")
    sim.telemetry.persist_store(target)
    assert check_store(target) == []
    reopened = TimelineStore.open(target).spanstore
    spans = reopened.iter_span_records()
    events = list(reopened.iter_event_records())
    assert validate_records(spans + events) == []
    assert len(spans) == live_spans
    # Lossless: every event, in emission order.
    assert [e["seq"] for e in events] == live_seqs
    kinds = {r["kind"] for r in spans + events}
    assert {"session", "dag", "vertex", "attempt", "container",
            "am.dag_submitted", "am.dag_finished", "task.run",
            "yarn.allocation"} <= kinds
    # A corrupted record is caught by the schema check.
    bad = dict(spans[0], start="soon")
    assert validate_records([bad])


def test_query_chrome_trace_is_the_live_trace(tmp_path, capsys):
    """``query STORE --chrome-trace OUT`` writes the trace the live
    timeline gives, from the persisted store alone."""
    sim, client, handle = run_tpch_style()
    live = chrome_trace(sim.timeline)
    target = str(tmp_path / "store")
    sim.telemetry.persist_store(target)
    out = tmp_path / "trace.json"
    assert query.main([target, "--chrome-trace", str(out)]) == 0
    assert f"wrote {len(live)} trace events" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["traceEvents"] == json.loads(json.dumps(live))


def test_am_registry_is_the_one_counter_surface():
    sim, client, handle = run_tpch_style()
    am = client.last_am
    assert not hasattr(am, "metrics")
    counters = am.registry.counters
    for key in ("nodes_lost", "nodes_blacklisted", "preemptions",
                "lost_node_reexecutions", "faults_injected",
                "speculative_attempts"):
        assert counters[key].value == 0
    assert counters["tasks_succeeded"].value >= 3
    # What a DAG reports is a plain dict of the DAG's counter growth.
    status = handle.status
    assert type(status.metrics) is dict
    assert status.metrics["tasks_succeeded"] == \
        counters["tasks_succeeded"].value
    assert isinstance(status.metrics["tasks_succeeded"], int)
    assert status.metrics["containers_launched"] >= 1
    assert status.metrics["total_tasks"] >= 3
    assert "counters" in status.metrics


def test_dag_summary_and_session_rollup():
    sim, client, handle = run_tpch_style()
    store = sim.timeline
    (dag_id,) = dag_ids(store)
    summary = dag_summary(store, dag_id)
    assert summary.outcome == "SUCCEEDED"
    assert summary.vertices == 3
    assert summary.succeeded >= 3
    assert summary.failed == 0
    assert summary.wall_clock == pytest.approx(
        handle.status.elapsed)
    assert summary.critical is not None
    assert summary.line()
    (rolled,) = summarize_session(store)
    assert rolled.dag_id == dag_id


def test_telemetry_is_ambient_and_optional():
    sim = make_sim(num_nodes=2)
    assert get_telemetry(sim.env) is sim.telemetry
    from repro.sim import Environment
    assert get_telemetry(Environment()) is None


def test_telemetry_disabled_records_nothing():
    """``SimCluster(telemetry=False)`` turns observability into a
    no-op: emission sites see ``get_telemetry() is None`` and skip
    their span/event construction entirely (the perf-bench fast path)."""
    sim = make_sim(num_nodes=2, telemetry=False)
    assert not sim.telemetry.enabled
    assert get_telemetry(sim.env) is None
    assert sim.telemetry.event("x") is None
    assert sim.telemetry.span("k", "n") is None
    assert sim.telemetry.finish(None) is None

    write_kv(sim, "/in", 200)
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]]}, 2)
    hdfs_sink(r, "out", "/out")
    dag = DAG("quiet").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    client = sim.tez_client()
    handle = client.submit_dag(dag)
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded
    assert list(sim.timeline.events()) == []
    assert list(sim.timeline.spans()) == []


def test_chrome_trace_state_machine_swimlanes():
    """Every am.transition renders as an instant event on a per-machine
    ``sm:*`` lane of the AM process."""
    sim, client, handle = run_tpch_style()
    events = chrome_trace(sim.timeline)
    lanes = {m["args"]["name"]: m["tid"] for m in events
             if m["ph"] == "M" and m["pid"] == 0
             and m["name"] == "thread_name"}
    sm_lanes = {name: tid for name, tid in lanes.items()
                if name.startswith("sm:")}
    assert {"sm:dag", "sm:vertex", "sm:task", "sm:attempt"} <= \
        set(sm_lanes)
    instants = [e for e in events
                if e["ph"] == "i" and e.get("cat") == "am.sm"]
    assert instants
    assert {e["tid"] for e in instants} == set(sm_lanes.values())
    transitions = len(list(sim.timeline.events(kind="am.transition")))
    assert len(instants) == transitions
    for e in instants:
        assert "->" in e["name"]
        assert e["pid"] == 0
