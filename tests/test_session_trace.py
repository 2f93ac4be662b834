"""Figure 7: containers reused by tasks within and across DAGs."""

from repro.tez import DAG

from helpers import (
    SG,
    edge,
    fn_vertex,
    hdfs_sink,
    hdfs_source,
    make_sim,
    run_dag,
)


def runs(sim) -> list:
    """Every task run of the simulation: its ``task.run`` events (the
    end of a run is the event's timestamp)."""
    return sim.timeline.events(kind="task.run")


def build(name, out):
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"], max_splits=3)
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, len(vs)) for k, vs in d["m"]
    ]}, 2)
    hdfs_sink(r, "out", out)
    dag = DAG(name).add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    return dag


def test_trace_shows_reuse_within_and_across_dags():
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 7, i) for i in range(300)],
                   record_bytes=24)
    client = sim.tez_client(session=True)
    s1, _ = run_dag(sim, build("dag1", "/o1"), client=client)
    s2, _ = run_dag(sim, build("dag2", "/o2"), client=client)
    assert s1.succeeded and s2.succeeded
    trace = runs(sim)
    assert trace, "trace must record every task run"
    by_container: dict = {}
    for e in trace:
        assert e.ts >= e.attrs["start"]
        by_container.setdefault(e.attrs["container"], []).append(
            e.attrs["attempt"])
    # At least one container ran tasks of BOTH DAGs (cross-DAG reuse:
    # the session behaviour of paper Figure 7).
    def dag_of(attempt_id):
        return attempt_id.split("/")[0]

    crossed = [
        c for c, attempts in by_container.items()
        if len({dag_of(a) for a in attempts}) > 1
    ]
    assert crossed, f"no cross-DAG container reuse in {by_container}"
    # Within a container, runs never overlap in time.
    spans: dict = {}
    for e in trace:
        spans.setdefault(e.attrs["container"], []).append(
            (e.attrs["start"], e.ts))
    for container, intervals in spans.items():
        intervals.sort()
        for (s1_, e1_), (s2_, e2_) in zip(intervals, intervals[1:]):
            assert s2_ >= e1_, f"overlapping runs in {container}"
    client.stop()


def test_trace_attempt_ids_are_unique_per_run():
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 7, i) for i in range(100)],
                   record_bytes=24)
    client = sim.tez_client(session=True)
    # Two same-named DAGs in one session: ids must not collide.
    s1, _ = run_dag(sim, build("same", "/oa"), client=client)
    s2, _ = run_dag(sim, build("same", "/ob"), client=client)
    assert s1.succeeded and s2.succeeded
    attempt_ids = [e.attrs["attempt"] for e in runs(sim)]
    assert len(attempt_ids) == len(set(attempt_ids))
    client.stop()
