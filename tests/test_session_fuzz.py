"""Generated session scripts: DAGs, node crashes and node restarts
through one pre-warmed session AM (first slice of ROADMAP aim 3(b)).

Whatever the script does to the cluster between DAGs, every DAG
terminates; one that SUCCEEDED committed exactly the rows the closed
form below gives, exactly once; one that did not left no output; and
the whole run - which task ran where, and when - repeats.
"""

import hashlib

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.tez import DAG, TezConfig
from repro.tez.am.structures import DAGState

from helpers import SG, edge, fn_vertex, hdfs_sink, hdfs_source, make_sim

IN_PATH = "/fuzz/in"
RECORDS = 1024      # x 16B = 4 HDFS blocks -> 4 map tasks


def _write_input(sim):
    sim.hdfs.write(IN_PATH, [(i, i % 97) for i in range(RECORDS)],
                   record_bytes=16)


def _map_variant(variant, log):
    def fn(ctx, data):
        log.append(("m", ctx.task_index, ctx.attempt, ctx.node_id,
                    round(ctx.env.now, 9)))
        return {"r": [(k % 13, v * (variant + 1)) for k, v in data["src"]]}
    return fn


def _reduce_variant(variant, log):
    def fn(ctx, data):
        log.append(("r", ctx.task_index, ctx.attempt, ctx.node_id,
                    round(ctx.env.now, 9)))
        return {"out": sorted(
            (k, sum(vs) + variant) for k, vs in data["m"])}
    return fn


def _expected_rows(variant):
    """What ``_map_variant`` then ``_reduce_variant`` make of the input,
    in closed form."""
    sums = [0] * 13
    for i in range(RECORDS):
        sums[i % 13] += (i % 97) * (variant + 1)
    return tuple((k, total + variant) for k, total in enumerate(sums))


def _iter_dag(name, variant, out_path, log):
    """One loop iteration: same structure every time, parameter
    payloads (processor closures, sink path) vary with ``variant``."""
    m = fn_vertex("m", _map_variant(variant, log), -1)
    hdfs_source(m, "src", [IN_PATH])
    r = fn_vertex("r", _reduce_variant(variant, log), 2)
    hdfs_sink(r, "out", out_path)
    return DAG(name).add_vertex(m).add_vertex(r).add_edge(edge(m, r, SG))


def _prewarmed_session(sim):
    # Long idle timeouts keep the prewarmed container pool stable, so
    # every DAG of a script meets the same 8 warm containers.
    config = TezConfig(container_idle_timeout=1e9,
                       session_idle_timeout=1e9)
    client = sim.tez_client("fuzz", config=config, session=True)
    client.start()
    client.prewarm(8)
    sim.env.run(until=sim.env.now + 30.0)
    return client


_STEP = st.one_of(
    st.tuples(st.just("dag"), st.integers(0, 5)),
    st.just(("crash",)),
    st.just(("restart",)),
)


def _apply_script(script):
    """Run ``script``; returns (allocation-log digest, per-DAG
    (state, variant, finish time)) after checking each DAG's output."""
    sim = make_sim()
    _write_input(sim)
    client = _prewarmed_session(sim)
    log: list = []
    outcomes = []
    crashed: list = []
    for step in script:
        if step[0] == "crash":
            alive = [node for node in sorted(sim.cluster.nodes)
                     if node != client.last_am.ctx.am_container.node_id
                     and node not in crashed]
            if len(alive) > 1:          # keep the cluster schedulable
                sim.cluster.crash_node(alive[0])
                crashed.append(alive[0])
        elif step[0] == "restart":
            if crashed:
                sim.cluster.restart_node(crashed.pop(0))
        else:
            _, variant = step
            n = len(outcomes)
            out_path = f"/fuzz/out{n}"
            handle = client.submit_dag(
                _iter_dag(f"it{n}", variant, out_path, log))
            sim.env.run(until=handle.completion)
            status = handle.status
            assert status is not None and status.state in (
                DAGState.SUCCEEDED, DAGState.FAILED, DAGState.KILLED), \
                f"it{n} did not terminate"
            if status.succeeded:
                assert tuple(sorted(sim.hdfs.read_file(out_path))) \
                    == _expected_rows(variant)
                assert sim.hdfs.version(out_path) == 1, \
                    f"{out_path} written {sim.hdfs.version(out_path)} times"
            else:
                assert not sim.hdfs.exists(out_path), \
                    f"{status.state.name} it{n} left committed output"
            assert not sim.hdfs.list_files(f"{out_path}/_staging/")
            outcomes.append((status.state.name, variant,
                             round(sim.env.now, 9)))
    client.stop()
    return hashlib.sha256(repr(log).encode()).hexdigest(), outcomes


def _drive_session(iterations=3):
    """``iterations`` structurally-identical DAGs through one session,
    nothing else happening: all of them succeed."""
    _digest, outcomes = _apply_script(
        [("dag", i) for i in range(iterations)])
    assert all(state == "SUCCEEDED" for state, _v, _t in outcomes)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(_STEP, min_size=0, max_size=3))
def test_generated_session_scripts_terminate_commit_once_and_repeat(script):
    # Two leading DAGs: every example has a warm second DAG before the
    # generated tail perturbs the cluster.
    script = [("dag", 0), ("dag", 1)] + script
    digest, outcomes = _apply_script(script)
    if ("crash",) not in script:
        assert all(state == "SUCCEEDED" for state, _v, _t in outcomes)
    assert _apply_script(script) == (digest, outcomes)
