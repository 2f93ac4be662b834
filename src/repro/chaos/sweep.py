"""Crash-anywhere recovery harness: the proof behind journal-backed
AM failover.

Sweep mode runs a reference two-stage DAG once with no faults to
establish the baseline — terminal status, committed output rows, and
the total number of control events the AM dispatched (``E``). It then
re-runs the workload from scratch once per crash point ``k``
(``1..E``, strided), arming the first AM attempt to die at the exact
boundary of its ``k``-th dispatched event, and asserts for every
point that

* the terminal DAG status is identical to the baseline,
* the committed rows in HDFS are byte-identical to the baseline, and
* no task whose success was journaled before the crash is re-executed
  by the recovered AM (the journal's write-ahead guarantee).

The ``session2`` shape extends the sweep to a session: one session AM
runs two DAGs back to back, every first-attempt event boundary of both
is a crash point, and the recovered attempt must finish the one in
flight from the journal and then run the other on the same terms.

Soak mode drives a session through several DAGs while a fault plan
repeatedly crashes the AM (both timer- and event-boundary-triggered)
and takes a worker node down mid-run, then checks every DAG still
committed the baseline rows.

Both modes emit recovery telemetry — events replayed, work recovered
vs. re-executed, a recovery wall-time histogram — and can write it as
a schema-checked JSONL artifact (``python -m repro.telemetry.check``).

Usage::

    python -m repro.chaos.sweep [--records N] [--reducers R]
        [--stride K] [--checkpoint-interval C] [--out trace.jsonl]
    python -m repro.chaos.sweep --soak [--out trace.jsonl]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..harness import SimCluster
from ..telemetry.metrics import Histogram
from ..telemetry.store import JsonlStreamWriter
from ..tez import (
    DAG,
    DataMovementType,
    DataSinkDescriptor,
    DataSourceDescriptor,
    Descriptor,
    Edge,
    EdgeProperty,
    TezConfig,
    Vertex,
)
from ..tez.library import (
    FnProcessor,
    HdfsInput,
    HdfsInputInitializer,
    HdfsOutput,
    HdfsOutputCommitter,
    OrderedGroupedKVInput,
    OrderedPartitionedKVOutput,
)
from .plan import FaultPlan

__all__ = ["run_sweep", "run_soak", "RunOutcome", "CrashPoint"]

DAG_NAME = "sweep"
IN_PATH = "/sweep/in"
OUT_PATH = "/sweep/out"
KEYS = 23


# --------------------------------------------------------------- workload
def _map_fn(ctx, data):
    return {"r": [(k % KEYS, v) for k, v in data["src"]]}


def _reduce_fn(ctx, data):
    return {"out": sorted((k, len(vs)) for k, vs in data["m"])}


def _tracked(fn, vertex_name: str, runs: list) -> Callable:
    """Wrap a processor fn to log (vertex, task, attempt, time) per
    execution — the evidence for the no-re-execution assertion."""

    def wrapper(ctx, data):
        runs.append((vertex_name, ctx.task_index, ctx.attempt,
                     ctx.env.now))
        return fn(ctx, data)

    return wrapper


def _build_dag(runs: list, reducers: int, out_path: str = OUT_PATH,
               name: str = DAG_NAME) -> DAG:
    m = Vertex("m", Descriptor(FnProcessor,
                               {"fn": _tracked(_map_fn, "m", runs)}),
               parallelism=-1)
    m.add_data_source("src", DataSourceDescriptor(
        Descriptor(HdfsInput),
        Descriptor(HdfsInputInitializer, {"paths": [IN_PATH]}),
    ))
    r = Vertex("r", Descriptor(FnProcessor,
                               {"fn": _tracked(_reduce_fn, "r", runs)}),
               parallelism=reducers)
    r.add_data_sink("out", DataSinkDescriptor(
        Descriptor(HdfsOutput, {"path": out_path}),
        Descriptor(HdfsOutputCommitter, {"path": out_path}),
    ))
    dag = DAG(name).add_vertex(m).add_vertex(r)
    dag.add_edge(Edge(m, r, EdgeProperty(
        DataMovementType.SCATTER_GATHER,
        output_descriptor=Descriptor(OrderedPartitionedKVOutput),
        input_descriptor=Descriptor(OrderedGroupedKVInput),
    )))
    return dag


def _diamond_map_fn(ctx, data):
    recs = [(k % KEYS, v) for k, v in data["src"]]
    return {"a": recs, "b": recs}


def _diamond_left_fn(ctx, data):
    return {"j": [(k, len(vs)) for k, vs in data["m"]]}


def _diamond_right_fn(ctx, data):
    return {"j": [(k, 2 * len(vs)) for k, vs in data["m"]]}


def _diamond_join_fn(ctx, data):
    merged: dict = {}
    for side in ("a", "b"):
        for k, vs in data[side]:
            merged[k] = merged.get(k, 0) + sum(vs)
    return {"out": sorted(merged.items())}


def _build_diamond_dag(runs: list, reducers: int,
                       out_path: str = OUT_PATH,
                       name: str = DAG_NAME) -> DAG:
    """Diamond slice ``m -> (a, b) -> j``: the middle and join
    vertices are inline-fast-path eligible (FnProcessor over shuffle
    IO) while the HDFS-rooted ``m`` takes the legacy generator path —
    a sweep over this shape crosses the fast-path boundary at every
    crash point."""

    def sg(src: Vertex, dst: Vertex) -> Edge:
        return Edge(src, dst, EdgeProperty(
            DataMovementType.SCATTER_GATHER,
            output_descriptor=Descriptor(OrderedPartitionedKVOutput),
            input_descriptor=Descriptor(OrderedGroupedKVInput),
        ))

    m = Vertex("m", Descriptor(FnProcessor,
                               {"fn": _tracked(_diamond_map_fn, "m",
                                               runs)}),
               parallelism=-1)
    m.add_data_source("src", DataSourceDescriptor(
        Descriptor(HdfsInput),
        Descriptor(HdfsInputInitializer, {"paths": [IN_PATH]}),
    ))
    a = Vertex("a", Descriptor(FnProcessor,
                               {"fn": _tracked(_diamond_left_fn, "a",
                                               runs)}),
               parallelism=2)
    b = Vertex("b", Descriptor(FnProcessor,
                               {"fn": _tracked(_diamond_right_fn, "b",
                                               runs)}),
               parallelism=2)
    j = Vertex("j", Descriptor(FnProcessor,
                               {"fn": _tracked(_diamond_join_fn, "j",
                                               runs)}),
               parallelism=reducers)
    j.add_data_sink("out", DataSinkDescriptor(
        Descriptor(HdfsOutput, {"path": out_path}),
        Descriptor(HdfsOutputCommitter, {"path": out_path}),
    ))
    dag = (DAG(name).add_vertex(m).add_vertex(a)
           .add_vertex(b).add_vertex(j))
    dag.add_edge(sg(m, a)).add_edge(sg(m, b))
    dag.add_edge(sg(a, j)).add_edge(sg(b, j))
    return dag


def _make_sim() -> SimCluster:
    return SimCluster(num_nodes=4, nodes_per_rack=2, cores_per_node=8,
                      memory_per_node_mb=16 * 1024, hdfs_block_size=4096,
                      telemetry=False)


# ------------------------------------------------------------ single run
@dataclass
class RunOutcome:
    """Everything one (possibly crashed) run yields for comparison."""

    status_name: str
    succeeded: bool
    rows: tuple
    dispatched: int                 # first AM attempt's event count
    wall: float                     # sim seconds to DAG completion
    runs: list = field(default_factory=list)
    crashed: bool = False
    crash_time: float = -1.0
    journaled_at_crash: frozenset = frozenset()
    am_attempts: int = 1
    events_replayed: int = 0
    tasks_recovered: int = 0
    entries_dropped: int = 0
    fenced_appends: int = 0
    checkpoints: int = 0

    def reexecutions(self) -> list:
        """Runs of journaled-at-crash tasks strictly after the crash —
        always empty when write-ahead recovery holds."""
        if not self.crashed:
            return []
        return [run for run in self.runs
                if (run[0], run[1]) in self.journaled_at_crash
                and run[3] > self.crash_time]

    def reexecuted_work(self) -> int:
        """Task executions the recovered AM had to redo (not journaled
        before the crash, so legitimately re-run)."""
        if not self.crashed:
            return 0
        return sum(1 for run in self.runs if run[3] > self.crash_time)


def _execute(records: int, reducers: int,
             crash_after: Optional[int] = None,
             checkpoint_interval: Optional[int] = None,
             shape: str = "mr") -> RunOutcome:
    sim = _make_sim()
    sim.hdfs.write(IN_PATH, [(i, i) for i in range(records)],
                   record_bytes=16)
    config = TezConfig()
    if checkpoint_interval is not None:
        config = TezConfig(journal_checkpoint_interval=checkpoint_interval)
    client = sim.tez_client("sweep", config=config, session=False,
                            am_max_attempts=3)

    ams: list = []
    crash: dict = {}
    inner_make_am = client._make_am

    def make_am(ctx):
        am = inner_make_am(ctx)
        ams.append(am)
        if crash_after is not None and ctx.attempt == 1:
            def boom():
                crash["time"] = sim.env.now
                crash["journaled"] = frozenset(
                    client.recovery.successes(DAG_NAME)
                )
                am.crash()

            am.dispatcher.halt_after(crash_after, boom)
        return am

    client._make_am = make_am

    runs: list = []
    builder = _build_diamond_dag if shape == "diamond" else _build_dag
    handle = client.submit_dag(builder(runs, reducers))
    sim.env.run(until=handle.completion)
    status = handle.status

    rows: tuple = ()
    if sim.hdfs.exists(OUT_PATH):
        rows = tuple(sorted(sim.hdfs.read_file(OUT_PATH)))

    def counter(name: str) -> int:
        return int(sum(am.registry.counter(name).value for am in ams))

    return RunOutcome(
        status_name=status.state.name,
        succeeded=status.succeeded,
        rows=rows,
        dispatched=ams[0].dispatcher.dispatched if ams else 0,
        wall=sim.env.now,
        runs=runs,
        crashed="time" in crash,
        crash_time=crash.get("time", -1.0),
        journaled_at_crash=crash.get("journaled", frozenset()),
        am_attempts=len(ams),
        events_replayed=counter("recovery.events_replayed"),
        tasks_recovered=counter("recovery.tasks_recovered"),
        entries_dropped=counter("recovery.entries_dropped"),
        fenced_appends=client.recovery.fenced_appends,
        checkpoints=client.recovery.checkpoints,
    )


def _execute_sharded(records: int, reducers: int, shards: int,
                     shard: int, crash_after: Optional[int] = None,
                     checkpoint_interval: Optional[int] = None
                     ) -> RunOutcome:
    """One run of a sharded session: ``shards`` session AMs, one DAG
    per shard (round-robin assignment), with the crash armed on the
    *selected* shard's first AM attempt only. The outcome folds every
    DAG's terminal status/rows (so any cross-shard fallout shows up in
    the baseline comparison) while the no-re-execution evidence —
    runs, journaled-at-crash snapshot — is scoped to the crashed
    shard alone."""
    sim = _make_sim()
    sim.hdfs.write(IN_PATH, [(i, i) for i in range(records)],
                   record_bytes=16)
    config = TezConfig()
    if checkpoint_interval is not None:
        config = TezConfig(journal_checkpoint_interval=checkpoint_interval)
    client = sim.tez_client("sweep", config=config, session=True,
                            am_max_attempts=3, shards=shards)
    dag_names = [f"{DAG_NAME}{i}" for i in range(shards)]

    ams: list = []
    crash: dict = {}
    inner_make_am = client._make_am

    def make_am(ctx):
        am = inner_make_am(ctx)
        ams.append(am)
        if (
            crash_after is not None
            and ctx.attempt == 1
            and am.shard_id == shard
        ):
            journal = client.coordinator.shard(shard).journal

            def boom():
                crash["time"] = sim.env.now
                crash["journaled"] = frozenset(
                    journal.successes(dag_names[shard])
                )
                am.crash()

            am.dispatcher.halt_after(crash_after, boom)
        return am

    client._make_am = make_am

    runs_by_shard: list[list] = [[] for _ in range(shards)]
    handles = []
    for i in range(shards):
        dag = _build_dag(runs_by_shard[i], reducers,
                         out_path=f"{OUT_PATH}{i}", name=dag_names[i])
        handles.append(client.submit_dag(dag))
    for handle in handles:
        sim.env.run(until=handle.completion)
    wall = sim.env.now
    client.stop()
    sim.env.run(until=sim.env.now + 60)

    all_rows = []
    for i in range(shards):
        rows: tuple = ()
        if sim.hdfs.exists(f"{OUT_PATH}{i}"):
            rows = tuple(sorted(sim.hdfs.read_file(f"{OUT_PATH}{i}")))
        all_rows.append(rows)

    def counter(name: str) -> int:
        return int(sum(am.registry.counter(name).value for am in ams))

    shard_ams = [am for am in ams if am.shard_id == shard]
    journals = [r.journal for r in client.coordinator.records()]
    return RunOutcome(
        status_name="/".join(h.status.state.name for h in handles),
        succeeded=all(h.status.succeeded for h in handles),
        rows=tuple(all_rows),
        dispatched=(
            shard_ams[0].dispatcher.dispatched if shard_ams else 0
        ),
        wall=wall,
        runs=runs_by_shard[shard],
        crashed="time" in crash,
        crash_time=crash.get("time", -1.0),
        journaled_at_crash=crash.get("journaled", frozenset()),
        am_attempts=len(ams),
        events_replayed=counter("recovery.events_replayed"),
        tasks_recovered=counter("recovery.tasks_recovered"),
        entries_dropped=counter("recovery.entries_dropped"),
        fenced_appends=sum(j.fenced_appends for j in journals),
        checkpoints=sum(j.checkpoints for j in journals),
    )


def _execute_session2(records: int, reducers: int,
                      crash_after: Optional[int] = None,
                      checkpoint_interval: Optional[int] = None
                      ) -> RunOutcome:
    """One run of a two-DAG session: a single session AM executes two
    DAGs back to back (distinct DAG names, same vertex names). A crash
    at any first-attempt event boundary - in either DAG, or between
    them - must leave the terminal state of both byte-identical, with
    no journaled task re-run.

    The no-re-execution evidence spans both DAGs: vertex names collide
    between them, so runs and the journaled-at-crash snapshot are
    namespaced per DAG before comparison."""
    sim = _make_sim()
    sim.hdfs.write(IN_PATH, [(i, i) for i in range(records)],
                   record_bytes=16)
    config = TezConfig()
    if checkpoint_interval is not None:
        config = TezConfig(journal_checkpoint_interval=checkpoint_interval)
    client = sim.tez_client("sweep", config=config, session=True,
                            am_max_attempts=3)
    dag_names = (f"{DAG_NAME}2a", f"{DAG_NAME}2b")
    tags = ("a:", "b:")

    ams: list = []
    crash: dict = {}
    inner_make_am = client._make_am

    def make_am(ctx):
        am = inner_make_am(ctx)
        ams.append(am)
        if crash_after is not None and ctx.attempt == 1:
            def boom():
                crash["time"] = sim.env.now
                crash["journaled"] = frozenset(
                    (tag + vertex, index)
                    for tag, name in zip(tags, dag_names)
                    for vertex, index in client.recovery.successes(name)
                )
                am.crash()

            am.dispatcher.halt_after(crash_after, boom)
        return am

    client._make_am = make_am

    runs_by_dag: list[list] = [[], []]
    handles = []
    for i, name in enumerate(dag_names):
        dag = _build_dag(runs_by_dag[i], reducers,
                         out_path=f"{OUT_PATH}{i}", name=name)
        handle = client.submit_dag(dag)
        # One DAG at a time: the crash boundary k counts through the
        # first DAG's events, then the second's.
        sim.env.run(until=handle.completion)
        handles.append(handle)
    wall = sim.env.now
    client.stop()
    sim.env.run(until=sim.env.now + 60)

    all_rows = []
    for i in range(len(dag_names)):
        rows: tuple = ()
        if sim.hdfs.exists(f"{OUT_PATH}{i}"):
            rows = tuple(sorted(sim.hdfs.read_file(f"{OUT_PATH}{i}")))
        all_rows.append(rows)

    def counter(name: str) -> int:
        return int(sum(am.registry.counter(name).value for am in ams))

    runs = [(tag + vertex, index, attempt, t)
            for tag, dag_runs in zip(tags, runs_by_dag)
            for vertex, index, attempt, t in dag_runs]
    return RunOutcome(
        status_name="/".join(h.status.state.name for h in handles),
        succeeded=all(h.status.succeeded for h in handles),
        rows=tuple(all_rows),
        dispatched=ams[0].dispatcher.dispatched if ams else 0,
        wall=wall,
        runs=runs,
        crashed="time" in crash,
        crash_time=crash.get("time", -1.0),
        journaled_at_crash=crash.get("journaled", frozenset()),
        am_attempts=len(ams),
        events_replayed=counter("recovery.events_replayed"),
        tasks_recovered=counter("recovery.tasks_recovered"),
        entries_dropped=counter("recovery.entries_dropped"),
        fenced_appends=client.recovery.fenced_appends,
        checkpoints=client.recovery.checkpoints,
    )


# ------------------------------------------------------------ sweep mode
@dataclass
class CrashPoint:
    k: int
    outcome: RunOutcome
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_point(base: RunOutcome, res: RunOutcome, k: int) -> CrashPoint:
    violations = []
    if res.status_name != base.status_name:
        violations.append(
            f"k={k}: terminal status {res.status_name} != baseline "
            f"{base.status_name}"
        )
    if res.rows != base.rows:
        violations.append(
            f"k={k}: committed rows diverge from baseline "
            f"({len(res.rows)} vs {len(base.rows)} rows)"
        )
    for vertex, index, attempt, t in res.reexecutions():
        violations.append(
            f"k={k}: journaled task {vertex}[{index}] re-executed as "
            f"attempt {attempt} at t={t:.2f} (crash was t="
            f"{res.crash_time:.2f})"
        )
    return CrashPoint(k=k, outcome=res, violations=violations)


def run_sweep(records: int = 120, reducers: int = 2, stride: int = 1,
              checkpoint_interval: Optional[int] = None,
              out: Optional[str] = None, verbose: bool = True,
              shards: int = 1, shard: int = 0,
              shape: str = "mr") -> dict:
    """Crash after every ``stride``-th dispatched event; compare every
    recovered run against the no-crash baseline. Returns the summary
    dict (``summary["ok"]`` is the verdict).

    With ``shards > 1`` the workload is a sharded session (one DAG per
    shard) and the crash targets shard ``shard``'s AM at every one of
    *its* event boundaries — every other shard must sail through
    untouched, and the crashed shard must recover without re-executing
    journaled work."""

    def say(msg: str) -> None:
        if verbose:
            print(msg)

    if not 0 <= shard < shards:
        raise ValueError(f"shard {shard} out of range for {shards} shards")
    if shape not in ("mr", "diamond", "session2"):
        raise ValueError(f"unknown sweep shape {shape!r}")
    if shape != "mr" and shards > 1:
        raise ValueError("sharded sweeps support only the 'mr' shape")

    def execute(crash_after: Optional[int] = None) -> RunOutcome:
        if shape == "session2":
            return _execute_session2(
                records, reducers, crash_after=crash_after,
                checkpoint_interval=checkpoint_interval)
        if shards == 1:
            return _execute(records, reducers, crash_after=crash_after,
                            checkpoint_interval=checkpoint_interval,
                            shape=shape)
        return _execute_sharded(records, reducers, shards, shard,
                                crash_after=crash_after,
                                checkpoint_interval=checkpoint_interval)

    base = execute()
    if not base.succeeded:
        raise RuntimeError(
            f"baseline run did not succeed: {base.status_name}"
        )
    total = base.dispatched
    where = f" (shard {shard}/{shards})" if shards > 1 else ""
    say(f"baseline{where}: {base.status_name}, "
        f"{total} control events, wall {base.wall:.2f}s")

    # One record per crash point streams straight to the artifact as
    # it is produced; only scalar accumulators stay resident, so a
    # full-stride sweep (thousands of crash points, each with a
    # per-task run log) holds one outcome in memory at a time.
    stream = JsonlStreamWriter(out) if out else None
    n_points = n_crashed = 0
    failures: list[str] = []
    sums = {"events_replayed": 0, "tasks_recovered": 0,
            "work_reexecuted": 0, "entries_dropped": 0,
            "fenced_appends": 0}
    wall_delta = Histogram("recovery.wall_delta")
    for k in range(1, total + 1, max(1, stride)):
        res = execute(crash_after=k)
        point = _check_point(base, res, k)
        if stream is not None:
            stream.write(_point_record(n_points, point))
        n_points += 1
        if res.crashed:
            n_crashed += 1
            wall_delta.observe(res.wall - base.wall)
        failures.extend(point.violations)
        sums["events_replayed"] += res.events_replayed
        sums["tasks_recovered"] += res.tasks_recovered
        sums["work_reexecuted"] += res.reexecuted_work()
        sums["entries_dropped"] += res.entries_dropped
        sums["fenced_appends"] += res.fenced_appends
        if point.violations:
            for violation in point.violations:
                say(f"FAIL {violation}")
        elif verbose and (k % 25 == 0 or k == 1):
            say(f"  k={k}: {res.status_name}, replayed "
                f"{res.events_replayed}, recovered {res.tasks_recovered}, "
                f"redone {res.reexecuted_work()}, wall +"
                f"{res.wall - base.wall:.2f}s")

    summary = {
        "ok": not failures,
        "baseline_events": total,
        "baseline_wall": base.wall,
        "shards": shards,
        "shard": shard,
        "points": n_points,
        "crashed_points": n_crashed,
        "violations": len(failures),
        **sums,
        "wall_delta_mean": wall_delta.mean,
        "wall_delta_p50": wall_delta.percentile(50),
        "wall_delta_p95": wall_delta.percentile(95),
        "wall_delta_max": wall_delta.percentile(100),
    }
    if stream is not None:
        stream.write(_summary_record(n_points, "recovery.sweep_summary",
                                     summary))
        stream.close()
        say(f"wrote {out}")
    say(f"sweep: {n_crashed}/{n_points} crash points recovered, "
        f"{len(failures)} violations")
    return summary


# ------------------------------------------------------------- soak mode
def run_soak(records: int = 200, reducers: int = 2, dags: int = 3,
             out: Optional[str] = None, verbose: bool = True) -> dict:
    """Repeated AM crashes (timed and event-boundary) plus a worker
    node crash, across a multi-DAG session; every DAG must still
    commit the baseline rows."""

    def say(msg: str) -> None:
        if verbose:
            print(msg)

    def drive(chaos: bool) -> tuple[list, list, object]:
        sim = _make_sim()
        sim.hdfs.write(IN_PATH, [(i, i) for i in range(records)],
                       record_bytes=16)
        client = sim.tez_client("soak", session=True, am_max_attempts=8)
        ams: list = []
        inner = client._make_am

        def make_am(ctx):
            am = inner(ctx)
            ams.append(am)
            return am

        client._make_am = make_am
        last_fault_at = 22.0
        if chaos:
            # Times sit past AM startup (~4.3s in this sim) so every
            # am_crash finds a live dispatcher-carrying AM — injecting
            # one into a void is a hard error by design.
            plan = (FaultPlan(seed=11)
                    .crash_am(at=5.0, after_events=40)
                    .crash_node(at=9.0, restart_after=15.0)
                    .crash_am(at=16.0)
                    .crash_am(at=last_fault_at, after_events=20))
            sim.chaos(plan, client=client)
        results = []
        runs: list = []
        for i in range(dags):
            dag = _build_dag(runs, reducers, out_path=f"/soak/out{i}",
                             name=f"soak{i}")
            handle = client.submit_dag(dag)
            sim.env.run(until=handle.completion)
            rows = ()
            if sim.hdfs.exists(f"/soak/out{i}"):
                rows = tuple(sorted(sim.hdfs.read_file(f"/soak/out{i}")))
            results.append((handle.status.state.name, rows))
        if chaos and sim.env.now < last_fault_at + 1:
            # Let the plan drain against the idle (still-registered)
            # session AM before tearing the session down.
            sim.env.run(until=last_fault_at + 1)
        client.stop()
        sim.env.run(until=sim.env.now + 60)
        return results, ams, client

    baseline, _, _ = drive(chaos=False)
    chaotic, ams, client = drive(chaos=True)

    failures = []
    for i, ((b_status, b_rows), (c_status, c_rows)) in enumerate(
            zip(baseline, chaotic)):
        if c_status != b_status:
            failures.append(f"dag {i}: status {c_status} != {b_status}")
        if c_rows != b_rows:
            failures.append(f"dag {i}: rows diverge from baseline")

    def counter(name: str) -> int:
        return int(sum(am.registry.counter(name).value for am in ams))

    summary = {
        "ok": not failures,
        "dags": dags,
        "am_attempts": len(ams),
        "violations": len(failures),
        "events_replayed": counter("recovery.events_replayed"),
        "tasks_recovered": counter("recovery.tasks_recovered"),
        "entries_dropped": counter("recovery.entries_dropped"),
        "fenced_appends": client.recovery.fenced_appends,
    }
    for failure in failures:
        say(f"FAIL {failure}")
    say(f"soak: {len(ams)} AM attempts over {dags} DAGs, "
        f"{summary['events_replayed']} events replayed, "
        f"{summary['tasks_recovered']} tasks recovered, "
        f"{len(failures)} violations")
    if out:
        with JsonlStreamWriter(out) as stream:
            stream.write(_summary_record(0, "recovery.soak_summary",
                                         summary))
        say(f"wrote {out}")
    return summary


# -------------------------------------------------------------- artifact
# The artifact is JSONL in the telemetry event schema, one record per
# crash point plus a trailing summary (``repro.telemetry.check``-clean),
# streamed through the store's JsonlStreamWriter as points complete —
# byte-identical to the historical build-a-list-then-dump form.

def _point_record(seq: int, point: CrashPoint) -> dict:
    o = point.outcome
    return {
        "type": "event", "seq": seq, "ts": float(point.k),
        "kind": "recovery.sweep_point",
        "attrs": {
            "k": point.k,
            "crashed": o.crashed,
            "status": o.status_name,
            "am_attempts": o.am_attempts,
            "events_replayed": o.events_replayed,
            "tasks_recovered": o.tasks_recovered,
            "work_reexecuted": o.reexecuted_work(),
            "entries_dropped": o.entries_dropped,
            "fenced_appends": o.fenced_appends,
            "wall": o.wall,
            "violations": list(point.violations),
        },
    }


def _summary_record(seq: int, kind: str, summary: dict) -> dict:
    return {"type": "event", "seq": seq, "ts": 0.0, "kind": kind,
            "attrs": summary}


# ------------------------------------------------------------------- CLI
def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.sweep",
        description="Crash-anywhere AM recovery sweep / chaos soak.",
    )
    parser.add_argument("--records", type=int, default=120,
                        help="input records in the reference DAG")
    parser.add_argument("--reducers", type=int, default=2)
    parser.add_argument("--stride", type=int, default=1,
                        help="test every stride-th crash point")
    parser.add_argument("--checkpoint-interval", type=int, default=None,
                        help="journal checkpoint interval override")
    parser.add_argument("--shards", type=int, default=None,
                        help="run a sharded session with this many "
                             "control-plane shards (one DAG per shard)")
    parser.add_argument("--shard", type=int, default=None,
                        help="crash this shard's AM at every event "
                             "boundary (implies --shards 2 when "
                             "--shards is not given)")
    parser.add_argument("--shape",
                        choices=("mr", "diamond", "session2"),
                        default="mr",
                        help="reference workload: the two-stage "
                             "map-reduce, the fast-path diamond "
                             "slice, or two DAGs back to back "
                             "through one session AM")
    parser.add_argument("--out", default=None,
                        help="write recovery telemetry JSONL here")
    parser.add_argument("--soak", action="store_true",
                        help="run the chaos soak instead of the sweep")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    shards = args.shards
    shard = args.shard
    if shards is None:
        shards = 2 if shard is not None else 1
    if shard is None:
        shard = 0

    if args.soak:
        summary = run_soak(records=args.records, reducers=args.reducers,
                           out=args.out, verbose=not args.quiet)
    else:
        summary = run_sweep(records=args.records, reducers=args.reducers,
                            stride=args.stride,
                            checkpoint_interval=args.checkpoint_interval,
                            out=args.out, verbose=not args.quiet,
                            shards=shards, shard=shard,
                            shape=args.shape)
    return 0 if summary["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
