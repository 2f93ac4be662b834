"""Crash-anywhere recovery harness: the proof behind journal-backed
AM failover.

Everything here is one run, :func:`_execute`, of one *shape*: which
vertices and edges a DAG has, how many such DAGs run back to back
(named and committed where), through a session AM or not, and how many
AM attempts YARN allows. Three shapes are swept:

* ``mr`` - a two-stage map-reduce DAG, one AM;
* ``diamond`` - ``m -> (a, b) -> j``, whose middle and join vertices
  take the inline fast path while the HDFS-rooted ``m`` does not, so
  every crash point crosses that boundary;
* ``session2`` - two ``mr`` DAGs back to back through one session AM.

Sweep mode runs the shape once with no faults to establish the
baseline - terminal status, committed output rows, and the number of
control events the first AM attempt dispatched (``E``). It then re-runs
it from scratch once per crash point ``k`` (``1..E``, strided), arming
the first AM attempt to die at the exact boundary of its ``k``-th
dispatched event, and asserts for every point that

* the terminal status of every DAG is identical to the baseline,
* the committed rows in HDFS are byte-identical to the baseline, and
* no task whose success was journaled before the crash is re-executed
  by the recovered AM (the journal's write-ahead guarantee).

A :class:`~repro.chaos.witness.CrashWitness` holds the evidence for
the last check. A point whose run raises is a violation of that point.

Soak mode is the same run of a three-DAG session under a
:class:`FaultPlan` that repeatedly crashes the AM (timer- and
event-boundary-triggered) and takes a worker node down, checked
against the same run without the plan.

Both modes emit recovery telemetry - events replayed, work recovered
vs. re-executed, a recovery wall-time histogram - and can write it as
a schema-checked JSONL artifact (``python -m repro.telemetry.check``).

Usage::

    python -m repro.chaos.sweep [--shape mr|diamond|session2]
        [--records N] [--stride K] [--checkpoint-interval C]
        [--out trace.jsonl]
    python -m repro.chaos.sweep --soak [--records N] [--out trace.jsonl]
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import traceback
from dataclasses import dataclass
from typing import Optional

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
from .witness import CrashWitness

__all__ = ["run_sweep", "run_soak", "RunOutcome", "CrashPoint", "SHAPES"]

IN_PATH = "/sweep/in"
KEYS = 23


# --------------------------------------------------------------- workload
def _map_fn(ctx, data):
    return {"r": [(k % KEYS, v) for k, v in data["src"]]}


def _reduce_fn(ctx, data):
    return {"out": sorted((k, len(vs)) for k, vs in data["m"])}


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


_MR = (("m", _map_fn, -1), ("r", _reduce_fn, 2))
_MR_EDGES = (("m", "r"),)
_DIAMOND = (("m", _diamond_map_fn, -1), ("a", _diamond_left_fn, 2),
            ("b", _diamond_right_fn, 2), ("j", _diamond_join_fn, 2))
_DIAMOND_EDGES = (("m", "a"), ("m", "b"), ("a", "j"), ("b", "j"))


@dataclass(frozen=True)
class Shape:
    """One run of the sweep, as data."""

    vertices: tuple        # (name, fn, parallelism), topological order
    edges: tuple           # scatter-gather (source, target) pairs
    dags: tuple            # (DAG name, output path), run back to back
    session: bool = False
    am_max_attempts: int = 3

    def build(self, name: str, out_path: str, witness: CrashWitness) -> DAG:
        """The DAG called ``name``: its first vertex reads ``IN_PATH``,
        its last commits to ``out_path``, every fn is tracked."""
        made = {
            vertex: Vertex(vertex, Descriptor(
                FnProcessor, {"fn": witness.tracked(fn, name, vertex)}),
                parallelism=parallelism)
            for vertex, fn, parallelism in self.vertices
        }
        vertices = list(made.values())
        vertices[0].add_data_source("src", DataSourceDescriptor(
            Descriptor(HdfsInput),
            Descriptor(HdfsInputInitializer, {"paths": [IN_PATH]}),
        ))
        vertices[-1].add_data_sink("out", DataSinkDescriptor(
            Descriptor(HdfsOutput, {"path": out_path}),
            Descriptor(HdfsOutputCommitter, {"path": out_path}),
        ))
        dag = DAG(name)
        for vertex in vertices:
            dag.add_vertex(vertex)
        for source, target in self.edges:
            dag.add_edge(Edge(made[source], made[target], EdgeProperty(
                DataMovementType.SCATTER_GATHER,
                output_descriptor=Descriptor(OrderedPartitionedKVOutput),
                input_descriptor=Descriptor(OrderedGroupedKVInput),
            )))
        return dag


SHAPES = {
    "mr": Shape(_MR, _MR_EDGES, (("sweep", "/sweep/out"),)),
    "diamond": Shape(_DIAMOND, _DIAMOND_EDGES, (("sweep", "/sweep/out"),)),
    "session2": Shape(_MR, _MR_EDGES, (("sweep2a", "/sweep/out0"),
                                       ("sweep2b", "/sweep/out1")),
                      session=True),
}


# ------------------------------------------------------------ single run
@dataclass
class RunOutcome:
    """Everything one (possibly crashed) run yields for comparison."""

    status_name: str                # every DAG's terminal state, "/"-joined
    succeeded: bool
    rows: tuple                     # every DAG's committed rows, sorted
    dispatched: int                 # first AM attempt's event count
    wall: float                     # sim seconds to the last DAG's end
    crashed: bool
    journaled_at_crash: frozenset   # (dag, vertex, index)
    reexecutions: list              # journaled tasks run after the crash
    work_reexecuted: int            # executions after the crash
    am_attempts: int
    events_replayed: int
    tasks_recovered: int
    entries_dropped: int
    fenced_appends: int
    checkpoints: int


def _execute(shape: Shape, records: int,
             crash_after: Optional[int] = None,
             checkpoint_interval: Optional[int] = None,
             plan: Optional[FaultPlan] = None) -> RunOutcome:
    """Run ``shape`` over ``records`` input rows on a fresh cluster.
    ``crash_after=k`` crashes the first AM attempt after its ``k``-th
    dispatched event; ``plan`` runs a fault plan against the client."""
    sim = SimCluster(num_nodes=4, nodes_per_rack=2, cores_per_node=8,
                     memory_per_node_mb=16 * 1024, hdfs_block_size=4096,
                     telemetry=False)
    sim.hdfs.write(IN_PATH, [(i, i) for i in range(records)],
                   record_bytes=16)
    config = TezConfig()
    if checkpoint_interval is not None:
        config = TezConfig(journal_checkpoint_interval=checkpoint_interval)
    client = sim.tez_client("sweep", config=config,
                            session=shape.session,
                            am_max_attempts=shape.am_max_attempts)
    witness = CrashWitness()
    if crash_after is None:
        witness.watch(client)
    else:
        witness.watch(
            client, target=lambda am, ctx: ctx.attempt == 1,
            arm=lambda am: am.dispatcher.halt_after(crash_after, am.crash))
    if plan is not None:
        sim.chaos(plan, client=client)

    handles = []
    for name, out_path in shape.dags:
        handle = client.submit_dag(shape.build(name, out_path, witness))
        # One DAG at a time: the crash boundary k counts through the
        # first DAG's events, then the next's.
        sim.env.run(until=handle.completion)
        handles.append(handle)
    wall = sim.env.now
    if plan is not None:
        # Let the plan drain against the idle (still-registered)
        # session AM before tearing the session down.
        last_fault = max(fault.at for fault in plan.faults)
        if sim.env.now < last_fault + 1:
            sim.env.run(until=last_fault + 1)
    if shape.session:
        client.stop()
        sim.env.run(until=sim.env.now + 60)

    journals = [record.journal for record in client.coordinator.records()]
    return RunOutcome(
        status_name="/".join(h.status.state.name for h in handles),
        succeeded=all(h.status.succeeded for h in handles),
        rows=tuple(
            tuple(sorted(sim.hdfs.read_file(out_path)))
            if sim.hdfs.exists(out_path) else ()
            for _, out_path in shape.dags),
        dispatched=(witness.ams[0].dispatcher.dispatched
                    if witness.ams else 0),
        wall=wall,
        crashed=witness.crashed,
        journaled_at_crash=witness.journaled,
        reexecutions=witness.reexecutions(),
        work_reexecuted=witness.reruns(),
        am_attempts=len(witness.ams),
        events_replayed=witness.counter("recovery.events_replayed"),
        tasks_recovered=witness.counter("recovery.tasks_recovered"),
        entries_dropped=witness.counter("recovery.entries_dropped"),
        fenced_appends=sum(j.fenced_appends for j in journals),
        checkpoints=sum(j.checkpoints for j in journals),
    )


def _violations(base: RunOutcome, res: RunOutcome, where: str) -> list:
    found = []
    if res.status_name != base.status_name:
        found.append(f"{where}: terminal status {res.status_name} != "
                     f"baseline {base.status_name}")
    if res.rows != base.rows:
        found.append(f"{where}: committed rows diverge from baseline "
                     f"({sum(map(len, res.rows))} vs "
                     f"{sum(map(len, base.rows))} rows)")
    found += [f"{where}: {line}" for line in res.reexecutions]
    return found


# ------------------------------------------------------------ sweep mode
@dataclass
class CrashPoint:
    k: int
    outcome: Optional[RunOutcome]      # None: the run raised
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _crash_point(shape: Shape, records: int, base: RunOutcome, k: int,
                 checkpoint_interval: Optional[int]) -> CrashPoint:
    try:
        res = _execute(shape, records, crash_after=k,
                       checkpoint_interval=checkpoint_interval)
    except Exception as exc:     # e.g. a recovered run that never ends
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return CrashPoint(k, None, [
            f"k={k}: run raised {exc!r} in {frame.name} "
            f"({os.path.basename(frame.filename)}:{frame.lineno})"])
    return CrashPoint(k, res, _violations(base, res, f"k={k}"))


def run_sweep(records: int = 120, stride: int = 1,
              checkpoint_interval: Optional[int] = None,
              out: Optional[str] = None, verbose: bool = True,
              shape: str = "mr") -> dict:
    """Crash after every ``stride``-th dispatched event; compare every
    recovered run against the no-crash baseline. Returns the summary
    dict (``summary["ok"]`` is the verdict)."""

    def say(msg: str) -> None:
        if verbose:
            print(msg)

    if shape not in SHAPES:
        raise ValueError(f"unknown sweep shape {shape!r}")
    run_shape = SHAPES[shape]
    base = _execute(run_shape, records,
                    checkpoint_interval=checkpoint_interval)
    if not base.succeeded:
        raise RuntimeError(
            f"baseline run did not succeed: {base.status_name}"
        )
    total = base.dispatched
    say(f"baseline: {base.status_name}, {total} control events, "
        f"wall {base.wall:.2f}s")

    # One record per crash point streams straight to the artifact as
    # it is produced; only scalar accumulators stay resident, so a
    # full-stride sweep (thousands of crash points, each with a
    # per-task run log) holds one outcome in memory at a time.
    n_points = n_crashed = 0
    failures: list[str] = []
    sums = {"events_replayed": 0, "tasks_recovered": 0,
            "work_reexecuted": 0, "entries_dropped": 0,
            "fenced_appends": 0}
    wall_delta = Histogram("recovery.wall_delta")
    with (JsonlStreamWriter(out) if out else
          contextlib.nullcontext()) as stream:
        for k in range(1, total + 1, max(1, stride)):
            point = _crash_point(run_shape, records, base, k,
                                 checkpoint_interval)
            if stream is not None:
                stream.write(_point_record(n_points, point))
            n_points += 1
            failures.extend(point.violations)
            for violation in point.violations:
                say(f"FAIL {violation}")
            res = point.outcome
            if res is None:
                continue
            if res.crashed:
                n_crashed += 1
                wall_delta.observe(res.wall - base.wall)
            for key in sums:
                sums[key] += getattr(res, key)
            if point.ok and (k % 25 == 0 or k == 1):
                say(f"  k={k}: {res.status_name}, replayed "
                    f"{res.events_replayed}, recovered "
                    f"{res.tasks_recovered}, redone {res.work_reexecuted},"
                    f" wall +{res.wall - base.wall:.2f}s")

        summary = {
            "ok": not failures,
            "baseline_events": total,
            "baseline_wall": base.wall,
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
    if out:
        say(f"wrote {out}")
    say(f"sweep: {n_crashed}/{n_points} crash points recovered, "
        f"{len(failures)} violations")
    return summary


# ------------------------------------------------------------- soak mode
def run_soak(records: int = 200, dags: int = 3,
             out: Optional[str] = None, verbose: bool = True) -> dict:
    """Repeated AM crashes (timed and event-boundary) plus a worker
    node crash, across a multi-DAG session; every DAG must still
    commit the baseline rows."""

    def say(msg: str) -> None:
        if verbose:
            print(msg)

    shape = Shape(_MR, _MR_EDGES,
                  tuple((f"soak{i}", f"/soak/out{i}") for i in range(dags)),
                  session=True, am_max_attempts=8)
    # Times sit past AM startup (~4.3s in this sim) so every am_crash
    # finds a live dispatcher-carrying AM — injecting one into a void
    # is a hard error by design.
    plan = (FaultPlan(seed=11)
            .crash_am(at=5.0, after_events=40)
            .crash_node(at=9.0, restart_after=15.0)
            .crash_am(at=16.0)
            .crash_am(at=22.0, after_events=20))
    base = _execute(shape, records)
    res = _execute(shape, records, plan=plan)
    failures = _violations(base, res, "soak")

    summary = {
        "ok": not failures,
        "dags": dags,
        "am_attempts": res.am_attempts,
        "violations": len(failures),
        "events_replayed": res.events_replayed,
        "tasks_recovered": res.tasks_recovered,
        "entries_dropped": res.entries_dropped,
        "fenced_appends": res.fenced_appends,
    }
    for failure in failures:
        say(f"FAIL {failure}")
    say(f"soak: {res.am_attempts} AM attempts over {dags} DAGs, "
        f"{res.events_replayed} events replayed, "
        f"{res.tasks_recovered} tasks recovered, "
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
# streamed through the store's JsonlStreamWriter as points complete.

def _point_record(seq: int, point: CrashPoint) -> dict:
    attrs: dict = {"k": point.k}
    o = point.outcome
    if o is not None:
        attrs.update(
            crashed=o.crashed,
            status=o.status_name,
            am_attempts=o.am_attempts,
            events_replayed=o.events_replayed,
            tasks_recovered=o.tasks_recovered,
            work_reexecuted=o.work_reexecuted,
            entries_dropped=o.entries_dropped,
            fenced_appends=o.fenced_appends,
            wall=o.wall,
        )
    attrs["violations"] = list(point.violations)
    return {"type": "event", "seq": seq, "ts": float(point.k),
            "kind": "recovery.sweep_point", "attrs": attrs}


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
                        help="input records of every DAG")
    parser.add_argument("--stride", type=int, default=1,
                        help="test every stride-th crash point")
    parser.add_argument("--checkpoint-interval", type=int, default=None,
                        help="journal checkpoint interval override")
    parser.add_argument("--shape", choices=tuple(SHAPES), default="mr",
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

    if args.soak:
        summary = run_soak(records=args.records, out=args.out,
                           verbose=not args.quiet)
    else:
        summary = run_sweep(records=args.records, stride=args.stride,
                            checkpoint_interval=args.checkpoint_interval,
                            out=args.out, verbose=not args.quiet,
                            shape=args.shape)
    return 0 if summary["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
