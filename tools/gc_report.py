#!/usr/bin/env python3
"""What CPython's cyclic collector costs one ledger workload, and what
the run leaves for it.

    python3 tools/gc_report.py --workload W [--seed N] [--smoke] [--check]

Builds workload ``W`` of ``benchmarks/ledger/workloads.py`` (imported
read-only) in this process, runs its timed region once and prints

* the collections that ran during it, per generation, with their host
  seconds (``gc.callbacks``), the unreachable objects they found, their
  share of the run's wall, how many of them ran inside
  ``Environment.run``, and the process's peak RSS;
* what one full collection under ``gc.DEBUG_SAVEALL`` finds afterwards:
  unreachable objects by type and, for the largest strongly-connected
  components, the attribute edges that close each cycle - the listing
  that says which reference to cut;
* what the finished DAGs and queries still hold once the timed region
  returns (no DAG is running then): HDFS files that are neither inputs
  nor committed outputs - scratch under ``/tmp/`` (the Spark RDD cache
  aside) and staging under ``_staging/`` or ``_tmp/`` - shuffle spills
  per application, object-registry entries per scope in every live
  container, and the DAG entries (with their task successes) still
  held by any shard's recovery journal (``RecoveryJournal.dags``) of
  any Tez client;
* the handles of finished DAGs that a Tez client still reaches: a
  walk of object references from each client, session or not, that passes
  through no class, module or function and not into the simulation's
  shared services (environment, cluster, HDFS, telemetry, RM, shuffle);
* what telemetry still holds then: each simulation's open spans by
  kind.

The script uses nothing that was added to the program for it (it reads
the shuffle services', registries' and journals' own tables), so a copy
of this file dropped into a parent checkout's ``tools/`` gives the
"before" column (open spans are read from ``Telemetry.open_spans()``,
or from the tracer a parent checkout's telemetry still has). The
telemetry line is a report only. ``--check`` exits 1 when a collection
ran inside ``Environment.run``, the unreachable set holds an AM
structure, a finished DAG or query left a scratch or staging file, a
spill, a DAG- or VERTEX-scoped registry entry or a recovery-journal
entry, or a client still reaches a finished DAG's handle.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import shutil
import sys
import tempfile
import time
import types
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHAPES_SHOWN = 4
EDGES_SHOWN = 24
LEFT_SHOWN = 8
SCRATCH_ROOT = "/tmp/"
RDD_CACHE = "/tmp/spark/cache/"     # data a later job reads, not scratch


def _scratch(path: str) -> bool:
    """Neither an input nor a committed output."""
    if path.startswith(SCRATCH_ROOT):
        return not path.startswith(RDD_CACHE)
    return "/_staging/" in path or "/_tmp/" in path


def _left_behind(sims) -> tuple[list, Counter, Counter]:
    """(scratch and staging files, spills per app id, registry entries
    per scope) still held in ``sims``."""
    files, spills, entries = [], Counter(), Counter()
    for sim in sims:
        files += [path for path in sim.hdfs.list_files() if _scratch(path)]
        for service in sim.shuffle.services.values():
            for app_id, spill_ids in service._app_spills.items():
                spills[app_id] += len(spill_ids)
        for nm in sim.rm.node_managers.values():
            for container in nm.containers.values():
                registry = getattr(container, "tez_registry", None)
                if registry is not None:
                    entries.update(scope for scope, _id, _value
                                   in registry._entries.values())
    return files, spills, entries


def _journaled(clients) -> Counter:
    """Task successes per DAG entry still held by the shard journals
    of ``clients`` (an entry holding none is counted at 0)."""
    held = Counter()
    for client in clients:
        for record in client.coordinator.records():
            for name, state in record.journal.dags.items():
                held[name] += len(state.successes)
    return held


def _open_spans(sims) -> list[Counter]:
    """Open spans by kind, one counter per simulation."""
    held = []
    for sim in sims:
        tel = sim.telemetry
        opened = getattr(tel, "open_spans", None) or tel.tracer.open_spans
        held.append(Counter(span.kind for span in opened()))
    return held


def shared_services() -> tuple:
    """The simulation's shared services: what a client's own structures
    reach through them is not the client's."""
    from repro.cluster import Cluster
    from repro.hdfs import Hdfs
    from repro.shuffle import ShuffleServices
    from repro.sim import Environment
    from repro.telemetry import Telemetry
    from repro.yarn import ResourceManager
    return (Environment, Cluster, Hdfs, Telemetry, ResourceManager,
            ShuffleServices)


def reachable(root, kinds, skip=()) -> list:
    """Every instance of ``kinds`` reachable from ``root`` by object
    references, without passing through a class, module or function
    (those lead to everything) or an instance of ``skip``. The tests
    of scope lifetimes walk with this too."""
    opaque = (type, types.ModuleType, types.FunctionType) + tuple(skip)
    seen, todo, found = {id(root)}, [root], []
    while todo:
        obj = todo.pop()
        if isinstance(obj, kinds):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, opaque):
                seen.add(id(ref))
                todo.append(ref)
    return found


def _finished_handles(clients) -> int:
    """Handles of finished DAGs the Tez clients ``clients`` reach, not
    through the simulation's shared services."""
    from repro.tez.client import DAGHandle
    shared = shared_services()
    return sum(handle.status is not None
               for client in clients
               for handle in reachable(client, DAGHandle, shared))


def _am_structures() -> tuple:
    """The types a finished DAG must free by reference count."""
    from repro.tez.am.structures import Task, TaskAttempt, VertexRuntime
    from repro.tez.am.vm_context import _VMContext
    from repro.tez.vertex_manager import VertexManagerPlugin
    return (Task, TaskAttempt, VertexRuntime, _VMContext,
            VertexManagerPlugin)


class _Collections:
    """``gc.callbacks`` hook: per-generation collections, seconds and
    objects found, and how many began with ``run_code`` (the code of
    ``Environment.run``) on the stack."""

    def __init__(self, run_code):
        self.count, self.seconds = Counter(), Counter()
        self.found = 0
        self.inside_run = 0
        self._run_code = run_code
        self._started = 0.0

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not self._run_code:
                frame = frame.f_back
            self.inside_run += frame is not None
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.count[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started
        self.found += info["collected"] + info["uncollectable"]


def _unreachable() -> list:
    """One full collection with everything it finds kept for inspection;
    debug flags and ``gc.garbage`` are put back."""
    flags, kept = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return gc.garbage[kept:]
    finally:
        gc.set_debug(flags)
        del gc.garbage[kept:]


def _components(objects: list) -> tuple[list, list]:
    """(strongly-connected components with more than one member, largest
    first, as lists of indexes into ``objects``; the adjacency lists
    they were found in). Iterative Tarjan: a finished DAG's clump is
    hundreds of thousands of objects deep."""
    index_of = {id(o): i for i, o in enumerate(objects)}
    edges = [[index_of[id(r)] for r in gc.get_referents(o)
              if id(r) in index_of] for o in objects]
    order, low, on_stack = {}, {}, set()
    stack, found = [], []
    for root in range(len(objects)):
        if root in order:
            continue
        work = [(root, iter(edges[root]))]
        order[root] = low[root] = len(order)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, targets = work[-1]
            for target in targets:
                if target not in order:
                    order[target] = low[target] = len(order)
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(edges[target])))
                    break
                if target in on_stack:
                    low[node] = min(low[node], order[target])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == order[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        found.append(component)
    return sorted(found, key=len, reverse=True), edges


def _attributes(obj) -> dict:
    """id(value) -> attribute name, for instances and slotted records."""
    names = {}
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(obj, slot):
                names[id(getattr(obj, slot))] = slot
    for name, value in getattr(obj, "__dict__", {}).items():
        names[id(value)] = name
    return names


def _closing_edges(objects: list, component: list, edges: list) -> Counter:
    """(source label, target type) -> count over the references that
    stay inside ``component``; an instance's ``__dict__`` is folded into
    the instance, so an edge reads ``Task.attempts -> list``."""
    members = set(component)
    # The graph is complete by now, so reading __dict__ (which
    # materialises it) can no longer hide an edge.
    owners = {id(vars(objects[i])): objects[i] for i in component
              if hasattr(objects[i], "__dict__")}
    closing = Counter()
    for i in component:
        src = objects[i]
        owner = owners.get(id(src))
        names = _attributes(src) if owner is None else \
            {id(v): k for k, v in src.items()}
        label = type(src if owner is None else owner).__name__
        for j in edges[i]:
            if j not in members or id(objects[j]) in owners:
                continue
            attr = names.get(id(objects[j]))
            if attr is None and owner is not None:
                continue
            closing[(f"{label}.{attr}" if attr else label,
                     type(objects[j]).__name__)] += 1
    return closing


def _print_components(objects: list) -> None:
    """Components grouped by shape (the set of edge kinds that close
    them), the shapes holding the most objects first."""
    components, edges = _components(objects)
    shapes: dict = {}
    for component in components:
        closing = _closing_edges(objects, component, edges)
        shape = shapes.setdefault(frozenset(closing), [0, 0, closing])
        shape[0] += 1
        shape[1] += len(component)
    print(f"{len(components)} cyclic components in {len(shapes)} shapes")
    ranked = sorted(shapes.values(), key=lambda shape: -shape[1])
    for count, size, closing in ranked[:SHAPES_SHOWN]:
        print(f"  {count} component(s), {size} objects in all; the "
              f"largest is closed by")
        for (src, dst), n in closing.most_common(EDGES_SHOWN):
            print(f"    {n:>8}  {src} -> {dst}")
        if len(closing) > EDGES_SHOWN:
            print(f"    ... and {len(closing) - EDGES_SHOWN} more edge "
                  f"kinds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "benchmarks", "ledger")]
    import workloads
    from repro.sim import Environment
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload: one of {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"

    # The telemetry spool lives and dies with this report.
    tempfile.tempdir = tempfile.mkdtemp(prefix="gc-report-")
    try:
        w = cls(args.seed, cls.sizes[size])
        gc.collect()        # as run.py does: set-up's garbage is not the run's
        with _Collections(Environment.run.__code__) as seen:
            started = time.perf_counter()
            w.run()
            wall = time.perf_counter() - started
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        files, spills, entries = _left_behind(w.sims)
        journaled = _journaled(w.clients)
        handles = _finished_handles(w.clients)
        open_spans = _open_spans(w.sims)
        garbage = _unreachable()
        outcome = w.check()
        for sim in w.sims:
            sim.telemetry.spanstore.discard()
    finally:
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)
        tempfile.tempdir = None

    print(f"{args.workload} ({size}) seed {args.seed} in {ROOT}")
    print(f"run: {wall:.3f} s host wall, {outcome.tasks} tasks, "
          f"{outcome.failed}/{outcome.attempted} operations failed, "
          f"peak RSS {rss:.1f} MiB")
    total_s = sum(seen.seconds.values())
    print(f"collections during the run: {sum(seen.count.values())} "
          f"({seen.inside_run} inside Environment.run), "
          f"{total_s:.3f} s = {total_s / wall:.1%} of the wall, "
          f"{seen.found} unreachable objects found")
    for generation in sorted(seen.count):
        print(f"  generation {generation}: {seen.count[generation]:>6} "
              f"collections {seen.seconds[generation]:>8.3f} s")

    by_type = Counter(type(o).__name__ for o in garbage)
    print(f"unreachable after the run: {len(garbage)} objects")
    for name, n in by_type.most_common(12):
        print(f"  {n:>8}  {name}")
    _print_components(garbage)

    print(f"left behind by finished DAGs and queries: {len(files)} "
          f"scratch or staging files, {sum(spills.values())} spills, "
          f"{sum(entries.values())} registry entries")
    for path in files[:LEFT_SHOWN]:
        print(f"  file      {path}")
    if len(files) > LEFT_SHOWN:
        print(f"  ... and {len(files) - LEFT_SHOWN} more files")
    for app_id, n in sorted(spills.items()):
        print(f"  spills    {n:>8}  {app_id}")
    for scope, n in sorted(entries.items()):
        print(f"  registry  {n:>8}  {scope}")
    print(f"recovery-journal entries still held: {len(journaled)}, "
          f"{sum(journaled.values())} task successes")
    for name, n in sorted(journaled.items()):
        print(f"  journal   {n:>8}  {name}")
    print(f"handles of finished DAGs that clients still reach: "
          f"{handles}")
    print(f"telemetry still holds: "
          f"{sum(sum(kinds.values()) for kinds in open_spans)} open spans")
    for i, kinds in enumerate(open_spans):
        if kinds:
            print(f"  sim {i}     " + ", ".join(
                f"{n} {kind}" for kind, n in sorted(kinds.items())))

    if not args.check:
        return 0
    stranded = Counter(type(o).__name__ for o in garbage
                       if isinstance(o, _am_structures()))
    problems = []
    if seen.inside_run:
        problems.append(f"{seen.inside_run} collection(s) ran inside "
                        f"Environment.run")
    if stranded:
        problems.append("AM structures left to the cyclic collector: "
                        + ", ".join(f"{n} {t}"
                                    for t, n in stranded.most_common()))
    scoped = entries["DAG"] + entries["VERTEX"]
    if files or spills or scoped:
        problems.append(f"finished DAGs or queries left {len(files)} "
                        f"scratch or staging files, "
                        f"{sum(spills.values())} spills and {scoped} DAG- "
                        f"or VERTEX-scoped registry entries")
    if journaled:
        problems.append(f"recovery journals still hold entries of "
                        f"{len(journaled)} finished DAG(s), with "
                        f"{sum(journaled.values())} task successes")
    if handles:
        problems.append(f"clients still reach the handles of "
                        f"{handles} finished DAG(s)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        print("check: no collection inside Environment.run, no AM "
              "structure among the unreachable objects, nothing left "
              "behind by a finished DAG or query, nothing journaled, "
              "no finished DAG's handle held by a client")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
