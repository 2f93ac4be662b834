"""One code path per mechanism: the switches that used to select a
preserved historical implementation stay gone."""

import ast
import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec
from repro.engines.hive import HiveSession, OptimizerConfig
from repro.engines.pig import PigRunner
from repro.sim import Environment
from repro.telemetry import SpanStore, Telemetry
from repro.tez import TezConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

# Spelled in halves so this file passes its own guard.
RETIRED = [a + "_" + b for a, b in (
    ("composite", "dme"), ("coalesce", "deliveries"),
    ("indexed", "scheduler"), ("attempt", "fast_path"),
    ("batch", "attempt_exits"), ("fast_path", "min_tasks"),
    ("scheduler", "incremental"), ("event_driven", "ticks"),
    ("timer", "wheel"), ("execution", "templates"),
    ("verbose", "sim"), ("REPRO", "TELEMETRY_TEE"),
    ("_FAST", "PLUMBING_MIN_TASKS"), ("reuse", "rack_fallback"),
    ("reuse", "any_fallback"))]
# As identifiers: the ledger-facing `<timer><wheel>_hits` counter passes.
GUARD = re.compile(r"(?<![A-Za-z0-9_])(%s)(?![A-Za-z0-9_])"
                   % "|".join(RETIRED))


def _guarded_files():
    for folder in ("src", "tests", "tools", "examples", ".github"):
        for path in sorted((ROOT / folder).rglob("*")):
            if path.is_file() and path.suffix != ".pyc":
                yield path
    yield from sorted((ROOT / "benchmarks").glob("bench_*.py"))
    yield ROOT / "README.md"
    yield ROOT / "DESIGN.md"


def test_no_retired_switch_is_named_anywhere():
    for path in _guarded_files():
        text = path.read_text(encoding="utf-8")
        if path.parent.name == "golden" and path.suffix == ".json":
            # Provenance may say which values a golden was recorded from.
            record = json.loads(text)
            record.pop("recorded_from", None)
            text = json.dumps(record)
        hit = GUARD.search(text)
        assert hit is None, \
            f"{path.relative_to(ROOT)} names retired switch {hit.group()}"


@pytest.mark.parametrize("cls, name", [
    (TezConfig, RETIRED[3]), (ClusterSpec, RETIRED[8]),
    (TezConfig, RETIRED[9]), (Telemetry, RETIRED[10]), (SpanStore, "tee"),
    (SpanStore, "overflow"), (SpanStore, "on_overflow"), (SpanStore, "dir"),
    (TezConfig, "commit_on_dag_success"),
    (TezConfig, "count_killed_as_failure"), (TezConfig, "task_retry_delay"),
    (TezConfig, RETIRED[13]), (TezConfig, RETIRED[14]),
    (ClusterSpec, "extra")])
def test_retired_switches_are_not_accepted(cls, name):
    with pytest.raises(TypeError):
        cls(**{name: False})


@pytest.mark.parametrize("cls", [HiveSession, PigRunner])
@pytest.mark.parametrize("name", ["tez_config", "mr_config"])
def test_engine_sessions_take_no_compiler_config(cls, name):
    with pytest.raises(TypeError):
        inspect.signature(cls).bind(None, **{name: None})


def test_single_valued_engine_configs_are_gone():
    for module, name in (("repro.engines.hive", "HiveTezConfig"),
                         ("repro.engines.hive", "HiveMRConfig"),
                         ("repro.engines.pig", "PigMRConfig")):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}")
    assert len(dataclasses.fields(OptimizerConfig)) == 5


@pytest.mark.parametrize("module", [
    "yarn/scheduler.py", "tez/am/task_scheduler.py", "sim/core.py",
    "tez/vertex_manager.py", *sorted(
        str(p.relative_to(SRC)) for p in (SRC / "bench").glob("*.py"))])
def test_no_module_describes_a_second_implementation(module):
    assert "legacy" not in (SRC / module).read_text().lower()


def _source_files_matching(pattern):
    found = re.compile(pattern, re.MULTILINE)
    return sorted(str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                  if found.search(path.read_text(encoding="utf-8")))


def test_no_template_cache_is_left_behind():
    """The execution-template subsystem is gone but for the two names
    ``benchmarks/ledger/`` still reads: an empty module and a method
    that returns ``[]``."""
    stub = ast.parse((SRC / "tez" / "templates.py").read_text())
    assert len(stub.body) == 1 and ast.get_docstring(stub) is not None
    coordinator = ast.parse((SRC / "tez" / "coordinator.py").read_text())
    identifiers = [
        getattr(node, field) for node in ast.walk(coordinator)
        for field in ("id", "attr", "name", "arg")
        if isinstance(getattr(node, field, None), str)]
    assert [name for name in identifiers if "template" in name.lower()] \
        == ["template_summaries"]
    # Spelled in halves, as above.
    gone = [a + b for a, b in (
        ("template_", "bridge"), ("template_", "deterministic"),
        ("membership_", "listener"), ("_route_", "cache"),
        ("Template", "Event"))]
    assert not _source_files_matching("|".join(gone))
    assert len(dataclasses.fields(TezConfig)) == 13


def test_only_the_kernel_touches_the_host_collector():
    """One scoped mechanism (``Environment.run`` holds the collector),
    no second place that tunes, freezes or forces it."""
    assert _source_files_matching(
        r"^\s*(import gc\b|from gc import|import .*\bgc\b)") \
        == ["sim/core.py"]


def test_collection_timing_cannot_reach_the_model():
    assert not _source_files_matching(
        r"def __del__|^\s*(import|from) weakref\b|import .*\bweakref\b"), \
        "a finalizer or a weak reference makes *when* the cyclic " \
        "collector runs observable to the simulation; Environment.run " \
        "holds the collector, so digests would then depend on where " \
        "run() is called from"


def test_the_kernel_has_one_dispatch_loop():
    """``Environment.run`` fires heap entries in its own frame; ``peek``
    is the read-only query that may drop a cancelled head. No stepping
    twin beside them."""
    assert not hasattr(Environment, "step")
    tree = ast.parse((SRC / "sim" / "core.py").read_text(encoding="utf-8"))
    poppers = {
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Name) and node.id == "heappop"
                or isinstance(node, ast.Attribute) and node.attr == "heappop"
                for node in ast.walk(fn))}
    assert poppers == {"run", "peek"}


def _functions_calling(tree, name):
    return {
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name for node in ast.walk(fn))}


def test_the_recovery_sweep_has_one_executor():
    """Every shape of the crash-anywhere sweep, and the soak, is one
    run of ``_execute``: no second function builds its own cluster."""
    tree = ast.parse((SRC / "chaos" / "sweep.py").read_text(encoding="utf-8"))
    assert _functions_calling(tree, "SimCluster") == {"_execute"}
    assert {"run_soak", "_crash_point"} <= _functions_calling(tree, "_execute")


def test_the_sharded_sweep_is_retired():
    from repro.chaos.sweep import main, run_sweep

    for retired in ({"shards": 2}, {"shard": 1}, {"reducers": 2}):
        with pytest.raises(TypeError):
            run_sweep(**retired)
    for flag in ("--shard", "--shards", "--reducers"):
        with pytest.raises(SystemExit) as exit_:
            main([flag, "1"])
        assert exit_.value.code == 2


OPERATOR_FILES = [
    "engines/relational.py",
    "engines/hive/fragments.py", "engines/hive/compiler_tez.py",
    "engines/hive/compiler_mr.py", "engines/hive/reference.py",
    "engines/pig/reference.py", "engines/pig/compiler_tez.py",
    "engines/pig/compiler_mr.py"]


def _inside_loops(tree):
    """Every AST node in the body of a ``for`` / ``while`` or inside a
    comprehension."""
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.While)):
            parts = loop.body + loop.orelse
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            parts = [loop]
        else:
            continue
        for part in parts:
            yield from ast.walk(part)


def _names_an_operator(node):
    return isinstance(node, ast.Name) and node.id in ("func", "name", "op") \
        or isinstance(node, ast.Attribute) and node.attr in ("name", "op")


@pytest.mark.parametrize("module", OPERATOR_FILES)
def test_operators_resolve_nothing_per_row(module):
    """Expressions and aggregates are lowered to closures before the
    row loop (``Expr.compile``, ``relational.kernel`` - reached through
    Hive's ``agg_kernel`` and Pig's ``aggregation``): no tree walk and
    no dispatch on an aggregate's name inside one."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    for node in _inside_loops(tree):
        if isinstance(node, ast.Call):
            assert not (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "eval"), \
                f"{module}:{node.lineno} interprets an expression per row"
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            assert not (any(map(_names_an_operator, sides)) and any(
                isinstance(s, ast.Constant) and isinstance(s.value, str)
                for s in sides)), \
                f"{module}:{node.lineno} dispatches on a name per row"


# module -> the per-engine kernel copies ``engines/relational.py``
# replaced: each is gone, not kept beside the shared one.
DELETED_KERNELS = {
    "engines/hive/aggregates.py": [
        "partial_aggregate", "state_merger", "aggregate_finisher",
        "merge_aggregate_groups", "_PLAIN", "_count", "_sum", "_avg",
        "_min", "_max", "_null_first"],
    "engines/pig/reference.py": [
        "_AGGREGATES", "_count", "_sum", "_avg", "_min", "_max",
        "_avg_result", "_null_first", "partial_aggregate_states",
        "state_merger", "state_finisher", "merge_aggregate_states",
        "apply_aggregate", "order_rows", "rows_from_tuples"],
    "engines/hive/reference.py": ["sort_rows", "rows_from_tuples"],
}


def _defined_names(module):
    """Every name ``module`` defines at any depth: functions, classes,
    assignments."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


@pytest.mark.parametrize("module", sorted(DELETED_KERNELS))
def test_each_engine_kernel_copy_is_gone(module):
    assert not set(DELETED_KERNELS[module]) & set(_defined_names(module))


def test_one_set_of_relational_kernels():
    """Hive and Pig share one hash join, one MR aggregation reducer and
    combiner and one tagged join reducer; a LIMIT without ORDER BY is
    ``_build_sort`` with no keys in both Hive compilers."""
    from repro.engines.hive import MRCompiler, TezCompiler

    for compiler in (TezCompiler, MRCompiler):
        assert not hasattr(compiler, "_build_limit")
        assert not hasattr(compiler, "_build_generic_limit")
    hash_loops = {"engines/hive/reference.py": "_hash_join",
                  "engines/pig/reference.py": "hash_join"}
    for module, name in hash_loops.items():
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        [fn] = [n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name]
        assert not any(isinstance(n, (ast.For, ast.While))
                       for n in ast.walk(fn)), f"{module}:{name} loops"
    for module in ("engines/hive/compiler_mr.py",
                   "engines/pig/compiler_mr.py"):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and \
                    fn.name in ("_build_aggregate", "_build_join"):
                inner = {n.name for n in ast.walk(fn)
                         if isinstance(n, ast.FunctionDef)}
                assert not inner & {"reducer", "combiner"}, \
                    f"{module}:{fn.name} writes its own reducer"


def test_expressions_have_one_evaluator():
    """Every node lowers itself (``compile``); ``eval`` is the base
    class's "apply the compiled closure" and nobody's interpreter."""
    from repro.engines.hive import ast_nodes, parser  # noqa: F401

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    nodes = list(subclasses(ast_nodes.Expr))
    assert len(nodes) >= 11
    for cls in nodes:
        assert "compile" in vars(cls), f"{cls.__name__} has no compile"
        assert "eval" not in vars(cls), f"{cls.__name__} overrides eval"


def test_yarn_records_have_c_level_identity():
    """``Resource`` / ``Priority`` / ``ApplicationId`` / ``ContainerId``
    are value tuples: hashing, equality and ordering are ``tuple``'s C
    slots, so no scheduler index, ask table or memo lookup opens a
    Python frame, and no dataclass is left to generate one."""
    from repro.yarn import records

    for cls in (records.Resource, records.Priority, records.ApplicationId,
                records.ContainerId):
        for slot in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__",
                     "__gt__", "__ge__"):
            assert getattr(cls, slot) is getattr(tuple, slot), \
                f"{cls.__name__}.{slot} is not tuple's"
        assert not hasattr(cls, "__dataclass_fields__")


def _own_nodes(fn):
    """The nodes of ``fn``'s body, not of functions defined inside it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _attribute_calls(fn):
    """``(receiver, method)`` of every ``x.method(...)`` call in ``fn``,
    the receiver as its last name (``self.partitioner`` -> partitioner)."""
    for node in _own_nodes(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            name = getattr(receiver, "attr", getattr(receiver, "id", None))
            yield name, node.func.attr


def test_one_function_makes_a_spill():
    """Partition -> sort / combine -> size -> register is one function,
    ``ShuffleService.spill``, which every producer (Tez spill outputs,
    the MapReduce map side, the Spark service backend) calls: no second
    hand-rolled copy that could type a spill differently."""
    registers, splits = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.relative_to(SRC)}:{fn.name}"
            for receiver, method in _attribute_calls(fn):
                if method == "register_spill":
                    registers.add(where)
                if method == "split" and receiver and \
                        "partitioner" in receiver:
                    splits.add(where)
    assert registers == splits == {"shuffle/service.py:spill"}


def test_an_output_announces_its_data_one_way():
    """A spill output announces with one CompositeDataMovementEvent
    whatever its partition count: no spec flag picks a per-partition
    form, the AM buffers and routes one kind, and the only
    DataMovementEvents built are a composite's routed expansions."""
    from repro.tez import Vertex
    from repro.tez.am.event_router import EventRouter
    from repro.tez.am.structures import VertexRuntime
    from repro.tez.events import CompositeDataMovementEvent
    from repro.tez.runtime import OutputSpec

    with pytest.raises(TypeError):
        OutputSpec("r", None, 1, composite=True)
    vr = VertexRuntime(Vertex("v", None, parallelism=1), 0, "d#1", "d")
    assert not hasattr(vr, "incoming") and vr.incoming_composites == {}
    assert not hasattr(EventRouter, "route_dme")
    assert not hasattr(EventRouter, "_deliver_live")
    assert not hasattr(CompositeDataMovementEvent, "payload_for")
    built = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in _own_nodes(fn):
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", None) in (
                        "DataMovementEvent", "CompositeDataMovementEvent"):
                    built.setdefault(node.func.id, set()).add(
                        f"{path.relative_to(SRC)}:{fn.name}")
    assert built == {
        "CompositeDataMovementEvent": {"tez/library/shuffle_io.py:close"},
        "DataMovementEvent": {"tez/events.py:sub_events"}}


def _word_dag(maps=4, reducers=3):
    from helpers import SG, edge, fn_vertex, hdfs_sink, hdfs_source, make_sim

    from repro.tez import DAG

    sim = make_sim()
    for part in range(maps):
        sim.hdfs.write(f"/in/{part}", [(i % 7, i) for i in range(40)])
    m = fn_vertex("m", lambda ctx, data: {"r": list(data["src"])}, -1)
    hdfs_source(m, "src", [f"/in/{part}" for part in range(maps)],
                max_splits=maps)
    r = fn_vertex("r", lambda ctx, data: {
        "out": [(k, sum(vs)) for k, vs in data["m"]]}, reducers)
    hdfs_sink(r, "out", "/out")
    dag = DAG("typed-once").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    return sim, dag


def _count_key_passes(monkeypatch):
    """Every key-type pass (``key_kind``) and every kind ``split`` is
    handed, wherever the shuffle layer calls them from."""
    from repro.shuffle import HashPartitioner, sorter

    passes, kinds = [], []
    real_kind, real_split = sorter.key_kind, HashPartitioner.split

    def spy_kind(kvs):
        passes.append(len(kvs))
        return real_kind(kvs)

    def spy_split(self, records, num_partitions, key_kind=None):
        kinds.append(key_kind)
        return real_split(self, records, num_partitions, key_kind)

    monkeypatch.setattr(sorter, "key_kind", spy_kind)
    monkeypatch.setattr(HashPartitioner, "split", spy_split)
    return passes, kinds


@pytest.mark.parametrize("kinds_on_refs", [True, False])
def test_a_spill_is_typed_once_and_its_merges_never(monkeypatch,
                                                    kinds_on_refs):
    from helpers import run_dag

    from repro.shuffle import ShuffleService

    sim, dag = _word_dag()
    if not kinds_on_refs:
        # The control: refs without a kind make every merge rescan, so
        # the spy would see a regression of the reduce side.
        register = ShuffleService.register_spill

        def unkinded(self, *args, **kwargs):
            kwargs["key_kind"] = None
            return register(self, *args, **kwargs)

        monkeypatch.setattr(ShuffleService, "register_spill", unkinded)
    passes, kinds = _count_key_passes(monkeypatch)
    status, _client = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    assert sorted(sim.hdfs.read_file("/out")) == [
        (k, sum(i for i in range(40) if i % 7 == k) * 4) for k in range(7)]
    # One pass per map output, handed to the partitioner; every reducer
    # merges > 1 record, so a rescan there would show.
    assert len(kinds) == 4 and None not in kinds
    assert passes[:4] == [40] * 4
    assert len(passes) == (4 if kinds_on_refs else 4 + 3)


def test_mapreduce_reducers_merge_on_the_refs_kinds(monkeypatch):
    from helpers import make_sim

    from repro.engines.mapreduce import MRJob, MapReduceYarnRunner

    sim = make_sim()
    sim.hdfs.write("/in/words", ["a b c a", "b a d", "c c a b"] * 10,
                   record_bytes=64)
    passes, kinds = _count_key_passes(monkeypatch)
    runner = MapReduceYarnRunner(sim.env, sim.rm, sim.hdfs, sim.shuffle)
    done = sim.env.process(runner.run_job(MRJob(
        name="wc", input_paths=["/in/words"], output_path="/out/wc",
        mapper=lambda line: [(w, 1) for w in line.split()],
        reducer=lambda key, values: [(key, sum(values))], num_reducers=2)))
    sim.env.run(until=done)
    assert done.value.succeeded, done.value.diagnostics
    assert dict(sim.hdfs.read_file("/out/wc")) == \
        {"a": 40, "b": 30, "c": 30, "d": 10}
    assert len(passes) == len(kinds) == done.value.metrics["maps"]
    assert None not in kinds


def _calls_named(tree, names):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in names:
                yield node


def test_one_lowering_builds_the_engines_dags():
    """Hive, Pig, Spark and MapReduce lower their stage graphs through
    ``engines/lowering.py::to_dag``, the only engine code that builds a
    vertex, an edge or an edge property. The MR front-end builds no
    descriptor either and takes nothing from the Tez runtime library:
    which output, input and processor realise a job is decided in the
    lowering."""
    builders = {
        str(path.relative_to(SRC))
        for path in sorted((SRC / "engines").rglob("*.py"))
        if any(_calls_named(ast.parse(path.read_text(encoding="utf-8")),
                            {"Vertex", "Edge", "EdgeProperty"}))}
    assert builders == {"engines/lowering.py"}
    for path in sorted((SRC / "engines" / "mapreduce").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(_calls_named(tree, {"Descriptor"})), path.name
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        assert not {m for m in imported if m and m.endswith(
            "tez.library")}, path.name
    assert not (SRC / "engines" / "mapreduce" / "tez_runner.py").exists()
    import repro.engines.mapreduce as mapreduce

    gone = "mrjob" + "_to_dag"    # spelled in halves, as above
    assert not hasattr(mapreduce, gone)
    assert not _source_files_matching(gone)


@pytest.mark.parametrize("name", ["map_cpu_per_record",
                                  "reduce_cpu_per_record",
                                  "reduce_slowstart"])
def test_mr_jobs_take_no_runner_constants(name):
    """What every MR-on-YARN job was charged is the runner's constant
    (``yarn_runner.CPU_PER_RECORD`` / ``REDUCE_SLOWSTART``), not a job
    field; MR-on-Tez pays the cluster's rate like any vertex."""
    from repro.engines.mapreduce import MRJob

    with pytest.raises(TypeError):
        MRJob("j", ["/in"], "/out", mapper=list, **{name: 1e-6})


def test_a_mappers_shape_is_read_in_one_place():
    """Whether a mapper takes a whole split (``mapper.batch``) is read
    by ``MRJob.map_split`` alone; both runners call it."""
    readers = [
        f"{path.relative_to(SRC)}:{fn.name}"
        for path in sorted(SRC.rglob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Attribute) and node.attr == "batch"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and len(node.args) > 1
                and getattr(node.args[1], "value", None) == "batch"
                for node in _own_nodes(fn))]
    assert readers == ["engines/mapreduce/model.py:map_split"]


def test_only_the_map_side_builder_sets_path_mappers():
    setters = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in _own_nodes(fn):
                assigned = isinstance(node, ast.Attribute) and \
                    node.attr == "path_mappers" and \
                    isinstance(node.ctx, ast.Store)
                passed = isinstance(node, ast.keyword) and \
                    node.arg == "path_mappers"
                if assigned or passed:
                    setters.add(f"{path.relative_to(SRC)}:{fn.name}")
    assert setters == {"engines/mapreduce/model.py:map_side_job"}


def test_a_fetch_is_one_generator():
    """``Fetcher.fetch`` is the fetch: no generator it delegates to, no
    batch wrapper around it."""
    from repro.shuffle.fetcher import Fetcher

    tree = ast.parse((SRC / "shuffle" / "fetcher.py").read_text(
        encoding="utf-8"))
    generators = [
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, (ast.Yield, ast.YieldFrom))
                for node in _own_nodes(fn))]
    assert generators == ["fetch"]
    assert not hasattr(Fetcher, "_fetch") and not hasattr(Fetcher,
                                                          "fetch_all")


def test_every_shuffle_consumer_fetches_through_the_one_loop():
    """Tez inputs, the MR reducer and the Spark service stage gather
    through ``repro.shuffle.gather``: it is the one call site of
    ``Fetcher.fetch`` in ``src/`` (``Fetcher.fetch`` itself calls the
    shuffle service's ``fetch``), and no consumer keeps a fetcher
    factory or a retry error of its own."""
    import repro.shuffle
    from repro.tez.library.shuffle_io import _FetchingInputBase

    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites.extend(
                    f"{path.relative_to(SRC)}:{fn.name}:{receiver}"
                    for receiver, method in _attribute_calls(fn)
                    if method == "fetch")
    assert sorted(sites) == ["shuffle/fetch_loop.py:gather:fetcher",
                             "shuffle/fetcher.py:fetch:None"]
    assert not hasattr(_FetchingInputBase, "_fetcher")
    assert not hasattr(repro.shuffle, "TransientFetchError")


def test_the_kernel_calls_nobody_per_process():
    """Processes are counted by the kernel (``processes_started``), not
    reported to registered hooks."""
    env = Environment()
    assert env.processes_started == 0
    assert not hasattr(env, "add_process_hook")
    assert not hasattr(env, "_process_hooks")
    assert not hasattr(Telemetry, "_on_process_created")
    assert not hasattr(Telemetry(env), "_proc_counter")
    assert not _source_files_matching(r"process_hook|_on_process_created")


def test_routed_events_build_no_id():
    """A TezEvent draws its ``event_id`` on first read; no event class
    runs code after its dataclass ``__init__``."""
    from repro.tez import events

    classes = [cls for cls in vars(events).values()
               if isinstance(cls, type) and issubclass(cls, events.TezEvent)]
    # The base, two data-movement forms and three application events.
    assert len(classes) == 6
    assert not [cls for cls in classes if "__post_init__" in vars(cls)]


def test_a_store_is_one_artefact_with_one_ring_policy():
    """A persisted store is ``MANIFEST.json`` plus ``segments/``: the
    sidecar files, the rollup directory and the lossy ring are gone."""
    gone = [r"kernel\.json", r"shards\.json", "ROLLUP_DIR",
            r"telemetry\.backpressure", "dropped_spans"]
    assert not _source_files_matching("|".join(gone))
    for name in ("write_rollup", "resident_records", "_drop"):
        assert not hasattr(SpanStore, name)
    assert not hasattr(Telemetry, "_on_ring_overflow")


def test_a_store_is_written_once(tmp_path):
    """No live writer, no reopen-for-append, no write after ``persist``
    and no ``query --follow``: a store is spooled, then persisted once;
    and a delayed dispatch has one timer path."""
    from repro.telemetry import query

    for name in ("add_snapshot", "configured_dir", "_attach_existing",
                 "_forget_spans", "_materialize"):
        assert not hasattr(SpanStore, name)
    assert not hasattr(query, "follow")
    with pytest.raises(TypeError):
        Telemetry(store_opts={"dir": str(tmp_path)})
    with pytest.raises(SystemExit):
        query.main([str(tmp_path), "--follow"])
    assert not _source_files_matching(r"\b_live\b|_snapshots\b|fast_timers")


def test_a_task_run_is_recorded_once():
    """The ``task.run`` event is the one record of a task run: no
    scheduler-side trace list or trace-entry record is left in the
    program, its tools or its benchmarks, and the task scheduler's
    counters are read from its registry alone."""
    from repro import telemetry
    from repro.tez.am.task_scheduler import TaskSchedulerService

    names = re.compile(r"\b(task_trace|TaskTraceEntry)\b")
    hits = [str(path.relative_to(ROOT))
            for folder in ("src", "tools", "benchmarks")
            for path in sorted((ROOT / folder).rglob("*.py"))
            if names.search(path.read_text(encoding="utf-8"))]
    assert hits == []
    assert "TaskTraceEntry" not in telemetry.__all__
    for name in ("containers_launched", "tasks_placed", "reuse_hits",
                 "containers_released", "held_containers"):
        assert not hasattr(TaskSchedulerService, name)


def test_every_application_runs_the_one_am_body(monkeypatch):
    """A one-shot app and a session shard hand the RM the same AM body,
    and the client keeps no alias of shard 0's state: the journal is
    every shard record's own and the AM must be given it."""
    from helpers import SG, edge, fn_vertex, hdfs_sink, hdfs_source, make_sim
    from repro.tez import DAG
    from repro.tez.am.dag_app_master import DAGAppMaster
    from repro.tez.client import TezClient

    def small_dag(out):
        m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
        hdfs_source(m, "src", ["/in"])
        r = fn_vertex("r", lambda c, d: {"out": list(d["m"])}, 2)
        hdfs_sink(r, "out", out)
        return DAG("d").add_vertex(m).add_vertex(r).add_edge(edge(m, r, SG))

    client_src = (SRC / "tez" / "client.py").read_text(encoding="utf-8")
    assert len(list(_calls_named(ast.parse(client_src),
                                 {"submit_application"}))) == 1
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 5, i) for i in range(50)],
                   record_bytes=16)
    bodies = []
    submit = sim.rm.submit_application
    monkeypatch.setattr(sim.rm, "submit_application",
                        lambda name, factory, **kw: (
                            bodies.append(factory),
                            submit(name, factory, **kw))[1])
    one_shot = sim.tez_client()
    session = sim.tez_client(name="s", session=True)
    for client in (one_shot, session):
        handle = client.submit_dag(small_dag(f"/o-{client.name}"))
        sim.env.run(until=handle.completion)
        assert handle.status.succeeded, handle.status.diagnostics
    session.stop()
    assert [body.__func__ for body in bodies] == [TezClient._am] * 2
    for name in ("_single_dag_am", "_session_am"):
        assert not hasattr(TezClient, name)
    for name in ("recovery", "_requests", "_app_handle"):
        assert not hasattr(one_shot, name) and not hasattr(session, name)
    recovery = inspect.signature(DAGAppMaster).parameters["recovery"]
    assert recovery.default is inspect.Parameter.empty
    assert not hasattr(ClusterSpec(), "rpc_latency")


def test_a_fault_has_one_route():
    """Chaos applies a fault to what it breaks - the cluster, a shuffle
    service or the AM attempt's ``crash()`` - and never through the
    AM's event bus: no fault event type is left, the AM registers no
    handler for one, and the controller dispatches nothing."""
    from repro.chaos import controller
    from repro.tez.am import dispatcher
    from repro.tez.am.dag_app_master import DAGAppMaster

    names = re.compile(r"\bFaultEvent\b")
    hits = [str(path.relative_to(ROOT))
            for folder in ("src", "tools", "benchmarks")
            for path in sorted((ROOT / folder).rglob("*.py"))
            if names.search(path.read_text(encoding="utf-8"))]
    assert hits == []
    assert not hasattr(dispatcher, "FaultEvent")
    assert not hasattr(DAGAppMaster, "_on_fault")
    am_tree = ast.parse(inspect.getsource(DAGAppMaster))
    registered = {node.args[0].id
                  for node in _calls_named(am_tree, {"register"})
                  if node.args and isinstance(node.args[0], ast.Name)}
    assert "NodeLostEvent" in registered
    assert not {name for name in registered if "Fault" in name}
    chaos_tree = ast.parse(inspect.getsource(controller))
    assert list(_calls_named(chaos_tree, {"dispatch"})) == []
