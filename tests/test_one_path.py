"""One code path per mechanism: the switches that used to select a
preserved historical implementation stay gone."""

import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec
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
    ("verbose", "sim"), ("REPRO", "TELEMETRY_TEE"))]
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
    (TezConfig, RETIRED[9]), (Telemetry, RETIRED[10]), (SpanStore, "tee")])
def test_retired_switches_are_not_accepted(cls, name):
    with pytest.raises(TypeError):
        cls(**{name: False})


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
    assert len(dataclasses.fields(TezConfig)) == 19


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
    row loop (``Expr.compile``, ``agg_kernel``, Pig's ``_AGGREGATES``):
    no tree walk and no dispatch on an aggregate's name inside one."""
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
