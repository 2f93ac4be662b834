"""Spark-like RDD lineage and stage compilation (paper 5.4 / 6.5).

RDDs capture distribution metadata at the language layer; at action
time the lineage compiles into a DAG of *stages* cut at wide (shuffle)
dependencies — the same post-compilation DAG the paper encoded into
Tez. The compiled stage graph is backend-neutral: the service backend
(long-lived executors) and the Tez backend (ephemeral tasks) execute
identical stages, so measured differences isolate the execution model.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from ...shuffle.sorter import sort_key

__all__ = ["RDD", "Stage", "compile_stages"]

_rdd_ids = itertools.count(1)


class RDD:
    """A lazily evaluated, partitioned dataset."""

    def __init__(self, context, op: str, parents: list["RDD"],
                 num_partitions: int, **params):
        self.context = context
        self.op = op
        self.parents = parents
        self.num_partitions = num_partitions
        self.params = params
        self.rdd_id = next(_rdd_ids)
        self.cached = False
        self._cache_path: Optional[str] = None

    # ------------------------------------------------ narrow transforms
    def _derive(self, op: str, **params) -> "RDD":
        return RDD(self.context, op, [self], self.num_partitions, **params)

    def map(self, fn: Callable) -> "RDD":
        return self._derive("map", fn=fn)

    def filter(self, fn: Callable) -> "RDD":
        return self._derive("filter", fn=fn)

    def flat_map(self, fn: Callable) -> "RDD":
        return self._derive("flat_map", fn=fn)

    def map_values(self, fn: Callable) -> "RDD":
        return self._derive("map_values", fn=fn)

    def union(self, other: "RDD") -> "RDD":
        return RDD(self.context, "union", [self, other],
                   self.num_partitions + other.num_partitions)

    # -------------------------------------------------- wide transforms
    def reduce_by_key(self, fn: Callable,
                      num_partitions: Optional[int] = None) -> "RDD":
        return RDD(self.context, "reduce_by_key", [self],
                   num_partitions or self.context.default_parallelism,
                   fn=fn)

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        return RDD(self.context, "group_by_key", [self],
                   num_partitions or self.context.default_parallelism)

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        return RDD(self.context, "distinct", [self],
                   num_partitions or self.context.default_parallelism)

    def join(self, other: "RDD",
             num_partitions: Optional[int] = None) -> "RDD":
        return RDD(self.context, "join", [self, other],
                   num_partitions or self.context.default_parallelism)

    def partition_by(self, num_partitions: int) -> "RDD":
        """Re-distribute (k, v) pairs by key hash (the Fig 12/13 job)."""
        return RDD(self.context, "partition_by", [self], num_partitions)

    def cache(self) -> "RDD":
        self.cached = True
        return self

    # ------------------------------------------------------------ actions
    def collect(self):
        return self.context.run_job(self, action=("collect", None))

    def count(self):
        return self.context.run_job(self, action=("count", None))

    def save_as_file(self, path: str):
        return self.context.run_job(self, action=("save", path))

    def __repr__(self):
        return f"<RDD#{self.rdd_id} {self.op} p={self.num_partitions}>"


WIDE_OPS = {"reduce_by_key", "group_by_key", "distinct", "join",
            "partition_by"}
NARROW_OPS = {"map", "filter", "flat_map", "map_values", "union",
              "source", "cached_source"}


class Stage:
    """One shuffle-bounded execution stage."""

    _seq = itertools.count(1)

    def __init__(self, rdd: RDD):
        self.stage_id = next(Stage._seq)
        self.rdd = rdd                     # the stage's result RDD
        self.num_partitions = rdd.num_partitions
        # Filled by the compiler:
        self.sources: list[str] = []       # HDFS paths read by leaves
        self.parents: list[tuple["Stage", str]] = []  # (stage, tag)
        self.compute: Optional[Callable] = None
        # compute(inputs: {tag: records}) -> records
        self.shuffle_emit: Optional[Callable] = None
        # emit(records) -> kv list for downstream shuffle; None = leaf
        self.cache_path: Optional[str] = None

    def __repr__(self):
        return f"<Stage {self.stage_id} of {self.rdd}>"


def _narrow_chain(rdd: RDD, compiler: "_StageCompiler"):
    """Compile a narrow subtree into fn(inputs) -> records.

    Returns (fn, sources, parent_links) where parent_links are
    (stage, tag) pairs whose shuffled output feeds input ``tag``.
    """
    op = rdd.op
    if rdd.cached and rdd._cache_path is not None:
        path = rdd._cache_path
        tag = f"cache_{rdd.rdd_id}"
        return (lambda inputs, _t=tag: list(inputs[_t]), [(path, tag)], [])
    if op == "source":
        path = rdd.params["path"]
        tag = f"src_{rdd.rdd_id}"
        return (lambda inputs, _t=tag: list(inputs[_t]), [(path, tag)], [])
    if op in WIDE_OPS:
        # A wide RDD consumed narrowly: cut here — its own stage feeds
        # this one through a shuffle.
        stage = compiler.stage_for(rdd)
        tag = f"sh_{stage.stage_id}"
        return (
            lambda inputs, _t=tag: list(inputs[_t]),
            [],
            [(stage, tag)],
        )
    if op == "union":
        left_fn, ls, lp = _narrow_chain(rdd.parents[0], compiler)
        right_fn, rs, rp = _narrow_chain(rdd.parents[1], compiler)
        return (
            lambda inputs: left_fn(inputs) + right_fn(inputs),
            ls + rs, lp + rp,
        )
    parent_fn, sources, parents = _narrow_chain(rdd.parents[0], compiler)
    fn = rdd.params.get("fn")
    if op == "map":
        return (lambda inputs, _p=parent_fn, _f=fn:
                [_f(x) for x in _p(inputs)], sources, parents)
    if op == "filter":
        return (lambda inputs, _p=parent_fn, _f=fn:
                [x for x in _p(inputs) if _f(x)], sources, parents)
    if op == "flat_map":
        return (lambda inputs, _p=parent_fn, _f=fn:
                [y for x in _p(inputs) for y in _f(x)],
                sources, parents)
    if op == "map_values":
        return (lambda inputs, _p=parent_fn, _f=fn:
                [(k, _f(v)) for k, v in _p(inputs)], sources, parents)
    raise ValueError(f"unknown narrow op {op!r}")


class _StageCompiler:
    def __init__(self):
        self.stages: dict[int, Stage] = {}
        self.ordered: list[Stage] = []

    def stage_for(self, rdd: RDD) -> Stage:
        if rdd.rdd_id in self.stages:
            return self.stages[rdd.rdd_id]
        stage = Stage(rdd)
        self.stages[rdd.rdd_id] = stage
        op = rdd.op

        if rdd.cached and rdd._cache_path is not None:
            # Materialized cache: read it instead of recomputing.
            fn, sources, parents = _narrow_chain(rdd, self)
            stage.sources = sources
            stage.parents = parents
            stage.compute = lambda inputs, _f=fn: _f(inputs)
        elif op in WIDE_OPS and op != "join":
            parent = rdd.parents[0]
            parent_stage = self._map_side(parent, stage, tag="in")
            stage.compute = _wide_compute(op, rdd)
        elif op == "join":
            self._map_side(rdd.parents[0], stage, tag="left")
            self._map_side(rdd.parents[1], stage, tag="right")
            stage.compute = _wide_compute(op, rdd)
        else:
            # Result stage of a narrow lineage (leaf action).
            fn, sources, parents = _narrow_chain(rdd, self)
            stage.sources = sources
            stage.parents = parents
            stage.compute = lambda inputs, _f=fn: _f(inputs)
        self.ordered.append(stage)
        return stage

    def _map_side(self, parent: RDD, consumer: Stage, tag: str) -> Stage:
        """Build the producer stage feeding ``consumer`` via shuffle."""
        fn, sources, parents = _narrow_chain(parent, self)
        producer = Stage(parent)
        producer.num_partitions = parent.num_partitions
        producer.sources = sources
        producer.parents = parents
        producer.compute = lambda inputs, _f=fn: _f(inputs)
        producer.shuffle_emit = _map_emit(consumer.rdd.op, consumer.rdd)
        consumer.parents.append((producer, tag))
        self.ordered.append(producer)
        return producer


def _map_emit(op: str, rdd: RDD) -> Callable:
    if op == "reduce_by_key":
        fn = rdd.params["fn"]

        def emit(records, _f=fn):
            # Map-side combining.
            acc: dict = {}
            raw: dict = {}
            for k, v in records:
                key = sort_key(k)
                raw[key] = k
                acc[key] = v if key not in acc else _f(acc[key], v)
            return [(raw[k], v) for k, v in acc.items()]
        return emit
    if op == "distinct":
        def emit(records):
            seen = {}
            for x in records:
                seen[sort_key(x)] = x
            return [(x, None) for x in seen.values()]
        return emit
    # group_by_key / join / partition_by: plain (k, v) pass-through.
    return lambda records: list(records)


def _wide_compute(op: str, rdd: RDD) -> Callable:
    if op == "reduce_by_key":
        fn = rdd.params["fn"]

        def compute(inputs, _f=fn):
            acc: dict = {}
            raw: dict = {}
            for k, v in inputs["in"]:
                key = sort_key(k)
                raw[key] = k
                acc[key] = v if key not in acc else _f(acc[key], v)
            return [(raw[k], v) for k, v in acc.items()]
        return compute
    if op == "group_by_key":
        def compute(inputs):
            groups: dict = {}
            raw: dict = {}
            for k, v in inputs["in"]:
                key = sort_key(k)
                raw[key] = k
                groups.setdefault(key, []).append(v)
            return [(raw[k], vs) for k, vs in groups.items()]
        return compute
    if op == "distinct":
        def compute(inputs):
            seen: dict = {}
            for k, _none in inputs["in"]:
                seen[sort_key(k)] = k
            return list(seen.values())
        return compute
    if op == "partition_by":
        return lambda inputs: list(inputs["in"])
    if op == "join":
        def compute(inputs):
            build: dict = {}
            for k, v in inputs["right"]:
                build.setdefault(sort_key(k), []).append(v)
            out = []
            for k, v in inputs["left"]:
                for w in build.get(sort_key(k), []):
                    out.append((k, (v, w)))
            return out
        return compute
    raise ValueError(f"unknown wide op {op!r}")


def compile_stages(rdd: RDD) -> tuple[list[Stage], Stage]:
    """Compile an action's lineage; returns (topo stages, result stage)."""
    compiler = _StageCompiler()
    result = compiler.stage_for(rdd)
    # `ordered` appends producers before consumers except the result
    # stage for wide ops (created first, appended last) — normalize to
    # dependency order.
    ordered: list[Stage] = []
    seen: set[int] = set()

    def visit(stage: Stage) -> None:
        if stage.stage_id in seen:
            return
        seen.add(stage.stage_id)
        for parent, _tag in stage.parents:
            visit(parent)
        ordered.append(stage)

    visit(result)
    return ordered, result
