"""Hive → MapReduce compiler: the paper's baseline execution path.

Faithful to pre-Tez Hive: every distributed boundary (shuffle join,
group-by, order-by) becomes a separate MapReduce job, and every job
materializes its output to replicated HDFS for the next job's mappers
to re-read. A join the shared optimizer marks ``BROADCAST`` is a map
join (``hive.auto.convert.join``): it runs in the mappers of the next
job, each of which reads the small side whole from the distributed
cache. Any other join is a reduce-side join with input-path-aware
mappers tagging each side. There is no broadcast edge, no dynamic
partition pruning, no container reuse — the "restricted
expressiveness of MapReduce" the paper describes in 5.2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

from ..lowering import key_tuples
from ..mapreduce.model import MRJob, map_side_job
from ..relational import join_reducer, order_rows, rows_of
from .aggregates import aggregation, sql_rows
from .fragments import InputLeaf, execute_fragment
from .plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    reducers_for,
)
from .reference import scan_fields

__all__ = ["MRCompiler", "CompiledMRQuery"]


class _Pending:
    """Work still to be done on the map side of the *next* job.

    ``inputs`` is a list of (paths, decoder, fragment-leaf-name); the
    fragment runs over the union of the decoded inputs. ``cache`` has
    the same shape: the map joins' build sides, which every map task
    reads whole from the distributed cache.
    """

    def __init__(self, inputs: list[tuple[list[str], Callable, str]],
                 fragment: PlanNode, est_row_bytes: float):
        self.inputs = inputs
        self.fragment = fragment
        self.est_row_bytes = est_row_bytes
        self.cache: list[tuple[list[str], Callable, str]] = []


@dataclass
class CompiledMRQuery:
    jobs: list[MRJob]
    output_path: str
    columns: list[str]
    scratch: str                      # the jobs' intermediate directory


class MRCompiler:
    def __init__(self, catalog):
        self.catalog = catalog
        self._jobs: list[MRJob] = []
        self._query_id = 0

    # ----------------------------------------------------------- public
    def compile(self, plan: PlanNode, query_name: str,
                output_path: Optional[str] = None) -> CompiledMRQuery:
        self._jobs = []
        # Jobs and scratch files are numbered within the query, so its
        # plan does not depend on what the session compiled before.
        self._seq = itertools.count(1)
        self._query_id += 1
        self._tmp_base = f"/tmp/hive_mr/{query_name}_{self._query_id}"
        output_path = output_path or f"{self._tmp_base}/final"
        pending = self._build(plan)
        columns = plan.output_columns()
        self._finalize(pending, output_path, columns)
        return CompiledMRQuery(list(self._jobs), output_path, columns,
                               self._tmp_base)

    # -------------------------------------------------------- utilities
    def _tmp(self, label: str) -> str:
        return f"{self._tmp_base}/{label}_{next(self._seq)}"

    def _job(self, label: str, feeds: list[tuple[_Pending, Callable]],
             out: str, **fields) -> None:
        """One MR job over the map side of each ``(pending, emit)`` feed
        (see :func:`_sides`), the feeds' build sides in its cache."""
        sides = [side for pending, emit in feeds
                 for side in _sides(pending, emit)]
        cache_paths = list(dict.fromkeys(
            path for pending, _emit in feeds
            for paths, _decoder, _leaf in pending.cache for path in paths))
        self._jobs.append(map_side_job(
            f"{label}_{next(self._seq)}", sides, out,
            cache_paths=cache_paths, **fields))

    # ------------------------------------------------------- compilation
    def _build(self, node: PlanNode) -> _Pending:
        if isinstance(node, Scan):
            paths = (
                node.table.paths(node.partition_values)
                if node.table.partitions else [node.table.path]
            )
            fields = scan_fields(node)

            def decoder(records, _f=fields):
                return rows_of(records, _f)

            leaf = f"scan_{node.alias}"
            return _Pending([(paths, decoder, leaf)], InputLeaf(leaf),
                            node.estimated_row_bytes)
        if isinstance(node, Filter):
            pending = self._build(node.child)
            pending.fragment = Filter(pending.fragment, node.predicate)
            return pending
        if isinstance(node, Project):
            pending = self._build(node.child)
            pending.fragment = Project(pending.fragment, node.items)
            return pending
        if isinstance(node, Join):
            return self._build_join(node)
        if isinstance(node, Aggregate):
            return self._build_aggregate(node)
        if isinstance(node, Sort):
            return self._build_sort(node, node.keys, limit=None)
        if isinstance(node, Limit):
            if isinstance(node.child, Sort):
                return self._build_sort(node.child, node.child.keys,
                                        limit=node.n)
            return self._build_sort(node, [], limit=node.n)
        raise TypeError(f"cannot compile {type(node).__name__}")

    def _build_join(self, node: Join) -> _Pending:
        """A ``BROADCAST`` join is a map join: it joins in the mappers
        of the next job, through the same ``Join`` fragment Hive on Tez
        runs, and every map task reads the build side whole from the
        distributed cache. The reduce-side join job serves ``SHUFFLE``
        joins, and broadcast ones whose build side itself needs a
        shuffle (an aggregate, sort, limit or reduce-side join below
        it): Hive converts a join at compile time from the small
        side's stored files, and such a side has none yet."""
        left = self._build(node.left)
        jobs_before = len(self._jobs)
        right = self._build(node.right)
        if node.strategy == Join.BROADCAST and len(self._jobs) == jobs_before:
            joined = Join(left.fragment, right.fragment, node.left_key,
                          node.right_key, node.how)
            joined.strategy = Join.BROADCAST
            joined.right_columns = node.right.output_columns()
            left.fragment = joined
            left.cache += right.inputs + right.cache
            left.est_row_bytes = int(node.estimated_row_bytes) or 64
            return left
        out = self._tmp("join")
        est = node.left.estimated_bytes + node.right.estimated_bytes
        reducers = reducers_for(est)
        lk, rk = node.left_key, node.right_key
        reducer = join_reducer(dict.fromkeys(node.right.output_columns())
                               if node.how == "left" else None)

        # Tag each side in the map output so the reducer can split.
        def make_emit(tag, key_expr):
            key_of = key_expr.compile()

            def emit(rows):
                return list(zip(map(key_of, rows), zip(repeat(tag), rows)))
            return emit

        row_bytes = int(node.estimated_row_bytes) or 64
        self._job("join", [(left, make_emit("L", lk)),
                           (right, make_emit("R", rk))], out,
                  reducer=reducer, num_reducers=reducers,
                  output_record_bytes=row_bytes)
        leaf = f"joined_{next(self._seq)}"
        return _Pending([([out], lambda records: list(records), leaf)],
                        InputLeaf(leaf), row_bytes)

    def _build_aggregate(self, node: Aggregate) -> _Pending:
        pending = self._build(node.child)
        out = self._tmp("agg")
        group_items = node.group_items
        reducers = 1 if not group_items else reducers_for(
            max(node.estimated_bytes, node.child.estimated_bytes / 4)
        )
        agg = aggregation(group_items, node.aggs)
        row_bytes = int(node.estimated_row_bytes) or 32
        # Map-side combining merges partial states per group.
        self._job("agg", [(pending, agg.partial)], out,
                  reducer=agg.reducer, num_reducers=reducers,
                  combiner=agg.combiner, output_record_bytes=row_bytes)

        def decoder(records):
            # A global aggregate over empty input never reaches the
            # reducer: the consuming job reads the empty output as one
            # empty split, and finds SQL's one row here.
            return sql_rows(agg, list(records))

        leaf = f"agged_{next(self._seq)}"
        return _Pending([([out], decoder, leaf)], InputLeaf(leaf),
                        row_bytes)

    def _build_sort(self, node: PlanNode, keys: list[tuple[str, bool]],
                    limit: Optional[int]) -> _Pending:
        """ORDER BY ``keys`` of ``node`` (a Sort), LIMIT ``limit``: one
        reducer merges the mappers' top rows. A LIMIT without ORDER BY
        is ``node`` itself with no keys."""
        pending = self._build(node.child)
        label = "sort" if isinstance(node, Sort) else "limit"
        out = self._tmp(label)

        def top(rows, _k=keys, _l=limit):
            ordered = order_rows(rows, _k)
            return ordered if _l is None else ordered[:_l]

        def emit(rows):
            return [(0, row) for row in top(rows)]

        def reducer(_key, rows):
            return top(list(rows))

        row_bytes = int(node.estimated_row_bytes) or 64
        self._job(label, [(pending, emit)], out, reducer=reducer,
                  output_record_bytes=row_bytes)
        leaf = f"{label}ed_{next(self._seq)}"
        return _Pending([([out], lambda records: list(records), leaf)],
                        InputLeaf(leaf), row_bytes)

    def _finalize(self, pending: _Pending, output_path: str,
                  columns: list[str]) -> None:
        """Map-only job converting final rows to output tuples."""
        def emit(rows, _c=columns):
            return key_tuples(rows, _c)

        trivial = (
            isinstance(pending.fragment, InputLeaf)
            and len(pending.inputs) == 1
        )
        if trivial and self._jobs:
            # The previous job's reducer output is already the result
            # rows; rewrite that job to emit tuples straight into the
            # final location (Hive's "move task" — no extra job).
            last = self._jobs[-1]
            prev_reducer = last.reducer

            def final_reducer(key, values, _r=prev_reducer, _c=columns):
                return key_tuples(list(_r(key, values)), _c)

            last.reducer = final_reducer
            last.output_path = output_path
            return
        self._job("final", [(pending, emit)], output_path,
                  output_record_bytes=int(pending.est_row_bytes) or 64)


def _sides(pending: _Pending, emit: Callable) -> list:
    """The map side of ``pending`` feeding ``emit``: per input, its
    decoder into the fragment's leaf, then the fragment, a split at a
    time (like Hive's operator tree). A map join's build side is read
    from the distributed cache, and decoded and hashed once per job run
    (``_MapInputs``)."""
    fragment = pending.fragment
    builds = {leaf: (paths, decoder) for paths, decoder, leaf in
              pending.cache}

    def to_rows(decoder, leaf):
        def rows(records, cached=None):
            return execute_fragment(
                fragment, _MapInputs(leaf, decoder(records), builds,
                                     cached), cached)
        return rows

    return [(paths, to_rows(decoder, leaf), emit)
            for paths, decoder, leaf in pending.inputs]


class _MapInputs(dict):
    """A map task's fragment inputs: its split's rows under ``leaf``,
    and each build side's rows decoded from the task's cached files
    only when the fragment reads that leaf - which a map join does only
    until the job run's hash table for it is built."""

    __slots__ = ("builds", "cached")

    def __init__(self, leaf: str, rows: list, builds: dict, cached):
        super().__init__(((leaf, rows),))
        self.builds = builds
        self.cached = cached

    def __missing__(self, leaf: str) -> list:
        paths, decoder = self.builds[leaf]
        cached = self.cached
        return decoder([r for path in paths for r in cached[path]])
