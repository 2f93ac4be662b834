"""Hive → MapReduce compiler: the paper's baseline execution path.

Faithful to pre-Tez Hive: every distributed boundary (join, group-by,
order-by) becomes a separate MapReduce job, and every job materializes
its output to replicated HDFS for the next job's mappers to re-read.
Joins are reduce-side (shuffle) joins with input-path-aware mappers
tagging each side; there is no broadcast edge, no dynamic partition
pruning, no container reuse — the "restricted expressiveness of
MapReduce" the paper describes in 5.2.
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
    fragment runs over the union of the decoded inputs.
    """

    def __init__(self, inputs: list[tuple[list[str], Callable, str]],
                 fragment: PlanNode, est_bytes: float,
                 est_row_bytes: float):
        self.inputs = inputs
        self.fragment = fragment
        self.est_bytes = est_bytes
        self.est_row_bytes = est_row_bytes


@dataclass
class CompiledMRQuery:
    jobs: list[MRJob]
    output_path: str
    columns: list[str]


class MRCompiler:
    def __init__(self, catalog):
        self.catalog = catalog
        self._seq = itertools.count(1)
        self._jobs: list[MRJob] = []
        self._query_id = 0

    # ----------------------------------------------------------- public
    def compile(self, plan: PlanNode, query_name: str,
                output_path: Optional[str] = None) -> CompiledMRQuery:
        self._jobs = []
        self._query_id += 1
        self._tmp_base = f"/tmp/hive_mr/{query_name}_{self._query_id}"
        output_path = output_path or f"{self._tmp_base}/final"
        pending = self._build(plan)
        columns = plan.output_columns()
        self._finalize(pending, output_path, columns)
        return CompiledMRQuery(list(self._jobs), output_path, columns)

    # -------------------------------------------------------- utilities
    def _tmp(self, label: str) -> str:
        return f"{self._tmp_base}/{label}_{next(self._seq)}"

    def _job(self, label: str, sides: list, out: str, **fields) -> None:
        """One MR job over map-side ``sides`` (see :func:`_sides`)."""
        self._jobs.append(map_side_job(
            f"{label}_{next(self._seq)}", sides, out, **fields))

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
            return _Pending(
                [(paths, decoder, leaf)], InputLeaf(leaf),
                node.estimated_bytes, node.estimated_row_bytes,
            )
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
        left = self._build(node.left)
        right = self._build(node.right)
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
        self._job("join", _sides(left, make_emit("L", lk))
                  + _sides(right, make_emit("R", rk)), out,
                  reducer=reducer, num_reducers=reducers,
                  output_record_bytes=row_bytes)
        leaf = f"joined_{next(self._seq)}"
        return _Pending(
            [([out], lambda records: list(records), leaf)],
            InputLeaf(leaf), node.estimated_bytes, row_bytes,
        )

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
        self._job("agg", _sides(pending, agg.partial), out,
                  reducer=agg.reducer, num_reducers=reducers,
                  combiner=agg.combiner, output_record_bytes=row_bytes)

        def decoder(records):
            # A global aggregate over empty input never reaches the
            # reducer: the consuming job reads the empty output as one
            # empty split, and finds SQL's one row here.
            return sql_rows(agg, list(records))

        leaf = f"agged_{next(self._seq)}"
        return _Pending(
            [([out], decoder, leaf)],
            InputLeaf(leaf), node.estimated_bytes, row_bytes,
        )

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
        self._job(label, _sides(pending, emit), out, reducer=reducer,
                  output_record_bytes=row_bytes)
        leaf = f"{label}ed_{next(self._seq)}"
        return _Pending(
            [([out], lambda records: list(records), leaf)],
            InputLeaf(leaf), node.estimated_bytes, row_bytes,
        )

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
        self._job("final", _sides(pending, emit), output_path,
                  output_record_bytes=int(pending.est_row_bytes) or 64)


def _sides(pending: _Pending, emit: Callable) -> list:
    """The map side of ``pending`` feeding ``emit``: per input, its
    decoder into the fragment's leaf, then the fragment, a split at a
    time (like Hive's operator tree)."""
    fragment = pending.fragment

    def to_rows(decoder, leaf):
        return lambda records: execute_fragment(
            fragment, {leaf: decoder(records)})

    return [(paths, to_rows(decoder, leaf), emit)
            for paths, decoder, leaf in pending.inputs]
