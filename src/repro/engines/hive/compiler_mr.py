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
from .aggregates import (
    aggregate_finisher,
    merge_aggregate_groups,
    partial_aggregate,
    state_merger,
)
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
from .reference import rows_from_tuples, sort_rows

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
            alias = node.alias
            all_columns = list(node.table.columns)
            needed = list(node.needed_columns) \
                if node.needed_columns is not None else None

            def decoder(records, _a=alias, _c=all_columns, _n=needed):
                return rows_from_tuples(records, _a, _c, _n)

            leaf = f"scan_{alias}"
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
            return self._build_sort(node, limit=None)
        if isinstance(node, Limit):
            if isinstance(node.child, Sort):
                return self._build_sort(node.child, limit=node.n)
            return self._build_generic_limit(node)
        raise TypeError(f"cannot compile {type(node).__name__}")

    def _build_join(self, node: Join) -> _Pending:
        left = self._build(node.left)
        right = self._build(node.right)
        out = self._tmp("join")
        est = node.left.estimated_bytes + node.right.estimated_bytes
        reducers = reducers_for(est)
        lk, rk = node.left_key, node.right_key
        padding = dict.fromkeys(node.right.output_columns()) \
            if node.how == "left" else None

        # Tag each side in the map output so the reducer can split.
        def make_emit(tag, key_expr):
            key_of = key_expr.compile()

            def emit(rows):
                return list(zip(map(key_of, rows), zip(repeat(tag), rows)))
            return emit

        def reducer(key, tagged):
            left_rows, right_rows = [], []
            for tag, row in tagged:
                (left_rows if tag == "L" else right_rows).append(row)
            if right_rows:
                return [{**lrow, **rrow}
                        for lrow in left_rows for rrow in right_rows]
            if padding is None:
                return []
            return [{**lrow, **padding} for lrow in left_rows]

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
        group_items, aggs = node.group_items, node.aggs
        reducers = 1 if not group_items else reducers_for(
            max(node.estimated_bytes, node.child.estimated_bytes / 4)
        )

        def emit(rows, _g=group_items, _a=aggs):
            return partial_aggregate(rows, _g, _a)

        finish = aggregate_finisher(group_items, aggs)
        merge_states = state_merger(aggs)

        def reducer(group_key, states):
            return [finish(group_key, states)]

        def combiner(group_key, states):
            # Map-side combining: merge partial states per group.
            return [(group_key, tuple(merge_states(states)))]

        row_bytes = int(node.estimated_row_bytes) or 32
        self._job("agg", _sides(pending, emit), out, reducer=reducer,
                  num_reducers=reducers, combiner=combiner,
                  output_record_bytes=row_bytes)

        def decoder(records, _g=group_items, _a=aggs):
            # A global aggregate over empty input never reaches the
            # reducer, and SQL still wants its one row (COUNT 0, SUM
            # NULL): the consuming job reads the empty output as one
            # empty split, and finds that row here.
            return list(records) or merge_aggregate_groups(
                [], _g, _a, include_empty_global=True)

        leaf = f"agged_{next(self._seq)}"
        return _Pending(
            [([out], decoder, leaf)],
            InputLeaf(leaf), node.estimated_bytes, row_bytes,
        )

    def _build_sort(self, node: Sort, limit: Optional[int]) -> _Pending:
        pending = self._build(node.child)
        out = self._tmp("sort")
        keys = node.keys

        def emit(rows, _k=keys, _l=limit):
            ordered = sort_rows(rows, _k)
            if _l is not None:
                ordered = ordered[:_l]
            return [(0, row) for row in ordered]

        def reducer(_key, rows, _k=keys, _l=limit):
            ordered = sort_rows(list(rows), _k)
            if _l is not None:
                ordered = ordered[:_l]
            return ordered

        row_bytes = int(node.estimated_row_bytes) or 64
        self._job("sort", _sides(pending, emit), out, reducer=reducer,
                  output_record_bytes=row_bytes)
        leaf = f"sorted_{next(self._seq)}"
        return _Pending(
            [([out], lambda records: list(records), leaf)],
            InputLeaf(leaf), node.estimated_bytes, row_bytes,
        )

    def _build_generic_limit(self, node: Limit) -> _Pending:
        pending = self._build(node.child)
        out = self._tmp("limit")
        n = node.n

        def emit(rows, _n=n):
            return [(0, row) for row in rows[:_n]]

        def reducer(_key, rows, _n=n):
            return list(rows)[:_n]

        row_bytes = int(node.estimated_row_bytes) or 64
        self._job("limit", _sides(pending, emit), out, reducer=reducer,
                  output_record_bytes=row_bytes)
        leaf = f"limited_{next(self._seq)}"
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
