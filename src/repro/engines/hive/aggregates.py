"""Aggregate kernels shared by all Hive executors.

Each aggregate is an ``(init, input, update, merge, final)`` kernel of
closures, chosen once per fragment from its name, its DISTINCT flag and
its argument - never per row. The same kernels drive the in-memory
reference, map-side partial aggregation and reduce-side final
aggregation (partial aggregates are what make distributed GROUP BY
cheap), and the three go through one grouping pass
(:func:`partial_aggregate`) and one merge (:func:`aggregate_finisher`).
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Any, Callable, NamedTuple, Optional

from ...shuffle.sorter import sort_keys
from .ast_nodes import FuncCall, Star

__all__ = ["AggKernel", "agg_kernel", "partial_aggregate", "state_merger",
           "aggregate_finisher", "merge_aggregate_groups"]


class AggKernel(NamedTuple):
    key: str                                # output column: agg_key()
    init: Callable[[], Any]
    input: Optional[Callable[[dict], Any]]  # row -> value; None: every row
    update: Callable[[Any, Any], Any]       # (state, value) -> state
    merge: Callable[[Any, Any], Any]        # (state, state) -> state
    final: Callable[[Any], Any]


def _identity(state):
    return state


def _null_first(fn):
    """Merge of two states where NULL means "no value seen yet"."""
    def merge(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return fn(a, b)
    return merge


def _count(state, value):
    return state if value is None else state + 1


def _sum(state, value):
    if value is None:
        return state
    return value if state is None else state + value


def _avg(state, value):
    if value is None:
        return state
    return (state[0] + value, state[1] + 1)


def _min(state, value):
    if value is None:
        return state
    return value if state is None or value < state else state


def _max(state, value):
    if value is None:
        return state
    return value if state is None or value > state else state


def _distinct(state, value):
    if value is not None:
        state.add(value)
    return state


def _none():
    return None


# name -> (init, update, merge, final)
_PLAIN = {
    "count": (int, _count, operator.add, _identity),
    "sum": (_none, _sum, _null_first(operator.add), _identity),
    "avg": (lambda: (0.0, 0), _avg,
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
            lambda s: s[0] / s[1] if s[1] else None),
    "min": (_none, _min, _null_first(min), _identity),
    "max": (_none, _max, _null_first(max), _identity),
}
# name -> final over the set of distinct non-NULL values
_DISTINCT_FINAL = {
    "count": len,
    "sum": lambda s: sum(s) if s else None,
    "avg": lambda s: sum(s) / len(s) if s else None,
    "min": lambda s: min(s) if s else None,
    "max": lambda s: max(s) if s else None,
}


def agg_kernel(agg: FuncCall) -> AggKernel:
    """Resolve one aggregate call to its closures."""
    if agg.name not in _PLAIN:
        raise ValueError(f"unknown aggregate {agg.name!r}")
    star = not agg.args or isinstance(agg.args[0], Star)
    value_of = None if star else agg.args[0].compile()
    if agg.distinct:
        return AggKernel(agg.agg_key(), set, value_of, _distinct,
                         operator.or_, _DISTINCT_FINAL[agg.name])
    init, update, merge, final = _PLAIN[agg.name]
    if star and agg.name == "count":
        update = lambda state, _value: state + 1
    return AggKernel(agg.agg_key(), init, value_of, update, merge, final)


def partial_aggregate(rows: list[dict],
                      group_items: list[tuple[str, Any]],
                      aggs: list[FuncCall]) -> list[tuple]:
    """The grouping pass: ``[(group values, partial states)]`` in
    first-seen order, every row folded into its group's states in row
    order (float sums depend on it). Groups are told apart by the
    *tagged* values (``sort_key``: True is not 1, 1 is 1.0, NULLs
    group), and leave as the first row's raw values."""
    kernels = [agg_kernel(a) for a in aggs]
    columns = [list(map(expr.compile(), rows)) for _n, expr in group_items]
    values = zip(*columns) if columns else repeat(())
    keys = zip(*map(sort_keys, columns)) if columns else repeat(())
    inputs = zip(*[
        repeat(1) if k.input is None else map(k.input, rows) for k in kernels
    ]) if kernels else repeat(())
    updates = [(i, k.update) for i, k in enumerate(kernels)]
    groups: dict[tuple, tuple] = {}
    # `rows` ends the zip: a global COUNT(*) has only repeats beside it.
    for _row, key, raw, args in zip(rows, keys, values, inputs):
        group = groups.get(key)
        if group is None:
            group = groups[key] = (raw, [k.init() for k in kernels])
        state = group[1]
        for i, update in updates:
            state[i] = update(state[i], args[i])
    return [(raw, tuple(state)) for raw, state in groups.values()]


def _merger(kernels: list[AggKernel]) -> Callable[[list], Any]:
    merges = [k.merge for k in kernels]

    def merge_states(states):
        if not states:
            return [k.init() for k in kernels]
        merged = states[0]
        for state in states[1:]:
            merged = [m(a, b) for m, a, b in zip(merges, merged, state)]
        return merged

    return merge_states


def state_merger(aggs: list[FuncCall]) -> Callable[[list], Any]:
    """``[partial states, ...] -> merged states``, left to right."""
    return _merger([agg_kernel(a) for a in aggs])


def aggregate_finisher(group_items: list[tuple[str, Any]],
                       aggs: list[FuncCall]) -> Callable[[tuple, list], dict]:
    """``(group values, [partial states, ...]) -> final row``."""
    kernels = [agg_kernel(a) for a in aggs]
    names = [name for name, _e in group_items]
    keys = [k.key for k in kernels]
    finals = [(k.key, k.final) for k in kernels if k.final is not _identity]
    merge_states = _merger(kernels)

    def finish(values, states):
        row = dict(zip(names, values))
        row.update(zip(keys, merge_states(states)))
        for key, final in finals:
            row[key] = final(row[key])
        return row

    return finish


def merge_aggregate_groups(
    grouped: list[tuple],
    group_items: list[tuple[str, Any]],
    aggs: list[FuncCall],
    include_empty_global: bool = False,
) -> list[dict]:
    """Reduce-side merge of partial states into final rows.

    ``grouped`` is ``[(group_values, [state, ...]), ...]`` as produced
    by a grouped shuffle input. A global aggregate over no input still
    yields its one row (COUNT 0, SUM NULL) when asked to.
    """
    finish = aggregate_finisher(group_items, aggs)
    if not grouped and include_empty_global and not group_items:
        return [finish((), [])]
    return [finish(values, states) for values, states in grouped]
