"""The relational row kernels Hive and Pig both run (paper 5.2, 5.3).

HiveQL and Pig Latin are two front-ends on one library: a grouping, a
join or a sort means the same thing in both, so each is written once
here, and each front-end only translates its own operators into these
kernels (Hive a ``FuncCall``, Pig a ``(func, field)`` pair). Where the
two languages differ, the front-end picks the kernel or adds the row;
nothing here knows who called it. The same kernels run in the
in-memory references, on the map side, in the combiners and on the
reduce side, on Tez and on MapReduce alike.

Every kernel resolves its getters and closures once per call and then
touches each row once; rows group, join and order under tagged
equality (``sort_key`` of each value: ``True`` is not ``1``, ``1`` is
``1.0``, NULLs group), and a group leaves as its first row's raw values.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import count, repeat
from operator import itemgetter
from typing import Any, Callable, NamedTuple, Optional

from ..shuffle.sorter import sort_keys

__all__ = ["rows_of", "AggKernel", "kernel", "Aggregation", "build_table",
           "probe", "join_reducer", "order_rows"]


def rows_of(records: list[tuple], fields: list[tuple[str, int]]
            ) -> list[dict]:
    """Decode stored tuples into row dicts: ``row[name] = record[i]``
    for each ``(name, i)`` of ``fields``."""
    rows = []
    for rec in records:
        # Not a comprehension or ``dict(zip(...))`` per row: on CPython
        # 3.11 either costs 40 % more than this loop.
        row = {}
        for name, i in fields:
            row[name] = rec[i]
        rows.append(row)
    return rows


# ============================================================ aggregates
class AggKernel(NamedTuple):
    key: str                                # output column
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


def _none():
    return None


# name -> (init, update, merge, final)
_KERNELS = {
    "count": (int, _count, operator.add, _identity),
    "sum": (_none, _sum, _null_first(operator.add), _identity),
    "avg": (lambda: (0.0, 0), _avg,
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
            lambda s: s[0] / s[1] if s[1] else None),
    "min": (_none, _min, _null_first(min), _identity),
    "max": (_none, _max, _null_first(max), _identity),
}


def kernel(func: str, key: str,
           input: Optional[Callable[[dict], Any]]) -> AggKernel:
    """The ``count`` / ``sum`` / ``avg`` / ``min`` / ``max`` kernel
    writing column ``key``. With ``input`` None every row counts as the
    value 1 (``COUNT(*)``); otherwise a NULL input is skipped."""
    init, update, merge, final = _KERNELS[func]
    return AggKernel(key, init, input, update, merge, final)


def _fold(k: AggKernel, groups: list[int], firsts: list[int],
          rows: list[dict]) -> dict:
    """One kernel's states, keyed by their group's first row: each
    row's input folded into its group's state in row order."""
    inputs = repeat(1) if k.input is None else map(k.input, rows)
    update = k.update
    if update is _count:
        if k.input is None:
            return Counter(groups)
        counts = dict.fromkeys(firsts, 0)
        for group, value in zip(groups, inputs):
            if value is not None:
                counts[group] += 1
        return counts
    init = k.init
    states = {first: init() for first in firsts}
    if update is _sum:
        for group, value in zip(groups, inputs):
            if value is not None:
                state = states[group]
                states[group] = value if state is None else state + value
        return states
    for group, value in zip(groups, inputs):
        states[group] = update(states[group], value)
    return states


class Aggregation:
    """GROUP BY ``names`` (``getters`` read them from a row) computing
    one kernel per output column. Full aggregation is :meth:`partial`
    followed by :meth:`finish` over one state per group, so map side,
    combiner, reduce side and reference run the same code."""

    def __init__(self, names: list[str], getters: list[Callable],
                 kernels: list[AggKernel]):
        self.names = names
        self.getters = getters
        self.kernels = kernels
        self._merges = [k.merge for k in kernels]
        self._keys = [k.key for k in kernels]
        self._finals = [(k.key, k.final) for k in kernels
                        if k.final is not _identity]

    def partial(self, rows: list[dict]) -> list[tuple]:
        """The grouping pass: ``[(group values, partial states)]`` in
        first-seen order, every row folded into its group's states in
        row order (float sums depend on it).

        One pass gives each row its group - the index of the group's
        first row - and then each kernel folds its column of inputs
        on its own, COUNT and SUM inline: a kernel's states see the
        rows in the same order as a row-at-a-time fold over all
        kernels would."""
        columns = [list(map(get, rows)) for get in self.getters]
        if len(columns) == 1:
            keys = sort_keys(columns[0])
        elif columns:
            keys = zip(*map(sort_keys, columns))
        else:
            keys = repeat((), len(rows))
        first_of: dict = {}
        groups = list(map(first_of.setdefault, keys, count()))
        firsts = list(first_of.values())
        folded = [_fold(k, groups, firsts, rows) for k in self.kernels]
        values = zip(*[list(map(column.__getitem__, firsts))
                       for column in columns]) if columns \
            else repeat((), len(firsts))
        states = zip(*[list(map(by_first.__getitem__, firsts))
                       for by_first in folded]) if folded \
            else repeat((), len(firsts))
        return list(zip(values, states))

    def merge(self, states: list) -> list:
        """``[partial states, ...] -> merged states``, left to right."""
        if not states:
            return [k.init() for k in self.kernels]
        merged = states[0]
        for state in states[1:]:
            merged = [m(a, b) for m, a, b in zip(self._merges, merged, state)]
        return merged

    def finish(self, values: tuple, states: list) -> dict:
        """``(group values, [partial states, ...]) -> final row``."""
        row = dict(zip(self.names, values))
        row.update(zip(self._keys, self.merge(states)))
        for key, final in self._finals:
            row[key] = final(row[key])
        return row

    def merge_groups(self, grouped: list[tuple]) -> list[dict]:
        """Reduce-side merge: ``[(group values, [states, ...])]``, as a
        grouped shuffle input delivers them, into final rows."""
        finish = self.finish
        return [finish(values, states) for values, states in grouped]

    def full(self, rows: list[dict]) -> list[dict]:
        """Full aggregation of rows: one state per group, finished."""
        finish = self.finish
        return [finish(values, [state])
                for values, state in self.partial(rows)]

    def reducer(self, key: tuple, states: list) -> list[dict]:
        """The MapReduce reducer: one final row per group."""
        return [self.finish(key, states)]

    def combiner(self, key: tuple, states: list) -> list[tuple]:
        """The MapReduce combiner: a group's partial states merged."""
        return [(key, tuple(self.merge(states)))]


# ================================================================= joins
def build_table(keys: list, rows: list) -> dict:
    """A hash join's build side: tagged key -> its rows, in row order."""
    table: dict = {}
    for key, row in zip(keys, rows):
        table.setdefault(key, []).append(row)
    return table


def probe(table: dict, keys: list, rows: list[dict],
          padding: Optional[dict]) -> list[dict]:
    """Probe ``table`` with ``rows`` in row order; a match contributes
    its fields, an unmatched row survives with ``padding`` (a LEFT
    join's NULLs) or, when it is None, not at all."""
    matches_of = table.get
    out: list[dict] = []
    for key, row in zip(keys, rows):
        matches = matches_of(key)
        if matches:
            for match in matches:
                out.append({**row, **match})
        elif padding is not None:
            out.append({**row, **padding})
    return out


def join_reducer(padding: Optional[dict],
                 project: Optional[list[str]] = None) -> Callable:
    """The reduce-side join of rows tagged ``"L"`` / ``"R"`` under one
    key, matched as :func:`probe` matches them; a right row contributes
    only the ``project`` fields when given."""
    def reducer(_key, tagged):
        left_rows, right_rows = [], []
        for tag, row in tagged:
            (left_rows if tag == "L" else right_rows).append(row)
        if right_rows:
            if project is not None:
                right_rows = [{c: m[c] for c in project} for m in right_rows]
            return [{**l, **r} for l in left_rows for r in right_rows]
        if padding is None:
            return []
        return [{**l, **padding} for l in left_rows]
    return reducer


# ================================================================ orders
def order_rows(rows: list[dict], keys: list[tuple[str, bool]]
               ) -> list[dict]:
    """Stable sort under tagged order by ``[(field, ascending), ...]``,
    the first key most significant; no keys keep the rows' order."""
    order = range(len(rows))
    for name, ascending in reversed(keys):
        tagged = list(sort_keys(list(map(itemgetter(name), rows))))
        order = sorted(order, key=tagged.__getitem__, reverse=not ascending)
    return list(map(rows.__getitem__, order))
