"""Pig's translation into the relational kernels, and the in-memory
reference executor.

The kernels live in ``engines/relational.py`` with Hive's; what is
Pig's is the translation (:func:`aggregation`: a ``(func, field)``
pair to a kernel, COUNT counting every row) and the field-name forms
(:func:`tagged_keys`, :func:`hash_join`) the Tez and MapReduce
compilers ship into tasks and :func:`execute_script` runs in process
for differential tests (DESIGN.md "Operator kernels").
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from ...shuffle.sorter import sort_keys
from ..lowering import key_tuples
from ..relational import (
    AggKernel,
    Aggregation,
    build_table,
    kernel,
    order_rows,
    probe,
    rows_of,
)
from .model import PigScript, Relation

__all__ = ["execute_script", "key_tuples", "tagged_keys", "aggregation",
           "hash_join", "tuple_fields"]


def tuple_fields(schema: list[str]) -> list[tuple[str, int]]:
    """How ``relational.rows_of`` decodes stored tuples of ``schema``."""
    return [(name, i) for i, name in enumerate(schema)]


def tagged_keys(rows: list[dict], keys: list[str]) -> list[tuple]:
    """``key_tuples`` under tagged equality (``sort_key`` per field):
    what groups, joins, de-duplicates and orders rows."""
    if not keys:
        return [()] * len(rows)
    return list(zip(*[sort_keys(list(map(itemgetter(k), rows)))
                      for k in keys]))


def _kernel(out: str, func: str, field: Optional[str]) -> AggKernel:
    # COUNT counts every row, NULL or not (SQL's COUNT(*)).
    counts_rows = func == "count" or field is None
    return kernel(func, out, None if counts_rows else itemgetter(field))


def aggregation(keys: list[str],
                aggs: dict[str, tuple[str, Optional[str]]]) -> Aggregation:
    """GROUP ``keys`` computing ``aggs`` (output field -> ``(func,
    input field)``). A global aggregate over no rows yields no row."""
    return Aggregation(list(keys), list(map(itemgetter, keys)),
                       [_kernel(out, func, field)
                        for out, (func, field) in aggs.items()])


def hash_join(left: list[dict], right: list[dict], left_keys: list[str],
              right_keys: list[str], how: str,
              right_only: list[str]) -> list[dict]:
    """Build on the right, probe with the left, in row order; a match
    contributes the fields only the right side has."""
    table = build_table(tagged_keys(right, right_keys), [
        dict(zip(right_only, fields))
        for fields in key_tuples(right, right_only)])
    padding = dict.fromkeys(right_only) if how == "left" else None
    return probe(table, tagged_keys(left, left_keys), left, padding)


def _eval(rel: Relation, hdfs, cache: dict) -> list[dict]:
    if id(rel) in cache:
        return cache[id(rel)]
    p = rel.params
    if rel.op == "load":
        records = hdfs.read_file(p["path"])
        rows = rows_of(records, tuple_fields(rel.schema))
    elif rel.op == "filter":
        rows = [r for r in _eval(rel.parents[0], hdfs, cache)
                if p["predicate"](r)]
    elif rel.op == "foreach":
        rows = [p["fn"](r) for r in _eval(rel.parents[0], hdfs, cache)]
    elif rel.op == "flatten":
        rows = [
            out
            for r in _eval(rel.parents[0], hdfs, cache)
            for out in p["fn"](r)
        ]
    elif rel.op == "group":
        parent = _eval(rel.parents[0], hdfs, cache)
        groups: dict = {}
        raw: dict = {}
        for key, values, r in zip(tagged_keys(parent, p["keys"]),
                                  key_tuples(parent, p["keys"]), parent):
            groups.setdefault(key, []).append(r)
            raw[key] = values
        rows = [
            {"group": raw[g] if len(p["keys"]) > 1 else raw[g][0],
             "bag": bag}
            for g, bag in groups.items()
        ]
    elif rel.op == "aggregate":
        rows = aggregation(p["keys"], p["aggs"]).full(
            _eval(rel.parents[0], hdfs, cache))
    elif rel.op == "join":
        rows = hash_join(
            _eval(rel.parents[0], hdfs, cache),
            _eval(rel.parents[1], hdfs, cache),
            p["left_keys"], p["right_keys"], p["how"],
            [c for c in rel.parents[1].schema
             if c not in rel.parents[0].schema],
        )
    elif rel.op == "union":
        rows = (
            _eval(rel.parents[0], hdfs, cache)
            + _eval(rel.parents[1], hdfs, cache)
        )
    elif rel.op == "distinct":
        parent = _eval(rel.parents[0], hdfs, cache)
        first: dict = {}
        for key, r in zip(tagged_keys(parent, rel.schema), parent):
            first.setdefault(key, r)
        rows = list(first.values())
    elif rel.op == "order":
        rows = order_rows(_eval(rel.parents[0], hdfs, cache),
                          [(k, p["ascending"]) for k in p["keys"]])
    elif rel.op == "limit":
        rows = _eval(rel.parents[0], hdfs, cache)[: p["n"]]
    else:
        raise ValueError(f"unknown op {rel.op}")
    cache[id(rel)] = rows
    return rows


def execute_script(script: PigScript, hdfs) -> dict[str, list[dict]]:
    """Evaluate all stores; returns {store path: rows}."""
    script.validate()
    cache: dict = {}
    return {
        path: _eval(rel, hdfs, cache)
        for rel, path in script.stores
    }
