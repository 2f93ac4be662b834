"""Pig-style dataflow model (paper 5.3).

A :class:`PigScript` builds a DAG of relations with the PigLatin
operator set: LOAD / FILTER / FOREACH(GENERATE) / GROUP / JOIN / UNION /
DISTINCT / ORDER BY / LIMIT / STORE. Relations are plain nodes that may
feed *multiple* consumers and a script may STORE several relations —
the multi-output DAG shape the paper says MapReduce forced workarounds
for and Tez models directly.

Rows are dicts keyed by the relation's schema fields.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Callable, Optional, Sequence

__all__ = ["PigScript", "Relation", "AGG_FUNCS"]

AGG_FUNCS = ("count", "sum", "avg", "min", "max")

# Read by both compilers: every shuffle runs Pig's default parallelism,
# and ORDER BY and skewed joins sample one row in ``SAMPLE_RATE``.
DEFAULT_PARALLEL = 4
SAMPLE_RATE = 10


class Relation:
    """One node of the dataflow DAG."""

    _seq = itertools.count(1)

    def __init__(self, script: "PigScript", op: str, schema: list[str],
                 parents: Sequence["Relation"] = (), **params):
        self.script = script
        self.op = op
        self.schema = list(schema)
        self.parents = list(parents)
        self.params = params
        self.name = f"{op}_{next(Relation._seq)}"
        script._relations.append(self)

    # ------------------------------------------------------------- builders
    def filter(self, predicate: Callable[[dict], bool]) -> "Relation":
        return Relation(self.script, "filter", self.schema, [self],
                        predicate=predicate)

    def foreach(self, fn: Callable[[dict], dict],
                schema: list[str]) -> "Relation":
        """FOREACH ... GENERATE: per-row transformation."""
        return Relation(self.script, "foreach", schema, [self], fn=fn)

    def flatten(self, fn: Callable[[dict], list],
                schema: list[str]) -> "Relation":
        """FOREACH ... GENERATE FLATTEN: one row to many."""
        return Relation(self.script, "flatten", schema, [self], fn=fn)

    def group_by(self, keys: Sequence[str]) -> "Relation":
        """GROUP ... BY: rows of {group: key-tuple, bag: [rows]}."""
        keys = list(keys)
        missing = [k for k in keys if k not in self.schema]
        if missing:
            raise ValueError(f"unknown group keys {missing}")
        return Relation(self.script, "group", ["group", "bag"], [self],
                        keys=keys)

    def aggregate(self, keys: Sequence[str],
                  aggs: dict[str, tuple[str, Optional[str]]]) -> "Relation":
        """Algebraic aggregation (uses combiners / partial states).

        ``aggs`` maps output field -> (func, input field), func one of
        count/sum/avg/min/max; input field None for count(*).
        """
        keys = list(keys)
        for out, (func, field) in aggs.items():
            if func not in AGG_FUNCS:
                raise ValueError(f"unknown aggregate {func!r}")
            if field is not None and field not in self.schema:
                raise ValueError(f"unknown field {field!r}")
        schema = keys + list(aggs)
        return Relation(self.script, "aggregate", schema, [self],
                        keys=keys, aggs=dict(aggs))

    def join(self, other: "Relation", left_keys: Sequence[str],
             right_keys: Sequence[str], how: str = "inner",
             skewed: bool = False) -> "Relation":
        left_keys, right_keys = list(left_keys), list(right_keys)
        if len(left_keys) != len(right_keys):
            raise ValueError("join key arity mismatch")
        overlap = set(self.schema) & set(other.schema)
        schema = self.schema + [
            c for c in other.schema if c not in overlap
        ]
        return Relation(self.script, "join", schema, [self, other],
                        left_keys=left_keys, right_keys=right_keys,
                        how=how, skewed=skewed)

    def union(self, other: "Relation") -> "Relation":
        if set(self.schema) != set(other.schema):
            raise ValueError("UNION requires identical schemas")
        return Relation(self.script, "union", self.schema, [self, other])

    def distinct(self) -> "Relation":
        return Relation(self.script, "distinct", self.schema, [self])

    def order_by(self, keys: Sequence[str], ascending: bool = True,
                 parallel: int = 4) -> "Relation":
        """ORDER BY with sample-based range partitioning (paper 5.3):
        a histogram of a key sample drives skew-aware partitioning."""
        keys = list(keys)
        missing = [k for k in keys if k not in self.schema]
        if missing:
            raise ValueError(f"unknown order keys {missing}")
        return Relation(self.script, "order", self.schema, [self],
                        keys=keys, ascending=ascending, parallel=parallel)

    def limit(self, n: int) -> "Relation":
        if n < 0:
            raise ValueError("limit must be >= 0")
        return Relation(self.script, "limit", self.schema, [self], n=n)

    def store(self, path: str) -> "Relation":
        return self.script.store(self, path)

    # ---------------------------------------------------------------- misc
    def consumers(self) -> list["Relation"]:
        return [
            r for r in self.script._relations if self in r.parents
        ]

    def __repr__(self) -> str:
        return f"<Relation {self.name} schema={self.schema}>"


class PigScript:
    """A dataflow under construction + its stores."""

    def __init__(self, name: str = "pig"):
        self.name = name
        self._relations: list[Relation] = []
        self.stores: list[tuple[Relation, str]] = []

    def load(self, path: str, schema: list[str],
             row_bytes: int = 64) -> Relation:
        return Relation(self, "load", schema, [], path=path,
                        row_bytes=row_bytes)

    def store(self, relation: Relation, path: str) -> Relation:
        if relation.script is not self:
            raise ValueError("relation belongs to another script")
        self.stores.append((relation, path))
        return relation

    # ---------------------------------------------------------- validation
    def validate(self) -> None:
        if not self.stores:
            raise ValueError("script has no STORE")
        # Reachability: everything stored must trace back to loads.
        seen: set[int] = set()
        stack = [rel for rel, _p in self.stores]
        while stack:
            rel = stack.pop()
            if id(rel) in seen:
                continue
            seen.add(id(rel))
            if rel.op == "load":
                continue
            if not rel.parents:
                raise ValueError(f"{rel.name}: non-load relation "
                                 "without parents")
            stack.extend(rel.parents)

    def live_relations(self) -> list[Relation]:
        """Relations reachable from stores, in definition order."""
        live: set[int] = set()
        stack = [rel for rel, _p in self.stores]
        while stack:
            rel = stack.pop()
            if id(rel) in live:
                continue
            live.add(id(rel))
            stack.extend(rel.parents)
        return [r for r in self._relations if id(r) in live]

    def consumer_counts(self) -> Counter:
        """id(relation) -> how many live operators and stores read it:
        a relation read more than once is *shared*."""
        counts = Counter(id(parent) for rel in self.live_relations()
                         for parent in rel.parents)
        counts.update(id(rel) for rel, _path in self.stores)
        return counts
