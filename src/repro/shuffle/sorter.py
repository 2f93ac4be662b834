"""Sort / merge / group primitives for the shuffle data plane.

Keys may be arbitrary comparable Python values. For mixed-type safety
(None vs str, say) sorting uses a type-tagged key so the data plane
never throws on heterogeneous keys — matching Hadoop's bytewise
comparator behaviour of "everything is comparable".

Building a tag per record is the price of heterogeneous keys. When
every key of a list has the same exact native type the tagged order
*is* the native order (DESIGN.md "Data-plane record kernels"), so the
list kernels below look at the key types once and then sort and group
on the bare key at C speed; anything else takes the tagged path.
"""

from __future__ import annotations

import heapq
from itertools import chain, groupby
from operator import itemgetter
from typing import Any, Iterable, Iterator

__all__ = ["sort_key", "sort_keys", "sort_records", "merge_sorted_runs",
           "group_by_key", "merge_and_group"]

_SCALAR_TAGS = {bool: "bool", int: "num", float: "num", str: "str",
                bytes: "bytes"}


def sort_key(key: Any):
    """Total order over heterogeneous keys: by type name, then value."""
    tag = _SCALAR_TAGS.get(type(key))
    if tag is not None:
        return (tag, key)
    if key is None:
        return ("", 0)
    if isinstance(key, tuple):
        return ("tuple", tuple(map(sort_key, key)))
    for base in type(key).__mro__[1:]:      # IntEnum, a str subclass ...
        tag = _SCALAR_TAGS.get(base)
        if tag is not None:
            return (tag, key)
    return ("obj", str(key))


def sort_keys(keys: list) -> Iterable:
    """``sort_key`` of every key of a list, in order. A list of plain
    scalars is tagged by type lookup at C speed; one NULL, tuple,
    subclass or object sends the whole list through ``sort_key``."""
    tags = list(map(_SCALAR_TAGS.get, map(type, keys)))
    return map(sort_key, keys) if None in tags else zip(tags, keys)


_KEY = itemgetter(0)
_VALUE = itemgetter(1)


def _kv_sort_key(kv: tuple) -> Any:
    return sort_key(kv[0])


# Exact key types whose native order equals their tagged order: one tag
# for the whole list, and `<` / `==` on the values is what the tagged
# tuples compare by. Never bool ("bool" < "num", but False == 0), None
# or a subclass (its comparisons are its own).
_NATIVE_SCALARS = ({int}, {float}, {int, float}, {str}, {bytes})
_NATIVE_FIELDS = frozenset((int, float, str, bytes))


def _native_order(kvs: list) -> bool:
    """Whether the tagged order of these records' keys is the native one."""
    kinds = set(map(type, map(_KEY, kvs)))
    if kinds == {tuple}:
        # Flat tuples of one per-position signature compare field by
        # field exactly as their tag tuples do.
        signatures = {tuple(map(type, kv[0])) for kv in kvs}
        return len(signatures) == 1 \
            and _NATIVE_FIELDS.issuperset(signatures.pop())
    return kinds in _NATIVE_SCALARS


def sort_records(kvs: Iterable[tuple]) -> list[tuple]:
    """Stable sort of (key, value) pairs by key."""
    kvs = list(kvs)
    if len(kvs) > 1:
        kvs.sort(key=_KEY if _native_order(kvs) else _kv_sort_key)
    return kvs


def merge_sorted_runs(runs: Iterable[Iterable[tuple]]) -> Iterator[tuple]:
    """K-way merge of key-sorted runs (the reduce-side merge)."""
    return heapq.merge(*runs, key=_kv_sort_key)


def group_by_key(sorted_kvs: Iterable[tuple]) -> Iterator[tuple]:
    """Yield (key, [values...]) groups from a key-sorted stream."""
    for _tag, group in groupby(sorted_kvs, _kv_sort_key):
        group = list(group)
        yield group[0][0], [value for _key, value in group]


def merge_and_group(runs: Iterable[Iterable[tuple]]) -> list[tuple]:
    """Merge key-sorted runs into ``[(key, [values...]), ...]`` in key
    order, values in run order: what a reduce task (or a combiner, with
    one unsorted run) consumes. A stable sort of the concatenated runs
    is the merge: Timsort gallops over the pre-sorted runs."""
    kvs = list(chain.from_iterable(runs))
    if len(kvs) > 1 and _native_order(kvs):
        kvs.sort(key=_KEY)
        return [(key, list(map(_VALUE, group)))
                for key, group in groupby(kvs, _KEY)]
    kvs.sort(key=_kv_sort_key)
    return list(group_by_key(kvs))
