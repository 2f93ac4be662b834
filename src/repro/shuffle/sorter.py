"""Sort / merge / group primitives for the shuffle data plane.

Keys may be arbitrary comparable Python values. For mixed-type safety
(None vs str, say) sorting uses a type-tagged key so the data plane
never throws on heterogeneous keys — matching Hadoop's bytewise
comparator behaviour of "everything is comparable".

Building a tag per record is the price of heterogeneous keys. When
every key of a list has the same exact native type the tagged order
*is* the native order (DESIGN.md "Data-plane record kernels"), so the
list kernels below sort and group on the bare key at C speed there and
take the tagged path everywhere else. What decides is the list's *key
kind*: a spill computes it once over a task's whole output
(``ShuffleService.spill``) and stamps it on every SpillRef, so a
reducer's merge takes the union of its runs' kinds instead of looking
at the keys again.
"""

from __future__ import annotations

import heapq
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

__all__ = ["sort_key", "sort_keys", "sort_records", "merge_sorted_runs",
           "group_by_key", "merge_and_group", "key_kind", "native",
           "record_order"]

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
_TUPLES = {tuple}


def key_kind(kvs: Sequence[tuple]) -> frozenset:
    """The *kind* of these records' keys: the frozenset of their exact
    types, where keys that are all tuples give their per-position type
    signatures (``(int, str)``) instead of ``tuple``. One C-speed pass
    over the keys (two when they are tuples). The kind of several lists
    is the union of theirs, a superset of every key's type."""
    kinds = frozenset(map(type, map(_KEY, kvs)))
    if kinds == _TUPLES:
        return frozenset(map(tuple, map(map, repeat(type), map(_KEY, kvs))))
    return kinds


def native(kind: frozenset) -> bool:
    """Whether keys of this kind sort and group natively exactly as
    they do tagged: one of the scalar families, or flat tuples of one
    signature of native fields, which compare field by field exactly as
    their tag tuples do. Every non-empty subset of a native kind is
    native, so a union that is native says the keys under it are."""
    if len(kind) == 1:
        (only,) = kind
        if type(only) is tuple:
            return _NATIVE_FIELDS.issuperset(only)
    return kind in _NATIVE_SCALARS


def record_order(kind: frozenset) -> Callable[[tuple], Any]:
    """The sort key that orders (key, value) records whose keys are of
    this kind: the bare key when the kind is native, its tag if not."""
    return _KEY if native(kind) else _kv_sort_key


def sort_records(kvs: Iterable[tuple]) -> list[tuple]:
    """Stable sort of (key, value) pairs by key, into a new list."""
    kvs = list(kvs)
    if len(kvs) > 1:
        kvs.sort(key=record_order(key_kind(kvs)))
    return kvs


def merge_sorted_runs(runs: Iterable[Iterable[tuple]]) -> Iterator[tuple]:
    """K-way merge of key-sorted runs (the reduce-side merge)."""
    return heapq.merge(*runs, key=_kv_sort_key)


def group_by_key(sorted_kvs: Iterable[tuple]) -> Iterator[tuple]:
    """Yield (key, [values...]) groups from a key-sorted stream."""
    for _tag, group in groupby(sorted_kvs, _kv_sort_key):
        group = list(group)
        yield group[0][0], [value for _key, value in group]


def merge_and_group(runs: Iterable[Iterable[tuple]],
                    kinds: Optional[Sequence] = None) -> list[tuple]:
    """Merge key-sorted runs into ``[(key, [values...]), ...]`` in key
    order, values in run order: what a reduce task (or a combiner, with
    one unsorted run) consumes. A stable sort of the concatenated runs
    is the merge: Timsort gallops over the pre-sorted runs.

    ``kinds`` are the runs' key kinds as their SpillRefs carry them.
    When none is unknown (``None``) their union decides the path; the
    keys are scanned only otherwise. A non-native union over native
    keys only costs the tagged path, which orders and groups alike."""
    kvs = list(chain.from_iterable(runs))
    if len(kvs) > 1:
        if kinds is None or None in kinds:
            kind = key_kind(kvs)
        else:
            kind = frozenset().union(*kinds)
        if native(kind):
            kvs.sort(key=_KEY)
            return [(key, list(map(_VALUE, group)))
                    for key, group in groupby(kvs, _KEY)]
    kvs.sort(key=_kv_sort_key)
    return list(group_by_key(kvs))
