"""Partitioners: map a record key to one of P partitions."""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Optional, Sequence

from .sorter import sort_key

__all__ = ["HashPartitioner", "RangePartitioner", "Partitioner"]

_INTS = frozenset((int,))
# Exact key types whose Python equality implies tagged equality, so
# equal keys have one ``_stable_hash`` (``1 == 1.0 == True`` hash alike)
# and a split may hash each distinct key once.
_MEMO_TYPES = frozenset((int, float, bool, str, bytes, type(None)))
_NAN_HASH = 0x7FF80000


def _stable_hash(key: Any) -> int:
    """Deterministic hash across runs (no PYTHONHASHSEED dependence).
    Keys equal under tagged equality hash alike: an integral float
    hashes as its int (``-1.0`` as ``-1``), and every NaN as one
    constant."""
    if isinstance(key, int):
        return key * 2654435761 & 0x7FFFFFFF
    if isinstance(key, float):
        if key != key:
            return _NAN_HASH
        if key.is_integer():
            return int(key) * 2654435761 & 0x7FFFFFFF
        return _stable_hash(hash(key) & 0x7FFFFFFF)
    if isinstance(key, str):
        h = 2166136261
        for ch in key:
            h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
        return h & 0x7FFFFFFF
    if isinstance(key, bytes):
        h = 2166136261
        for b in key:
            h = ((h ^ b) * 16777619) & 0xFFFFFFFF
        return h & 0x7FFFFFFF
    if isinstance(key, (tuple, list)):
        h = 1
        for item in key:
            h = (h * 31 + _stable_hash(item)) & 0x7FFFFFFF
        return h
    if key is None:
        return 0
    return hash(key) & 0x7FFFFFFF


def _empty_partitions(num_partitions: int) -> tuple[dict[int, list], list]:
    """``{p: []}`` for every partition, and the lists' bound appends."""
    lists = [[] for _ in range(num_partitions)]
    return dict(enumerate(lists)), [part.append for part in lists]


class Partitioner:
    """Interface: subclasses route keys to partitions."""

    def partition(self, key: Any, num_partitions: int) -> int:
        raise NotImplementedError

    def split(self, records: Sequence, num_partitions: int,
              key_kind: Optional[frozenset] = None) -> dict[int, list]:
        """Records partitioned by ``record[0]``: every partition in
        ``range(num_partitions)`` is present, each holding its records
        in their original order. One call per record list, so a task's
        output crosses into the shuffle layer once. ``key_kind`` is
        ``sorter.key_kind(records)`` when the caller has it; a
        partitioner that routes by key type reads it instead of
        scanning the keys again."""
        partitions, appends = _empty_partitions(num_partitions)
        partition = self.partition
        for record in records:
            appends[partition(record[0], num_partitions)](record)
        return partitions


class HashPartitioner(Partitioner):
    """MapReduce-default partitioning by stable key hash."""

    def partition(self, key: Any, num_partitions: int) -> int:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        return _stable_hash(key) % num_partitions

    def split(self, records: Sequence, num_partitions: int,
              key_kind: Optional[frozenset] = None) -> dict[int, list]:
        if type(self).partition is not HashPartitioner.partition:
            return super().split(records, num_partitions)
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        partitions, appends = _empty_partitions(num_partitions)
        if key_kind is None:
            key_kind = set(map(type, map(itemgetter(0), records)))
        if key_kind <= _INTS:
            # `_stable_hash` of an exact int (never a bool), inlined.
            for record in records:
                appends[(record[0] * 2654435761 & 0x7FFFFFFF)
                        % num_partitions](record)
        elif all(_MEMO_TYPES.issuperset(kind) if type(kind) is tuple
                 else kind in _MEMO_TYPES for kind in key_kind):
            # Each distinct key hashed once: keys that compare equal
            # (``1``, ``1.0``, ``True``, ``(1,)`` and ``(1.0,)``) share
            # one dict slot and one `_stable_hash`.
            keys = list(map(itemgetter(0), records))
            slots = dict.fromkeys(keys)
            for key in slots:
                slots[key] = appends[_stable_hash(key) % num_partitions]
            for append, record in zip(map(slots.__getitem__, keys),
                                      records):
                append(record)
        else:
            for record in records:
                appends[_stable_hash(record[0]) % num_partitions](record)
        return partitions


class RangePartitioner(Partitioner):
    """Partition by sorted key ranges (total-order partitioning).

    ``boundaries`` are P-1 sorted split points: keys <= boundaries[i]
    go to partition i; keys above the last boundary go to the final
    partition. Built from a sample histogram for skew-aware order-by
    (the Pig use case in paper section 5.3). "Sorted" and "<=" are the
    sorter's total order (``sort_key``), so NULL-bearing and mixed-type
    key columns partition instead of raising.
    """

    def __init__(self, boundaries: Sequence[Any]):
        self.boundaries = list(boundaries)
        self._tags = [sort_key(b) for b in self.boundaries]
        for a, b in zip(self._tags, self._tags[1:]):
            if b < a:
                raise ValueError("boundaries must be sorted")

    def partition(self, key: Any, num_partitions: int) -> int:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        idx = bisect.bisect_left(self._tags, sort_key(key))
        return min(idx, num_partitions - 1)

    @classmethod
    def from_sample(cls, sample: Sequence[Any],
                    num_partitions: int) -> "RangePartitioner":
        """Equi-depth boundaries from a key sample."""
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        ordered = sorted(sample, key=sort_key)
        if not ordered or num_partitions == 1:
            return cls([])
        boundaries = []
        for i in range(1, num_partitions):
            idx = min(len(ordered) - 1, (i * len(ordered)) // num_partitions)
            boundaries.append(ordered[idx])
        return cls(boundaries)
