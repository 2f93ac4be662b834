"""HDFS data model: files, blocks, replicas.

Blocks hold *real* Python records (so downstream computation is
verifiable) plus a byte size used by the cost model. Replicas live on
cluster nodes; a replica on a dead node is unreadable.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import is_, itemgetter
from typing import AbstractSet, Any, Iterable, Optional, Sequence

__all__ = ["DataBlock", "DfsFile", "estimate_record_bytes",
           "estimate_records_bytes", "record_width"]

# Header size of one value by exact type: a container's 8 is its own
# header, its fields are sized on top; anything absent is opaque (32).
_HEADER_SIZES = {int: 8, float: 8, bool: 1, type(None): 1,
                 str: 4, bytes: 4, tuple: 8, list: 8, dict: 8}
_OPAQUE = 32
_TUPLE = {tuple}


def estimate_records_bytes(records: Iterable[Any]) -> int:
    """Cheap serialized-size estimate of a record list for the cost
    model: an int or float is 8, a bool or None 1, a str or bytes its
    length + 4, a tuple, list or dict 8 + its fields (a dict's keys and
    values), anything else 32. Only ``type(v)`` is looked up, so a
    subclass (an ``IntEnum``, a ``str`` subclass) is opaque.

    Sized a column at a time: the records are one column; a column of
    one type adds its header size per value, a mixed one is split by
    type, and a container column pushes its fields, flattened, as
    further columns. Every loop over values runs in C, so a spill's
    partition costs one call, not one per record."""
    total = 0
    stack = [records if type(records) in (list, tuple) else list(records)]
    while stack:
        column = stack.pop()
        types = set(map(type, column))
        if len(types) > 1:
            # Mixed: one sub-column per type, picked out by a mask.
            kinds = list(map(type, column))
            for t in types:
                stack.append(list(compress(column, map(is_, kinds, repeat(t)))))
            continue
        if not types:
            continue
        t = types.pop()
        total += _HEADER_SIZES.get(t, _OPAQUE) * len(column)
        if t is str or t is bytes:
            total += sum(map(len, column))
        elif t is tuple or t is list:
            _push_fields(stack, column, column)
        elif t is dict:
            stack.append(list(chain.from_iterable(column)))
            _push_fields(stack, column, map(dict.values, column))
    return total


def _push_fields(stack: list, column: Sequence, fields: Iterable) -> None:
    """Push the flattened ``fields`` of ``column``'s containers as one
    column per position of its first container. Slices at that stride
    cover every field whatever the lengths: a ragged column only gives
    mixed columns, which the caller splits by type. Fields that fill no
    more than one stride (one container, as in a one-record spill) stay
    one column: slicing them would cost a pass per field."""
    flat = list(chain.from_iterable(fields))
    stride = len(column[0])
    if stride <= 1 or len(flat) <= stride:
        stack.append(flat)
    else:
        stack.extend(flat[i::stride] for i in range(stride))


def estimate_record_bytes(record: Any) -> int:
    """``estimate_records_bytes`` of the one record ``record``."""
    return estimate_records_bytes((record,))


# The header sizes that are a value's whole size.
_FIXED_WIDTHS = {t: _HEADER_SIZES[t] for t in (int, float, bool, type(None))}


def record_width(records: Sequence,
                 first_types: Optional[AbstractSet] = None
                 ) -> Optional[int]:
    """The size every record of ``records`` estimates to, when each is
    a flat tuple of one length whose every column holds one exact type
    among ``int``, ``float``, ``bool`` and ``None``; else ``None``.
    Then ``estimate_records_bytes`` of any ``n`` of them is ``n`` times
    it: a tuple is 8 plus its fields, and every record has the same
    fields. ``first_types``, when given, is the set of the first
    column's exact types (a spill's key kind), not scanned again."""
    first = None
    if first_types is not None:
        first = _one_width(first_types)
        if first is None:
            return None
    if not records or set(map(type, records)) != _TUPLE:
        return None
    lengths = set(map(len, records))
    if len(lengths) != 1:
        return None
    width = _HEADER_SIZES[tuple]
    for column in range(lengths.pop()):
        field = first if column == 0 and first is not None else \
            _one_width(set(map(type, map(itemgetter(column), records))))
        if field is None:
            return None
        width += field
    return width


def _one_width(types: AbstractSet) -> Optional[int]:
    """The width of a column of these exact types, if it is one
    fixed-width type."""
    if len(types) != 1:
        return None
    (only,) = types
    return _FIXED_WIDTHS.get(only)


class DataBlock:
    """One block of a file: a slice of records and its replica set.

    ``storage`` is ``"disk"`` or ``"memory"`` (the HDFS in-memory
    storage tier, paper section 7): it only affects the read-time cost
    model.
    """

    __slots__ = ("path", "index", "records", "size_bytes",
                 "replica_nodes", "storage")

    def __init__(
        self,
        path: str,
        index: int,
        records: Sequence[Any],
        size_bytes: int,
        replica_nodes: list[str],
        storage: str = "disk",
    ):
        self.path = path
        self.index = index
        self.records = list(records)
        self.size_bytes = size_bytes
        self.replica_nodes = list(replica_nodes)
        self.storage = storage

    @property
    def block_id(self) -> str:
        return f"{self.path}#{self.index}"

    def __repr__(self) -> str:
        return (
            f"<DataBlock {self.block_id} {len(self.records)} recs "
            f"{self.size_bytes}B on {self.replica_nodes}>"
        )


class DfsFile:
    """An immutable, closed HDFS file."""

    def __init__(self, path: str, blocks: list[DataBlock]):
        self.path = path
        self.blocks = blocks

    @property
    def size_bytes(self) -> int:
        return sum(b.size_bytes for b in self.blocks)

    @property
    def num_records(self) -> int:
        return sum(len(b.records) for b in self.blocks)

    def records(self) -> list[Any]:
        out: list[Any] = []
        for block in self.blocks:
            out.extend(block.records)
        return out

    def __repr__(self) -> str:
        return (
            f"<DfsFile {self.path} blocks={len(self.blocks)} "
            f"bytes={self.size_bytes}>"
        )
