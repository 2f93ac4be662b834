"""HDFS data model: files, blocks, replicas.

Blocks hold *real* Python records (so downstream computation is
verifiable) plus a byte size used by the cost model. Replicas live on
cluster nodes; a replica on a dead node is unreadable.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Sequence

__all__ = ["DataBlock", "DfsFile", "estimate_record_bytes"]

_PRIMITIVE_SIZES = {int: 8, float: 8, bool: 1, type(None): 1}


def estimate_record_bytes(record: Any) -> int:
    """Cheap serialized-size estimate for the cost model."""
    t = type(record)
    if t is tuple or t is list:
        fields = record
    elif t is dict:
        fields = chain(record, record.values())
    else:
        size = _PRIMITIVE_SIZES.get(t)
        if size is not None:
            return size
        if t is str or t is bytes:
            return len(record) + 4
        return 32  # opaque object
    # Called once per shuffled record: flat fields are sized in this
    # loop, only nested containers and opaque objects recurse.
    fixed = _PRIMITIVE_SIZES.get
    total = 8
    for v in fields:
        size = fixed(type(v))
        if size is not None:
            total += size
        elif type(v) is str or type(v) is bytes:
            total += len(v) + 4
        else:
            total += estimate_record_bytes(v)
    return total


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
