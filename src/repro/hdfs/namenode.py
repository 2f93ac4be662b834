"""The simulated distributed filesystem (namespace + block placement).

Writes place rack-aware replicas via the cluster topology; reads choose
the closest live replica. IO *time* is charged by the caller (tasks call
:meth:`read_time` / :meth:`write_time` and yield a timeout), keeping the
filesystem object itself side-effect free with respect to the clock.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from ..cluster import Cluster, LOCAL, RACK_LOCAL
from .blocks import DataBlock, DfsFile, estimate_records_bytes

__all__ = ["Hdfs", "HdfsError", "FileNotFound", "BlockUnavailable"]


class HdfsError(Exception):
    """Base class for filesystem errors."""


class FileNotFound(HdfsError):
    pass


class FileAlreadyExists(HdfsError):
    pass


class BlockUnavailable(HdfsError):
    """All replicas of a block are on dead nodes."""


class Hdfs:
    """Namespace of immutable files with block-level locality."""

    def __init__(self, cluster: Cluster, block_size: Optional[int] = None,
                 replication: Optional[int] = None):
        self.cluster = cluster
        self.spec = cluster.spec
        self.block_size = block_size or self.spec.hdfs_block_size
        self.replication = replication or self.spec.hdfs_replication
        self._files: dict[str, DfsFile] = {}
        # Monotonic per-path write versions (never reset by delete):
        # how a commit-exactly-once check counts the writes a path saw
        # (the ledger's workloads, tests/test_session_fuzz.py).
        self._versions: dict[str, int] = {}

    # -- namespace -------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def get_file(self, path: str) -> DfsFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def delete(self, path: str) -> None:
        if self._files.pop(path, None) is not None:
            self._versions[path] = self._versions.get(path, 0) + 1

    def delete_tree(self, path: str) -> None:
        """Delete ``path`` and every file under ``path + "/"``: a
        directory, so ``/tmp/hive/q1`` leaves ``/tmp/hive/q10``."""
        under = f"{path}/"
        for name in [p for p in self._files
                     if p == path or p.startswith(under)]:
            self.delete(name)

    def version(self, path: str) -> int:
        """Write version of ``path``: 0 if never written, bumped on
        every (over)write and delete. Equal versions imply identical
        block layout and replica placement."""
        return self._versions.get(path, 0)

    def list_files(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    # -- writing -----------------------------------------------------------
    def write(
        self,
        path: str,
        records: Sequence[Any],
        writer_node: Optional[str] = None,
        record_bytes: Optional[int] = None,
        replication: Optional[int] = None,
        overwrite: bool = False,
        storage: str = "disk",
    ) -> DfsFile:
        """Create ``path`` from ``records``, splitting into blocks.

        ``record_bytes`` overrides per-record size estimation (useful for
        scaling benchmarks without materializing huge datasets).
        ``storage="memory"`` places the blocks in the HDFS in-memory
        tier (paper section 7): reads run at memory bandwidth.
        """
        if storage not in ("disk", "memory"):
            raise ValueError(f"unknown storage tier {storage!r}")
        if self.exists(path) and not overwrite:
            raise FileAlreadyExists(path)
        replication = replication or self.replication
        records = list(records)
        if record_bytes is None:
            sample = records[: min(64, len(records))]
            if sample:
                record_bytes = max(
                    1, estimate_records_bytes(sample) // len(sample),
                )
            else:
                record_bytes = 1
        per_block = max(1, self.block_size // record_bytes)
        blocks: list[DataBlock] = []
        if not records:
            # Empty file still gets one empty block for placement metadata.
            replicas = self.cluster.place_replicas(replication, writer_node)
            blocks.append(
                DataBlock(path, 0, [], 0, [n.node_id for n in replicas],
                          storage=storage)
            )
        for i in range(0, len(records), per_block):
            chunk = records[i : i + per_block]
            replicas = self.cluster.place_replicas(replication, writer_node)
            blocks.append(
                DataBlock(
                    path,
                    len(blocks),
                    chunk,
                    len(chunk) * record_bytes,
                    [n.node_id for n in replicas],
                    storage=storage,
                )
            )
        dfile = DfsFile(path, blocks)
        self._files[path] = dfile
        self._versions[path] = self._versions.get(path, 0) + 1
        return dfile

    def write_time(self, nbytes: int, replication: Optional[int] = None) -> float:
        """Seconds to write ``nbytes`` with pipeline replication."""
        replication = replication or self.replication
        base = nbytes / self.spec.disk_write_bw
        # Pipeline: extra replicas stream over the network concurrently;
        # charge the slowest pipeline stage.
        if replication > 1:
            net = nbytes / self.spec.net_bw_cross_rack
            base = max(base, net)
        return base

    # -- reading -------------------------------------------------------------
    def live_replicas(self, block: DataBlock) -> list[str]:
        return [
            n for n in block.replica_nodes if self.cluster.nodes[n].alive
        ]

    def pick_replica(self, block: DataBlock, reader_node: str) -> str:
        """Closest live replica to ``reader_node``."""
        live = self.live_replicas(block)
        if not live:
            raise BlockUnavailable(block.block_id)
        for node in live:
            if self.cluster.locality(node, reader_node) == LOCAL:
                return node
        for node in live:
            if self.cluster.locality(node, reader_node) == RACK_LOCAL:
                return node
        return live[0]

    def read_time(self, block: DataBlock, reader_node: str) -> float:
        replica = self.pick_replica(block, reader_node)
        locality = self.cluster.locality(replica, reader_node)
        return self.spec.transfer_time(
            block.size_bytes, locality, storage=block.storage
        )

    def read_block(self, block: DataBlock, reader_node: str) -> list[Any]:
        """Records of a block; raises if no live replica remains."""
        self.pick_replica(block, reader_node)  # availability check
        return list(block.records)

    def read_file(self, path: str) -> list[Any]:
        return self.get_file(path).records()

    # -- splits (for MR-style input) -----------------------------------------
    def splits_for(
        self, paths: Iterable[str], max_splits: Optional[int] = None
    ) -> list[list[DataBlock]]:
        """Group blocks into splits, optionally coalescing to a cap.

        With no cap each block is its own split (classic MR). With a cap,
        adjacent blocks are combined, mimicking CombineFileInputFormat /
        Tez grouped splits.
        """
        blocks: list[DataBlock] = []
        for path in paths:
            blocks.extend(self.get_file(path).blocks)
        if not blocks:
            return []
        if max_splits is None or len(blocks) <= max_splits:
            return [[b] for b in blocks]
        per_split = -(-len(blocks) // max_splits)  # ceil division
        return [
            blocks[i : i + per_split] for i in range(0, len(blocks), per_split)
        ]
