"""Built-in HDFS input/output (the MRInput/MROutput analogues).

The input initializer performs the runtime 'split calculation' the
paper highlights (section 3.5): it inspects block locations, data size
and cluster capacity to choose the number and locality of splits, and
optionally waits for InputInitializerEvents to prune the data read
(Hive dynamic partition pruning).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ...hdfs import BlockUnavailable, DataBlock
from ..committer import OutputCommitter
from ..initializer import InputInitializer, InputSplit
from ..runtime import LogicalInput, LogicalOutput

__all__ = [
    "HdfsInput",
    "HdfsInputInitializer",
    "HdfsOutput",
    "HdfsOutputCommitter",
    "staging_path",
]


def staging_path(final_path: str, vertex: str, task_index: int,
                 attempt: int) -> str:
    return f"{final_path}/_staging/{vertex}/t{task_index}_a{attempt}"


class HdfsInput(LogicalInput):
    """Reads the blocks of the split assigned to this task.

    The split arrives via ``spec.extra`` (assigned by the root input's
    initializer) as ``{"blocks": [DataBlock, ...]}``; a task without a
    split reads nothing.
    """

    def _blocks(self) -> list[DataBlock]:
        split = self.spec.extra
        return list(split["blocks"]) if split else []

    def reader(self) -> Generator:
        hdfs = self.ctx.services.hdfs
        node = self.ctx.node_id
        with_paths = bool((self.payload or {}).get("with_paths"))
        records: list = []
        local_bytes = 0
        remote_bytes = 0
        for block in self._blocks():
            delay = hdfs.read_time(block, node)
            yield self.ctx.io_wait(delay)
            block_records = hdfs.read_block(block, node)
            if with_paths:
                records.extend((block.path, r) for r in block_records)
            else:
                records.extend(block_records)
            replica = hdfs.pick_replica(block, node)
            if replica == node:
                local_bytes += block.size_bytes
            else:
                remote_bytes += block.size_bytes
        self.ctx.count("hdfs_bytes_read", local_bytes + remote_bytes)
        self.ctx.count("hdfs_bytes_read_local", local_bytes)
        return records


class HdfsInputInitializer(InputInitializer):
    """Runtime split calculation with optional event-driven pruning.

    Payload keys:

    * ``paths`` — list of HDFS paths (or a dict ``partition -> path``
      when pruning is in play).
    * ``max_splits`` — optional cap; defaults to a multiple of the
      cluster's task slots so waves stay balanced.
    * ``wait_for_pruning_events`` — number of InputInitializerEvents to
      await; each carries ``{"partitions": [...]}`` and the union of
      the reported partitions survives.
    """

    def initialize(self) -> Generator:
        payload = self.payload or {}
        paths = payload.get("paths", [])
        hdfs = self.ctx.hdfs
        # Pruning: wait for runtime metadata from other vertices.
        wait_events = payload.get("wait_for_pruning_events", 0)
        if wait_events and isinstance(paths, dict):
            events = yield from self.ctx.wait_for_events(wait_events)
            keep: set = set()
            for event in events:
                keep.update((event.payload or {}).get("partitions", []))
            pruned = {p: path for p, path in paths.items() if p in keep}
            self.pruned_out = len(paths) - len(pruned)
            paths = pruned
        if isinstance(paths, dict):
            paths = [paths[k] for k in sorted(paths)]
        # A small cost for the namenode metadata round trips.
        yield self.ctx.env.timeout(0.05)
        max_splits = payload.get("max_splits")
        if max_splits is None:
            slots = max(1, self.ctx.total_cluster_slots())
            max_splits = max(1, slots * payload.get("waves", 1))
        groups = hdfs.splits_for(paths, max_splits=max_splits)
        splits = []
        for group in groups:
            nodes: list[str] = []
            for block in group:
                for replica in hdfs.live_replicas(block):
                    if replica not in nodes:
                        nodes.append(replica)
            splits.append(InputSplit(
                payload={"blocks": group},
                preferred_nodes=tuple(nodes[:3]),
                length_bytes=sum(b.size_bytes for b in group),
            ))
        return splits


class HdfsOutput(LogicalOutput):
    """Writes this task's records to an attempt-staged HDFS file.

    Payload keys: ``path`` (final directory), ``record_bytes``
    (optional size model override), ``replication``.
    """

    def __init__(self, ctx, spec, payload):
        super().__init__(ctx, spec, payload)
        self.records: list = []

    def write(self, records: list) -> Generator:
        self.records.extend(records)
        yield from ()

    def close(self) -> Generator:
        payload = self.payload or {}
        final = payload["path"]
        hdfs = self.ctx.services.hdfs
        staged = staging_path(
            final, self.ctx.vertex_name, self.ctx.task_index,
            self.ctx.attempt,
        )
        dfile = hdfs.write(
            staged, self.records,
            writer_node=self.ctx.node_id,
            record_bytes=payload.get("record_bytes"),
            replication=payload.get("replication"),
            overwrite=True,
        )
        yield self.ctx.io_wait(hdfs.write_time(
            dfile.size_bytes, payload.get("replication")
        ))
        self.ctx.count("hdfs_bytes_written", dfile.size_bytes)
        return []


class HdfsOutputCommitter(OutputCommitter):
    """Promotes winning attempts' staged files to the final path;
    exactly-once by construction (paper 3.1)."""

    def commit(self) -> Generator:
        payload = self.payload or {}
        final = payload["path"]
        hdfs = self.ctx.hdfs
        records: list = []
        for task_index in sorted(self.ctx.winners):
            attempt = self.ctx.winners[task_index]
            staged = staging_path(
                final, self.ctx.vertex_name, task_index, attempt
            )
            if hdfs.exists(staged):
                records.extend(hdfs.read_file(staged))
        hdfs.write(
            final, records,
            record_bytes=payload.get("record_bytes"),
            overwrite=True,
        )
        # Staging survives commit: it is only discarded by finalize(),
        # after the AM journals the DAG finish. An AM crash anywhere in
        # the commit window therefore leaves the staged winners intact
        # and the recovered AM's re-commit is idempotent.
        yield self.ctx.env.timeout(0.05)  # namenode renames

    def finalize(self) -> Generator:
        payload = self.payload or {}
        self._cleanup(self.ctx.hdfs, payload["path"])
        yield from ()

    def abort(self) -> Generator:
        payload = self.payload or {}
        self._cleanup(self.ctx.hdfs, payload["path"])
        yield from ()

    def _cleanup(self, hdfs, final: str) -> None:
        hdfs.delete_tree(f"{final}/_staging")
