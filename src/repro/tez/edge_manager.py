"""EdgeManagerPlugin: the routing table of an edge (paper section 3.1).

The logical aspect of an edge is the connection pattern between
producer and consumer tasks. The edge manager answers the routing
questions the framework needs: how many physical inputs/outputs each
side has, and which consumer task (and which physical input index on
it) receives a given producer output. The three common patterns are
built in; applications plug in custom managers for special routing
(e.g. Hive's dynamically partitioned hash join, Pig's skew join).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "EdgeManagerPlugin",
    "OneToOneEdgeManager",
    "BroadcastEdgeManager",
    "ScatterGatherEdgeManager",
]


class EdgeManagerPlugin:
    """Routing interface for one edge.

    ``source_parallelism`` / ``dest_parallelism`` are kept up to date
    by the framework (vertex managers may change them at runtime).
    """

    def __init__(self, payload: Any = None):
        self.payload = payload
        self.source_parallelism = 0
        self.dest_parallelism = 0

    # -- physical shape -----------------------------------------------------
    def num_source_physical_outputs(self, source_task: int) -> int:
        """How many output partitions each producer task writes."""
        raise NotImplementedError

    def num_dest_physical_inputs(self, dest_task: int) -> int:
        """How many physical inputs each consumer task reads."""
        raise NotImplementedError

    # -- routing ---------------------------------------------------------------
    def route(self, source_task: int, source_output: int) -> dict[int, int]:
        """Consumers of (source_task, source_output partition).

        Returns {dest_task_index: dest_physical_input_index}.
        """
        raise NotImplementedError


class OneToOneEdgeManager(EdgeManagerPlugin):
    """Task i of the producer feeds exactly task i of the consumer."""

    def num_source_physical_outputs(self, source_task: int) -> int:
        return 1

    def num_dest_physical_inputs(self, dest_task: int) -> int:
        return 1

    def route(self, source_task: int, source_output: int) -> dict[int, int]:
        return {source_task: 0}


class BroadcastEdgeManager(EdgeManagerPlugin):
    """Every producer task's single output goes to every consumer."""

    def num_source_physical_outputs(self, source_task: int) -> int:
        return 1

    def num_dest_physical_inputs(self, dest_task: int) -> int:
        return self.source_parallelism

    def route(self, source_task: int, source_output: int) -> dict[int, int]:
        return {dest: source_task for dest in range(self.dest_parallelism)}


class ScatterGatherEdgeManager(EdgeManagerPlugin):
    """The shuffle pattern: each producer writes one partition per
    *partition slot*; consumer task k gathers its partition range from
    every producer.

    ``num_partitions`` is the physical partition count producers write
    (fixed when producers start). When a vertex manager shrinks the
    consumer parallelism afterwards (auto-reduce), consecutive
    partitions are grouped: consumer k reads partitions
    ``[k*g, min((k+1)*g, P))`` with ``g = ceil(P / dest_parallelism)``.
    """

    def __init__(self, payload: Any = None):
        super().__init__(payload)
        self._num_partitions: int | None = None

    @property
    def num_partitions(self) -> int:
        if self._num_partitions is not None:
            return self._num_partitions
        return self.dest_parallelism

    def freeze_partitions(self) -> None:
        """Pin the physical partition count (called when the first
        producer task is scheduled; consumers may still re-group)."""
        if self._num_partitions is None:
            self._num_partitions = self.dest_parallelism

    def _group_factor(self) -> int:
        if self.dest_parallelism <= 0:
            raise RuntimeError("dest parallelism not yet known")
        return -(-self.num_partitions // self.dest_parallelism)  # ceil

    def partition_range(self, dest_task: int) -> range:
        g = self._group_factor()
        start = dest_task * g
        stop = min((dest_task + 1) * g, self.num_partitions)
        return range(start, stop)

    def num_source_physical_outputs(self, source_task: int) -> int:
        return self.num_partitions

    def num_dest_physical_inputs(self, dest_task: int) -> int:
        return self.source_parallelism * len(self.partition_range(dest_task))

    def route(self, source_task: int, source_output: int) -> dict[int, int]:
        g = self._group_factor()
        dest_task = source_output // g
        if dest_task >= self.dest_parallelism:
            dest_task = self.dest_parallelism - 1
        # Physical input index: (partition offset within range) *
        # source_parallelism + source_task — unique per (src, partition).
        offset = source_output - dest_task * g
        input_index = offset * self.source_parallelism + source_task
        return {dest_task: input_index}
