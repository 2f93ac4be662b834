"""Unit + property tests for edge-manager routing tables."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tez import (
    BroadcastEdgeManager,
    OneToOneEdgeManager,
    ScatterGatherEdgeManager,
)


def make(cls, src, dst):
    manager = cls()
    manager.source_parallelism = src
    manager.dest_parallelism = dst
    return manager


class TestOneToOne:
    def test_routing(self):
        m = make(OneToOneEdgeManager, 4, 4)
        assert m.route(2, 0) == {2: 0}
        assert m.num_source_physical_outputs(0) == 1
        assert m.num_dest_physical_inputs(3) == 1

    def test_inverse(self):
        m = make(OneToOneEdgeManager, 4, 4)
        # Consumer 2's only input is fed by producer 2.
        assert [s for s in range(4) if 2 in m.route(s, 0)] == [2]


class TestBroadcast:
    def test_routing_covers_all_dests(self):
        m = make(BroadcastEdgeManager, 3, 5)
        routing = m.route(1, 0)
        assert set(routing) == set(range(5))
        assert all(idx == 1 for idx in routing.values())

    def test_dest_inputs_count(self):
        m = make(BroadcastEdgeManager, 3, 5)
        assert m.num_dest_physical_inputs(0) == 3

    def test_inverse(self):
        m = make(BroadcastEdgeManager, 3, 5)
        # Input 2 of consumer 4 is fed by producer 2 alone.
        assert [s for s in range(3) if m.route(s, 0)[4] == 2] == [2]


class TestScatterGather:
    def test_identity_when_equal(self):
        m = make(ScatterGatherEdgeManager, 2, 4)
        m.freeze_partitions()
        assert m.num_partitions == 4
        assert m.route(0, 2) == {2: 0}
        assert m.route(1, 2) == {2: 1}
        assert m.num_dest_physical_inputs(2) == 2
        assert m.num_source_physical_outputs(0) == 4

    def test_grouped_after_auto_reduce(self):
        m = make(ScatterGatherEdgeManager, 2, 4)
        m.freeze_partitions()          # producers write 4 partitions
        m.dest_parallelism = 2         # auto-reduced to 2 consumers
        assert m.num_partitions == 4
        assert m.partition_range(0) == range(0, 2)
        assert m.partition_range(1) == range(2, 4)
        # Partition 1 now goes to consumer 0.
        routing = m.route(0, 1)
        assert list(routing) == [0]
        assert m.num_dest_physical_inputs(0) == 4  # 2 src * 2 partitions

    def test_grouped_input_indices_unique(self):
        m = make(ScatterGatherEdgeManager, 3, 6)
        m.freeze_partitions()
        m.dest_parallelism = 2
        seen = set()
        for src in range(3):
            for part in range(6):
                ((dest, idx),) = m.route(src, part).items()
                assert (dest, idx) not in seen
                seen.add((dest, idx))
        for dest in range(2):
            count = m.num_dest_physical_inputs(dest)
            assert {i for d, i in seen if d == dest} == set(range(count))

    def test_inverse_roundtrip(self):
        m = make(ScatterGatherEdgeManager, 3, 6)
        m.freeze_partitions()
        m.dest_parallelism = 2
        fed_by = {}
        for src in range(3):
            for part in range(6):
                ((dest, idx),) = m.route(src, part).items()
                fed_by.setdefault((dest, idx), []).append((src, part))
        assert all(len(sources) == 1 for sources in fed_by.values())
        assert len(fed_by) == 3 * 6

    @given(
        src=st.integers(1, 20),
        partitions=st.integers(1, 40),
        dest=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_complete_bijective_routing(self, src, partitions, dest):
        """Every (source task, partition) routes to exactly one
        (dest task, input index); indices are dense per dest."""
        dest = min(dest, partitions)
        m = ScatterGatherEdgeManager()
        m.source_parallelism = src
        m.dest_parallelism = partitions
        m.freeze_partitions()
        m.dest_parallelism = dest
        per_dest: dict[int, set[int]] = {}
        for s in range(src):
            for p in range(partitions):
                routing = m.route(s, p)
                assert len(routing) == 1
                ((d, idx),) = routing.items()
                assert 0 <= d < dest
                bucket = per_dest.setdefault(d, set())
                assert idx not in bucket
                bucket.add(idx)
        for d, indices in per_dest.items():
            assert indices == set(range(m.num_dest_physical_inputs(d)))
        # All partitions covered.
        assert sum(len(v) for v in per_dest.values()) == src * partitions
