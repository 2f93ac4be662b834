"""Unit tests for the simulated HDFS."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.hdfs import (
    BlockUnavailable,
    FileNotFound,
    Hdfs,
    estimate_record_bytes,
)
from repro.hdfs.namenode import FileAlreadyExists
from repro.sim import Environment


@pytest.fixture
def fs():
    spec = ClusterSpec(num_nodes=8, nodes_per_rack=4, hdfs_block_size=1024)
    cluster = Cluster(Environment(), spec)
    return Hdfs(cluster)


def test_write_read_roundtrip(fs):
    records = [(i, f"name{i}") for i in range(100)]
    fs.write("/data/t1", records, record_bytes=16)
    assert fs.read_file("/data/t1") == records


def test_blocks_split_by_size(fs):
    # 1024-byte blocks, 16-byte records -> 64 records per block.
    records = list(range(200))
    f = fs.write("/data/t2", records, record_bytes=16)
    assert len(f.blocks) == 4
    assert [len(b.records) for b in f.blocks] == [64, 64, 64, 8]
    assert f.num_records == 200


def test_replication_count(fs):
    f = fs.write("/r", [1, 2, 3], record_bytes=8, replication=3)
    for block in f.blocks:
        assert len(block.replica_nodes) == 3
        assert len(set(block.replica_nodes)) == 3


def test_empty_file_has_placeholder_block(fs):
    f = fs.write("/empty", [])
    assert len(f.blocks) == 1
    assert f.size_bytes == 0
    assert fs.read_file("/empty") == []


def test_overwrite_requires_flag(fs):
    fs.write("/dup", [1])
    with pytest.raises(FileAlreadyExists):
        fs.write("/dup", [2])
    fs.write("/dup", [2], overwrite=True)
    assert fs.read_file("/dup") == [2]


def test_missing_file_raises(fs):
    with pytest.raises(FileNotFound):
        fs.get_file("/nope")


def test_delete(fs):
    fs.write("/gone", [1])
    fs.delete("/gone")
    assert not fs.exists("/gone")
    fs.delete("/gone")  # idempotent


def test_list_files_prefix(fs):
    fs.write("/a/x", [1])
    fs.write("/a/y", [1])
    fs.write("/b/z", [1])
    assert fs.list_files("/a/") == ["/a/x", "/a/y"]


def test_delete_tree_is_a_directory_not_a_prefix(fs):
    for path in ("/tmp/hive/q1", "/tmp/hive/q1/_staging/a",
                 "/tmp/hive/q10", "/tmp/hive/q10/_staging/a"):
        fs.write(path, [1])
    assert fs.list_files("/tmp/hive/q1") == [
        "/tmp/hive/q1", "/tmp/hive/q1/_staging/a",
        "/tmp/hive/q10", "/tmp/hive/q10/_staging/a"]
    fs.delete_tree("/tmp/hive/q1")
    assert fs.list_files() == ["/tmp/hive/q10", "/tmp/hive/q10/_staging/a"]
    assert fs.version("/tmp/hive/q1") == 2     # written, then deleted
    fs.delete_tree("/tmp/hive/q10/_staging")
    assert fs.list_files() == ["/tmp/hive/q10"]
    fs.delete_tree("/nothing/here")            # no such tree: no-op


def test_pick_replica_prefers_local_then_rack(fs):
    f = fs.write("/loc", list(range(10)), record_bytes=8,
                 writer_node="node0000")
    block = f.blocks[0]
    assert fs.pick_replica(block, "node0000") == "node0000"
    # A reader co-racked with some replica gets a rack-local one.
    rack0_nodes = {"node0000", "node0001", "node0002", "node0003"}
    rack_replicas = [r for r in block.replica_nodes if r in rack0_nodes]
    if rack_replicas:
        chosen = fs.pick_replica(block, "node0001")
        locality = fs.cluster.locality(chosen, "node0001")
        assert locality in ("local", "rack")


def test_read_time_reflects_locality(fs):
    f = fs.write("/big", list(range(64)), record_bytes=16,
                 writer_node="node0000")
    block = f.blocks[0]
    local_t = fs.read_time(block, "node0000")
    # A reader in the other rack with no replica there pays network cost.
    other_rack = [n for n in ("node0004", "node0005", "node0006", "node0007")
                  if n not in block.replica_nodes]
    if other_rack:
        remote_t = fs.read_time(block, other_rack[0])
        assert remote_t >= local_t


def test_block_unavailable_when_all_replicas_dead(fs):
    f = fs.write("/frag", [1, 2, 3], record_bytes=8, replication=2)
    block = f.blocks[0]
    for node_id in block.replica_nodes:
        fs.cluster.crash_node(node_id)
    with pytest.raises(BlockUnavailable):
        fs.read_block(block, "node0000")


def test_read_survives_single_replica_loss(fs):
    f = fs.write("/safe", [1, 2, 3], record_bytes=8, replication=3)
    block = f.blocks[0]
    fs.cluster.crash_node(block.replica_nodes[0])
    assert fs.read_block(block, "node0000") == [1, 2, 3]


def test_splits_one_per_block_by_default(fs):
    fs.write("/s", list(range(200)), record_bytes=16)
    splits = fs.splits_for(["/s"])
    assert len(splits) == 4
    assert all(len(s) == 1 for s in splits)


def test_splits_coalesce_to_cap(fs):
    fs.write("/s2", list(range(200)), record_bytes=16)
    splits = fs.splits_for(["/s2"], max_splits=2)
    assert len(splits) == 2
    total = sum(len(b.records) for s in splits for b in s)
    assert total == 200


def test_splits_multiple_paths(fs):
    fs.write("/m1", list(range(64)), record_bytes=16)
    fs.write("/m2", list(range(64)), record_bytes=16)
    splits = fs.splits_for(["/m1", "/m2"])
    assert len(splits) == 2


def test_write_time_scales_with_bytes(fs):
    assert fs.write_time(10**9) > fs.write_time(10**6) > 0


class _MyInt(int):
    """Sized by exact type: a subclass is an opaque object."""


_REF_PRIMITIVE_SIZES = {int: 8, float: 8, bool: 1, type(None): 1}


def _ref_estimate_record_bytes(record):
    """Verbatim copy of the estimator before it became a flat loop;
    keep frozen."""
    t = type(record)
    if t in _REF_PRIMITIVE_SIZES:
        return _REF_PRIMITIVE_SIZES[t]
    if t is str:
        return len(record) + 4
    if t is bytes:
        return len(record) + 4
    if t in (tuple, list):
        return 8 + sum(_ref_estimate_record_bytes(v) for v in record)
    if t is dict:
        return 8 + sum(
            _ref_estimate_record_bytes(k) + _ref_estimate_record_bytes(v)
            for k, v in record.items()
        )
    return 32  # opaque object


class TestRecordSizeEstimation:
    def test_primitives(self):
        assert estimate_record_bytes(5) == 8
        assert estimate_record_bytes(1.5) == 8
        assert estimate_record_bytes(None) == 1
        assert estimate_record_bytes("abcd") == 8
        assert estimate_record_bytes(b"ab") == 6

    def test_containers(self):
        assert estimate_record_bytes((1, 2)) == 8 + 16
        assert estimate_record_bytes({"a": 1}) == 8 + 5 + 8

    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                  st.text(max_size=5), st.binary(max_size=5),
                  st.integers().map(_MyInt), st.builds(object)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.one_of(st.text(max_size=3), st.integers(),
                                      st.none()), inner, max_size=4)),
        max_leaves=12))
    @settings(max_examples=300, deadline=None)
    def test_flat_loop_equals_recursive_reference(self, record):
        assert estimate_record_bytes(record) == _ref_estimate_record_bytes(
            record)

    def test_estimation_used_for_block_sizing(self):
        spec = ClusterSpec(num_nodes=4, nodes_per_rack=2,
                           hdfs_block_size=100)
        fs = Hdfs(Cluster(Environment(), spec))
        f = fs.write("/auto", [(i, i) for i in range(100)])
        assert len(f.blocks) > 1


class TestMemoryTier:
    def test_memory_reads_faster_than_disk(self):
        spec = ClusterSpec(num_nodes=4, nodes_per_rack=2,
                           hdfs_block_size=1024)
        fs = Hdfs(Cluster(Environment(), spec))
        rows = list(range(64))
        disk_f = fs.write("/d", rows, record_bytes=16)
        mem_f = fs.write("/m", rows, record_bytes=16, storage="memory")
        disk_block, mem_block = disk_f.blocks[0], mem_f.blocks[0]
        reader = disk_block.replica_nodes[0]
        # Compare both from the same (replica) node; memory must win.
        reader_m = mem_block.replica_nodes[0]
        assert fs.read_time(mem_block, reader_m) < \
            fs.read_time(disk_block, reader)

    def test_unknown_storage_rejected(self):
        spec = ClusterSpec(num_nodes=4, nodes_per_rack=2)
        fs = Hdfs(Cluster(Environment(), spec))
        with pytest.raises(ValueError):
            fs.write("/x", [1], storage="tape")

    def test_storage_recorded_on_blocks(self):
        spec = ClusterSpec(num_nodes=4, nodes_per_rack=2)
        fs = Hdfs(Cluster(Environment(), spec))
        f = fs.write("/mem", [1, 2, 3], storage="memory")
        assert all(b.storage == "memory" for b in f.blocks)
