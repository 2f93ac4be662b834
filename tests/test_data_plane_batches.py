"""The data plane's list-at-a-time calls against per-record references.

A spill is sized and partitioned once per record list, not once per
record:

* ``estimate_records_bytes`` sizes a whole list a column at a time and
  must equal the frozen per-record estimator of ``tests/test_hdfs.py``
  summed over the list, on nested, ragged, mixed and empty values and on
  the corners only exact-type lookup gets right (``bool``, ``None``, an
  ``IntEnum``, a ``str`` subclass, opaque objects, non-``str`` dict
  keys).
* ``Partitioner.split`` must put every record where ``partition`` of
  its key sends it - the same record objects, in their original order,
  every partition present - for ``HashPartitioner`` (whose exact-int
  fast path must not catch ``True``, and whose subclasses keep their
  own ``partition``), ``RangePartitioner`` and a subclass of it.
* A reducer's buffered events reach each input in one
  ``handle_events`` call, in the order per-event delivery gave.
"""

import enum
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdfs import estimate_record_bytes, estimate_records_bytes
from repro.shuffle import HashPartitioner, RangePartitioner
from repro.tez import DAG
from repro.tez.events import CompositeDataMovementEvent, DataMovementEvent
from repro.tez.runtime import LogicalInput

from helpers import (
    SG,
    edge,
    fn_vertex,
    hdfs_sink,
    hdfs_source,
    make_sim,
    run_dag,
)
from test_hdfs import _MyInt, _ref_estimate_record_bytes


class _Color(enum.IntEnum):
    RED = 1
    BLUE = 2


class _Name(str):
    """Sized by exact type: a str subclass is an opaque object."""


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=5), st.binary(max_size=5),
    st.sampled_from(list(_Color)), st.text(max_size=3).map(_Name),
    st.integers().map(_MyInt), st.builds(object),
)
_DICT_KEYS = st.one_of(st.text(max_size=3), st.integers(), st.none(),
                       st.booleans(), st.floats(allow_nan=False),
                       st.tuples(st.integers()))

# Any value: nested, ragged and mixed containers.
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_DICT_KEYS, inner, max_size=4)),
    max_leaves=12)

# A record *shape* (a strategy), so that a list of records drawn from
# one shape has uniform columns - the estimator's fast path - while
# list-valued fields stay ragged.
_SHAPES = st.recursive(
    st.sampled_from([st.integers(), st.floats(), st.booleans(), st.none(),
                     st.text(max_size=4), st.binary(max_size=4),
                     st.sampled_from(list(_Color)), _VALUES]),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda parts: st.tuples(*parts)),
        st.lists(inner, max_size=3).map(lambda parts: st.fixed_dictionaries(
            {f"c{i}": part for i, part in enumerate(parts)})),
        inner.map(lambda shape: st.lists(shape, max_size=3))),
    max_leaves=8)


@st.composite
def _record_lists(draw):
    if draw(st.booleans()):
        return draw(st.lists(_VALUES, max_size=8))
    return draw(st.lists(draw(_SHAPES), max_size=12))


class TestEstimateRecordsBytes:
    @given(_record_lists())
    @settings(max_examples=400, deadline=None)
    def test_equals_frozen_reference_summed(self, records):
        expected = sum(map(_ref_estimate_record_bytes, records))
        assert estimate_records_bytes(records) == expected
        assert estimate_records_bytes(tuple(records)) == expected
        assert estimate_records_bytes(iter(records)) == expected

    def test_corners(self):
        assert estimate_records_bytes([]) == 0
        assert estimate_records_bytes([(), [], {}]) == 24
        # Exact type only: a bool is 1, an IntEnum / str subclass 32.
        assert estimate_records_bytes([True, 1, _Color.RED, "ab",
                                       _Name("ab")]) == 1 + 8 + 32 + 6 + 32
        # Ragged tuples and dicts with different keys.
        records = [(1, "a"), (2,), (3, "bc", None), {1: 2.0}, {"k": (1,)}]
        assert estimate_records_bytes(records) == \
            sum(map(_ref_estimate_record_bytes, records))

    @given(_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_one_record_is_a_list_of_one(self, record):
        assert estimate_record_bytes(record) == \
            _ref_estimate_record_bytes(record)


def _ref_split(partitioner, records, n):
    """What the hand-written split loops did, one ``partition`` each."""
    out = {p: [] for p in range(n)}
    for record in records:
        out[partitioner.partition(record[0], n)].append(record)
    return out


class _Reversed(HashPartitioner):
    """A subclass with its own routing: split must use it."""

    def partition(self, key, num_partitions):
        return num_partitions - 1 - super().partition(key, num_partitions)


class _Descending(RangePartitioner):
    """Pig's oriented order-by partitioner, in miniature."""

    def partition(self, key, num_partitions):
        return num_partitions - 1 - super().partition(key, num_partitions)


_SCALAR_KEYS = st.one_of(
    st.sampled_from([True, False, 1, 1.0, 0, -1, 2 ** 63, 2 ** 64 + 7,
                     -(2 ** 63) - 1, math.nan, None, "", b""]),
    st.integers(), st.floats(), st.text(max_size=4), st.binary(max_size=4),
)
_KEYS = st.one_of(_SCALAR_KEYS, st.tuples(_SCALAR_KEYS, _SCALAR_KEYS),
                  st.tuples(_SCALAR_KEYS))
_INT_KEYS = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)


def _nan_free(key) -> bool:
    """Boundary samples leave NaN out: ``from_sample`` sorts the sample,
    and a NaN among the boundaries breaks the order their check needs.
    NaN stays among the keys being partitioned."""
    return not any(k != k for k in (key if type(key) is tuple else (key,)))


def _records(keys):
    return [(key, object()) for key in keys]


def _assert_split_matches(partitioner, records, n):
    got = partitioner.split(records, n)
    want = _ref_split(partitioner, records, n)
    assert list(got) == list(range(n))
    # The same record objects, in the same order (identity, so NaN keys
    # and records that compare equal cannot hide a swap).
    assert {p: list(map(id, got[p])) for p in got} == \
        {p: list(map(id, want[p])) for p in want}


class TestSplit:
    @given(st.one_of(st.lists(_KEYS, max_size=30),
                     st.lists(_INT_KEYS, max_size=30)),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=300, deadline=None)
    def test_hash_split_equals_per_record_partition(self, keys, n):
        records = _records(keys)
        _assert_split_matches(HashPartitioner(), records, n)
        _assert_split_matches(_Reversed(), records, n)

    @given(st.lists(_KEYS, max_size=30),
           st.lists(_KEYS.filter(_nan_free), max_size=12),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_range_split_equals_per_record_partition(self, keys, sample, n):
        base = RangePartitioner.from_sample(sample, n)
        records = _records(keys)
        _assert_split_matches(base, records, n)
        _assert_split_matches(_Descending(base.boundaries), records, n)

    def test_true_one_and_one_point_oh(self):
        # Equal keys of three types: True and 1 hash alike, 1.0 through
        # hash(); a bool-bearing list leaves the exact-int path.
        records = _records([True, 1, 2, 3, 1.0])
        _assert_split_matches(HashPartitioner(), records, 4)

    def test_bad_partition_count(self):
        with pytest.raises(ValueError):
            HashPartitioner().split([], 0)
        with pytest.raises(ValueError):
            HashPartitioner().split(_records([1]), -1)
        assert HashPartitioner().split([], 3) == {0: [], 1: [], 2: []}


class TestEventBatches:
    def test_sub_events_equal_sub_event_per_pick(self):
        a = CompositeDataMovementEvent(
            source_vertex="m", source_task_index=3, source_output_start=2,
            count=4, payloads=("p0", "p1", "p2", "p3"), version=1)
        b = CompositeDataMovementEvent(
            source_vertex="m", source_task_index=0, source_output_start=0,
            count=2, payload="shared")
        picks = [(a, 3, 0), (b, 1, 5), (a, 0, 2)]
        got = CompositeDataMovementEvent.sub_events(picks)
        for event, (comp, offset, target) in zip(got, picks):
            want = comp.sub_event(offset)
            want.target_input_index = target
            assert isinstance(event, DataMovementEvent)
            assert (event.source_vertex, event.source_task_index,
                    event.source_output_index, event.payload,
                    event.version, event.target_input_index) == \
                (want.source_vertex, want.source_task_index,
                 want.source_output_index, want.payload, want.version,
                 want.target_input_index)
        assert CompositeDataMovementEvent.sub_events([]) == []

    def test_reducer_snapshot_arrives_once_per_input_in_order(
            self, monkeypatch):
        batches = []
        original = LogicalInput.handle_events

        def recording(self, events):
            batches.append((self.ctx.task.attempt_id, self.spec.source_name,
                            list(events)))
            original(self, events)

        monkeypatch.setattr(LogicalInput, "handle_events", recording)
        sim = make_sim()
        for part in range(4):
            sim.hdfs.write(f"/in/{part}", [(i % 7, i) for i in range(50)])
        m = fn_vertex("m", lambda ctx, data: {"r": list(data["src"])}, -1)
        hdfs_source(m, "src", [f"/in/{part}" for part in range(4)],
                    max_splits=4)
        r = fn_vertex("r", lambda ctx, data: {
            "out": [(k, sorted(vs)) for k, vs in data["m"]]}, 3)
        hdfs_sink(r, "out", "/out")
        dag = DAG("snapshot").add_vertex(m).add_vertex(r)
        dag.add_edge(edge(m, r, SG))
        status, _ = run_dag(sim, dag)
        assert status.succeeded, status.diagnostics
        assert sorted(k for k, _vs in sim.hdfs.read_file("/out")) == \
            list(range(7))
        # A reducer's buffered events come in one call per input, in
        # the (source task, source output) order per-event delivery had.
        assert batches
        attempts = [attempt for attempt, _source, _events in batches]
        assert len(attempts) == len(set(attempts))
        for _attempt, source, events in batches:
            assert source == "m" and events
            order = [(e.source_task_index, e.source_output_index)
                     for e in events]
            assert order == sorted(order)
            assert all(e.target_input_index is not None for e in events)
