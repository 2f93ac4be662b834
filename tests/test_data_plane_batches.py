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
* ``ShuffleService.spill`` types a task's output once and carries the
  kind on its SpillRefs; it must give what the frozen split / sort /
  size / merge path it replaced gave - the same record objects in the
  same order, the same bytes per partition, the same reduce groups -
  however the kinds of the merged spills combine, after a combiner that
  changes key types, and on one-partition outputs of records that are
  not pairs. ``record_width`` is exact wherever it answers.
"""

import enum
import math
from itertools import chain, groupby
from operator import attrgetter, itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.hdfs import (
    estimate_record_bytes,
    estimate_records_bytes,
    record_width,
)
from repro.shuffle import (
    HashPartitioner,
    RangePartitioner,
    ShuffleServices,
    SpillRef,
    group_by_key,
    key_kind,
    merge_and_group,
    native,
    sort_key,
)
from repro.shuffle.partitioner import _stable_hash
from repro.sim import Environment
from repro.tez import (
    DAG,
    Descriptor,
    ShuffleVertexManager,
    ShuffleVertexManagerConfig,
)
from repro.tez.events import CompositeDataMovementEvent, DataMovementEvent
from repro.tez.runtime import LogicalInput
from repro.yarn import SecurityManager

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

    @pytest.mark.parametrize("auto_reduce", [False, True])
    def test_scatter_gather_snapshot_equals_routing_each_pick(
            self, monkeypatch, auto_reduce):
        """A scatter-gather snapshot routes each partition of the task's
        range once; it must pick what routing every (producer,
        partition) gives - the generic path, which any other manager
        takes - also when auto-reduce groups several partitions per
        consumer."""
        from repro.tez.am import attempt_runner

        real = attempt_runner.AttemptRunner.snapshot_events
        compared = []

        def both_paths(self, task):
            fast = real(self, task)
            with monkeypatch.context() as patch:
                patch.setattr(attempt_runner, "ScatterGatherEdgeManager",
                              type("NotScatterGather", (), {}))
                generic = real(self, task)
            fields = attrgetter(
                "source_vertex", "source_task_index", "source_output_index",
                "payload", "version", "target_input_index")
            assert list(map(fields, fast)) == list(map(fields, generic))
            compared.append(len(fast))
            return fast

        monkeypatch.setattr(attempt_runner.AttemptRunner, "snapshot_events",
                            both_paths)
        sim = make_sim()
        for part in range(4):
            sim.hdfs.write(f"/in/{part}", [(i % 11, i) for i in range(60)],
                           record_bytes=16)
        m = fn_vertex("m", lambda ctx, data: {"r": list(data["src"])}, -1)
        hdfs_source(m, "src", [f"/in/{part}" for part in range(4)],
                    max_splits=4)
        r = fn_vertex("r", lambda ctx, data: {
            "out": [(k, len(vs)) for k, vs in data["m"]]}, 10)
        r.vertex_manager = Descriptor(
            ShuffleVertexManager, ShuffleVertexManagerConfig(
                auto_parallelism=auto_reduce, slowstart_min_fraction=1.0,
                slowstart_max_fraction=1.0,
                desired_task_input_bytes=10_000_000))
        hdfs_sink(r, "out", "/out")
        dag = DAG("snapshot-sg").add_vertex(m).add_vertex(r)
        dag.add_edge(edge(m, r, SG))
        status, _ = run_dag(sim, dag)
        assert status.succeeded, status.diagnostics
        assert dict(sim.hdfs.read_file("/out")) == \
            {k: 4 * len(range(k, 60, 11)) for k in range(11)}
        # Every reducer's snapshot held every producer's partitions:
        # one consumer reading all 10 when auto-reduce shrank the vertex.
        reducers = [n for n in compared if n]
        assert reducers == ([40] if auto_reduce else [4] * 10)


# ------------------------------------------------------------------
# One typed spill against the path it replaced. The `_ref_*` functions
# below are verbatim copies of `HashPartitioner.split`, `sort_records`
# (with `_native_order`) and `merge_and_group` as they stood when every
# partition and every merge looked at its own key types; a partition
# was sized by `estimate_records_bytes`, which is the frozen per-record
# estimator summed (`TestEstimateRecordsBytes`). Keep them frozen.

_REF_KEY = itemgetter(0)
_REF_VALUE = itemgetter(1)
_REF_NATIVE_SCALARS = ({int}, {float}, {int, float}, {str}, {bytes})
_REF_NATIVE_FIELDS = frozenset((int, float, str, bytes))


def _ref_kv_sort_key(kv):
    return sort_key(kv[0])


def _ref_native_order(kvs):
    kinds = set(map(type, map(_REF_KEY, kvs)))
    if kinds == {tuple}:
        signatures = {tuple(map(type, kv[0])) for kv in kvs}
        return len(signatures) == 1 \
            and _REF_NATIVE_FIELDS.issuperset(signatures.pop())
    return kinds in _REF_NATIVE_SCALARS


def _ref_sort_records(kvs):
    kvs = list(kvs)
    if len(kvs) > 1:
        kvs.sort(key=_REF_KEY if _ref_native_order(kvs) else _ref_kv_sort_key)
    return kvs


def _ref_merge_and_group(runs):
    kvs = list(chain.from_iterable(runs))
    if len(kvs) > 1 and _ref_native_order(kvs):
        kvs.sort(key=_REF_KEY)
        return [(key, list(map(_REF_VALUE, group)))
                for key, group in groupby(kvs, _REF_KEY)]
    kvs.sort(key=_ref_kv_sort_key)
    return list(group_by_key(kvs))


def _ref_hash_split(records, num_partitions):
    lists = [[] for _ in range(num_partitions)]
    partitions, appends = dict(enumerate(lists)), [p.append for p in lists]
    if set(map(type, map(itemgetter(0), records))) <= {int}:
        for record in records:
            appends[(record[0] * 2654435761 & 0x7FFFFFFF)
                    % num_partitions](record)
    else:
        for record in records:
            appends[_stable_hash(record[0]) % num_partitions](record)
    return partitions


def _ref_spill(records, n, ordered, combiner=None, bytes_per_record=None):
    """What a spill output's close and `register_spill` did: partition,
    sort each partition, combine each, size each."""
    partitions = {0: records} if n == 1 else _ref_hash_split(records, n)
    if ordered:
        partitions = {p: _ref_sort_records(r) for p, r in partitions.items()}
    if combiner is not None:
        partitions = {p: combiner(r) for p, r in partitions.items()}
    sizes = {p: int(len(r) * bytes_per_record) if bytes_per_record is not None
             else sum(map(_ref_estimate_record_bytes, r))
             for p, r in partitions.items()}
    return partitions, sizes


def _service():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(num_nodes=2, nodes_per_rack=2))
    security = SecurityManager()
    services = ShuffleServices(cluster, security)
    return services.on_node("node0000"), security.issue("JOB", "app")


def _fetch(svc, refs, token):
    return {ref.partition: svc.fetch(ref.spill_id, ref.partition, "app",
                                     token) for ref in refs}


def _ids(partitions):
    return {p: list(map(id, records)) for p, records in partitions.items()}


# Key families: one per spill, so the native paths are taken and the
# kinds of merged spills meet in every combination, plus the families
# that must stay tagged.
_SMALL_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, math.nan,
                                 math.inf])
_KEY_FAMILIES = st.sampled_from([
    st.integers(-4, 4), _SMALL_FLOATS, st.one_of(st.integers(-2, 2),
                                                 _SMALL_FLOATS),
    st.text("ab", max_size=2), st.binary(max_size=2), st.booleans(),
    st.none(), st.sampled_from(list(_Color)), st.integers(-2, 2).map(_MyInt),
    st.tuples(st.integers(-2, 2), st.text("ab", max_size=1)),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.tuples(_SMALL_FLOATS), st.just(()),
    st.lists(st.integers(-1, 1), max_size=2).map(tuple),        # ragged
    st.tuples(st.integers(-1, 1), st.tuples(st.integers(-1, 1))),
    st.one_of(st.integers(-2, 2), st.booleans(), st.none(),
              st.text("a", max_size=1)),
])
# Value columns: fixed-width (one type), or not.
_VALUE_FAMILIES = st.sampled_from([
    st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.one_of(st.booleans(), st.integers()), st.text(max_size=2),
    st.tuples(st.integers()),
])


@st.composite
def _spill_records(draw, pairs=True):
    """One task's output: keys of one family, values of one family,
    and (unless ``pairs``) sometimes a third field."""
    keys, values = draw(_KEY_FAMILIES), draw(_VALUE_FAMILIES)
    arity = 2 if pairs else draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.tuples(keys, values, values), max_size=16))
    return [row[:arity] for row in rows]


# Combiners over one (sorted) partition; two of them change key types.
_COMBINERS = {
    "count": lambda recs: [(k, len(vs)) for k, vs in group_by_key(recs)],
    "key_repr": lambda recs: [(repr(k), v) for k, v in recs],
    "key_tuple": lambda recs: [((repr(k), 0), v) for k, v in recs],
}


class TestSpill:
    @given(_spill_records(pairs=False), st.integers(1, 5), st.booleans(),
           st.sampled_from([None, 20.0, 24]))
    @settings(max_examples=400, deadline=None)
    def test_equals_frozen_split_sort_and_size(self, records, n, ordered,
                                               bytes_per_record):
        if ordered:
            records = [record[:2] for record in records]
        svc, token = _service()
        refs = svc.spill("app", "s", list(records), n, HashPartitioner(),
                         ordered=ordered, token=token,
                         bytes_per_record=bytes_per_record)
        want, sizes = _ref_spill(list(records), n, ordered,
                                 bytes_per_record=bytes_per_record)
        got = _fetch(svc, refs, token)
        assert [ref.partition for ref in refs] == list(range(n))
        # The very same record objects, in the very same order.
        assert _ids(got) == _ids(want)
        assert {ref.partition: ref.nbytes for ref in refs} == sizes
        typed = n > 1 or ordered
        kind = key_kind(records) if typed else None
        assert all(ref.key_kind == kind for ref in refs)
        if typed and len(records) > 1:
            assert native(kind) == _ref_native_order(records)

    @given(st.lists(_spill_records(), min_size=1, max_size=4),
           st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    def test_merge_of_typed_spills_equals_frozen_merge(self, outputs, n):
        svc, token = _service()
        spills = [svc.spill("app", f"s{i}", list(records), n,
                            HashPartitioner(), ordered=True, token=token)
                  for i, records in enumerate(outputs)]
        wants = [_ref_spill(list(records), n, True)[0] for records in outputs]
        for p in range(n):
            runs = [svc.fetch(f"s{i}", p, "app", token)
                    for i in range(len(outputs))]
            kinds = [refs[p].key_kind for refs in spills]
            want = _ref_merge_and_group([w[p] for w in wants])
            got = merge_and_group(runs, kinds)
            assert repr(got) == repr(want)
            # The first-seen key object of every group.
            assert list(map(id, map(_REF_KEY, got))) == \
                list(map(id, map(_REF_KEY, want)))

    @given(st.lists(_spill_records(), min_size=1, max_size=3),
           st.integers(1, 3), st.sampled_from(sorted(_COMBINERS)))
    @settings(max_examples=300, deadline=None)
    def test_combined_spill_is_typed_after_combining(self, outputs, n,
                                                      name):
        combiner = _COMBINERS[name]
        svc, token = _service()
        spills = [svc.spill("app", f"s{i}", list(records), n,
                            HashPartitioner(), ordered=True,
                            combiner=combiner, token=token)
                  for i, records in enumerate(outputs)]
        for i, records in enumerate(outputs):
            want, sizes = _ref_spill(list(records), n, True, combiner)
            got = _fetch(svc, spills[i], token)
            assert repr(got) == repr(want)
            assert {ref.partition: ref.nbytes for ref in spills[i]} == sizes
            combined = list(chain.from_iterable(want.values()))
            assert all(ref.key_kind == key_kind(combined)
                       for ref in spills[i])
        for p in range(n):
            runs = [svc.fetch(f"s{i}", p, "app", token)
                    for i in range(len(outputs))]
            assert repr(merge_and_group(runs, [r[p].key_kind
                                               for r in spills])) == \
                repr(_ref_merge_and_group(runs))

    def test_combiner_never_inherits_the_pre_combine_kind(self):
        svc, token = _service()
        records = [(3, 1), (1, 2), (3, 3)]
        refs = svc.spill("app", "s", records, 2, HashPartitioner(),
                         ordered=True, combiner=_COMBINERS["key_repr"],
                         token=token)
        assert {ref.key_kind for ref in refs} == {frozenset({str})}

    @pytest.mark.parametrize("kinds_of, is_native", [
        (([1, 2], [0.5, 2.0]), True),             # {int} + {float}
        (([1, 2], ["a", "b"]), False),            # {int} + {str}
        (([(1, "a"), (2, "b")], [(1, 2), (0, 0)]), False),  # signatures
        (([(1, "a")], [(2, "b"), (0, "")]), True),          # one signature
        (([1, True], [0, False]), False),         # bool among ints
        (([None, 1], [2]), False),
        (([_Color.RED, _Color.BLUE], [1, 2]), False),
        (([], [2, 1]), True),                     # an empty spill
        (([], []), None),
    ])
    def test_kind_unions(self, kinds_of, is_native):
        svc, token = _service()
        spills = [svc.spill("app", f"s{i}", [(k, i) for k in keys], 1,
                            HashPartitioner(), ordered=True, token=token)
                  for i, keys in enumerate(kinds_of)]
        kinds = [refs[0].key_kind for refs in spills]
        union = frozenset().union(*kinds)
        if is_native is not None:
            assert native(union) is is_native
        runs = [svc.fetch(f"s{i}", 0, "app", token)
                for i in range(len(kinds_of))]
        assert repr(merge_and_group(runs, kinds)) == \
            repr(_ref_merge_and_group(runs))
        # An unknown kind among the runs: the keys are scanned instead.
        assert repr(merge_and_group(runs, kinds + [None])) == \
            repr(_ref_merge_and_group(runs))

    @pytest.mark.parametrize("records", [
        [{"a": 1}, {"b": 2.0}],
        [{0: "zero"}, 5],
        [1, "x", None],
        [(1, 2, 3), ("only",), [4, 5]],
        [],
    ])
    def test_unordered_single_partition_reads_no_key(self, records):
        class _NoPartitioner(HashPartitioner):
            def split(self, *args, **kwargs):
                raise AssertionError("a one-partition output is not split")

        svc, token = _service()
        refs = svc.spill("app", "s", records, 1, _NoPartitioner(),
                         ordered=False, token=token)
        assert [ref.key_kind for ref in refs] == [None]
        assert svc.fetch("s", 0, "app", token) is records
        assert refs[0].nbytes == sum(map(_ref_estimate_record_bytes, records))


_FIXED_COLUMNS = st.sampled_from([st.integers(), st.floats(), st.booleans(),
                                  st.none()])


@st.composite
def _fixed_width_records(draw):
    columns = draw(st.lists(_FIXED_COLUMNS, min_size=0, max_size=4))
    return draw(st.lists(st.tuples(*columns), min_size=1, max_size=20))


class TestRecordWidth:
    @given(_fixed_width_records(), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_width_times_len_is_the_estimate(self, records, n):
        width = record_width(records)
        assert width is not None
        for part in (records, records[:n], records[n:]):
            assert width * len(part) == estimate_records_bytes(part) == \
                sum(map(_ref_estimate_record_bytes, part))
        if records[0]:
            first = set(map(type, map(itemgetter(0), records)))
            assert record_width(records, first) == width

    @pytest.mark.parametrize("records", [
        [(1, "a"), (2, "b")],                     # a str field
        [(1, b"a")],
        [(1, (2, 3)), (2, (3, 4))],               # nested
        [(1, 2), (3,)],                           # ragged
        [(1, True), (2, 3)],                      # bool and int in a column
        [(1.0, 2), (1, 2)],                       # float and int in a column
        [(1, _Color.RED)],                        # a subclass
        [[1, 2], [3, 4]],                         # lists
        [{"a": 1}],
        [1, 2],
        [(1, 2), [3, 4]],
        [],
    ])
    def test_no_width(self, records):
        assert record_width(records) is None

    def test_first_types_are_trusted(self):
        records = [(1, 2), (3, 4)]
        assert record_width(records, {int}) == 24
        assert record_width(records, {int, float}) is None
        assert record_width(records, {(int, int)}) is None
        assert record_width([(None, 1.0)], {type(None)}) == 17


class TestSpillRef:
    def test_kind_takes_no_part_in_identity(self):
        a = SpillRef("n1", "s", 3, 24, frozenset({int}))
        b = SpillRef("n1", "s", 3, 24, None)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != SpillRef("n1", "s", 3, 25, frozenset({int}))
        assert a != ("n1", "s", 3, 24)
        assert repr(a) == "<SpillRef s[p3]@n1>"
        assert not hasattr(a, "__dict__")
