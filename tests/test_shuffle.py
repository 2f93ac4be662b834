"""Unit + property tests for the shuffle substrate."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.shuffle import (
    FetchFailure,
    Fetcher,
    HashPartitioner,
    RangePartitioner,
    ShuffleServices,
    SpillLost,
    group_by_key,
    merge_and_group,
    merge_sorted_runs,
    sort_key,
    sort_keys,
    sort_records,
)
from repro.sim import Environment
from repro.tez import DAG
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


def make_services():
    spec = ClusterSpec(num_nodes=4, nodes_per_rack=2)
    env = Environment()
    cluster = Cluster(env, spec)
    security = SecurityManager()
    return env, cluster, security, ShuffleServices(cluster, security)


keys = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=8),
    st.tuples(st.integers(0, 50), st.integers(0, 50)),
)


class TestPartitioners:
    @given(st.lists(keys, max_size=100), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_hash_partitioner_in_range_and_deterministic(self, ks, n):
        p = HashPartitioner()
        for k in ks:
            a = p.partition(k, n)
            assert 0 <= a < n
            assert a == p.partition(k, n)

    def test_hash_partitioner_rejects_bad_count(self):
        with pytest.raises(ValueError):
            HashPartitioner().partition(1, 0)

    def test_range_partitioner_ordering(self):
        p = RangePartitioner([10, 20, 30])
        assert p.partition(5, 4) == 0
        assert p.partition(10, 4) == 0
        assert p.partition(15, 4) == 1
        assert p.partition(25, 4) == 2
        assert p.partition(99, 4) == 3

    def test_range_partitioner_unsorted_rejected(self):
        with pytest.raises(ValueError):
            RangePartitioner([3, 1])

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=200),
           st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_range_from_sample_is_monotone(self, sample, n):
        p = RangePartitioner.from_sample(sample, n)
        values = sorted(sample)
        parts = [p.partition(v, n) for v in values]
        assert parts == sorted(parts)          # monotone in key order
        assert all(0 <= x < n for x in parts)

    def test_from_sample_empty(self):
        p = RangePartitioner.from_sample([], 4)
        assert p.partition(42, 4) == 0


class TestSorter:
    @given(st.lists(st.tuples(keys, st.integers()), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_sort_records_sorted_and_stable(self, kvs):
        out = sort_records(kvs)
        assert len(out) == len(kvs)
        ks = [sort_key(k) for k, _v in out]
        assert ks == sorted(ks)

    @given(st.lists(st.lists(st.tuples(st.integers(0, 20),
                                       st.integers()), max_size=30),
                    max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_global_sort(self, runs):
        sorted_runs = [sort_records(r) for r in runs]
        merged = list(merge_sorted_runs(sorted_runs))
        assert merged == sort_records([kv for r in runs for kv in r])

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers()),
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_group_by_key_partitions_values(self, kvs):
        grouped = list(group_by_key(sort_records(kvs)))
        # Every value accounted for, keys unique.
        assert sum(len(vs) for _k, vs in grouped) == len(kvs)
        ks = [sort_key(k) for k, _v in grouped]
        assert len(set(ks)) == len(ks)

    def test_heterogeneous_keys_do_not_crash(self):
        kvs = [(None, 1), ("a", 2), (3, 3), ((1, 2), 4), (1.5, 5)]
        out = sort_records(kvs)
        assert len(out) == 5
        list(group_by_key(out))


class TestShuffleService:
    def test_register_and_fetch(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        svc = services.on_node("node0000")
        refs = svc.register_spill(
            "app1", "s1", {0: [("a", 1)], 1: [("b", 2)]}, token=tok
        )
        assert len(refs) == 2
        assert svc.fetch("s1", 0, "app1", tok) == [("a", 1)]
        assert svc.fetch("s1", 1, "app1", tok) == [("b", 2)]

    def test_duplicate_spill_rejected(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        svc = services.on_node("node0000")
        svc.register_spill("app1", "s1", {0: []}, token=tok)
        with pytest.raises(Exception):
            svc.register_spill("app1", "s1", {0: []}, token=tok)

    def test_missing_spill_raises(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        with pytest.raises(SpillLost):
            services.on_node("node0000").fetch("nope", 0, "app1", tok)

    def test_dead_node_loses_spills(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        svc = services.on_node("node0000")
        svc.register_spill("app1", "s1", {0: [1]}, token=tok)
        cluster.crash_node("node0000")
        with pytest.raises(SpillLost):
            svc.fetch("s1", 0, "app1", tok)

    def test_wrong_token_rejected(self):
        from repro.yarn import AuthenticationError
        env, cluster, security, services = make_services()
        bad = security.issue("JOB", "other-app")
        with pytest.raises(AuthenticationError):
            services.on_node("node0000").register_spill(
                "app1", "s1", {0: []}, token=bad
            )

    def test_app_cleanup(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        svc = services.on_node("node0000")
        svc.register_spill("app1", "s1", {0: [1]}, token=tok)
        assert svc.spill_count("app1") == 1
        services.delete_app("app1")
        assert svc.spill_count("app1") == 0

    def test_app_cleanup_touches_only_that_app(self):
        env, cluster, security, services = make_services()
        tok1 = security.issue("JOB", "app1")
        tok2 = security.issue("JOB", "app2")
        svc = services.on_node("node0000")
        svc.register_spill("app1", "a", {0: [1]}, token=tok1)
        svc.register_spill("app1", "b", {0: [2]}, token=tok1)
        svc.register_spill("app2", "c", {0: [3]}, token=tok2)
        svc.drop_spill("a")
        svc.drop_spill("a")                       # twice is once
        assert svc.spill_count("app1") == 1 and svc.spill_count() == 2
        services.delete_app("never-ran")          # unknown app: no-op
        assert svc.spill_ids() == ["b", "c"]
        services.delete_app("app1")
        # The second app's spill survives; the dropped one stays gone.
        assert svc.spill_ids() == ["c"]
        assert svc.spill_count("app1") == 0 and svc.spill_count("app2") == 1
        assert svc.fetch("c", 0, "app2", tok2) == [3]
        with pytest.raises(SpillLost):
            svc.fetch("a", 0, "app1", tok1)
        # An id freed by delete_app can be registered again.
        svc.register_spill("app1", "b", {0: [4]}, token=tok1)
        assert svc.spill_count("app1") == 1
        services.delete_app("app2")
        services.delete_app("app1")
        assert svc.spill_ids() == [] and svc.spill_count() == 0

    def test_app_cleanup_visits_only_the_apps_nodes(self, monkeypatch):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        services.on_node("node0001").register_spill(
            "app1", "a", {0: [1]}, token=tok)
        services.on_node("node0003").register_spill(
            "app1", "b", {0: [2]}, token=tok)
        assert services.app_nodes("app1") == ["node0001", "node0003"]
        visited = []
        for node_id, service in services.services.items():
            monkeypatch.setattr(
                service, "delete_app",
                lambda app, _n=node_id, _d=service.delete_app: (
                    visited.append(_n), _d(app)))
        services.delete_app("app1")
        assert visited == ["node0001", "node0003"]
        assert services.app_nodes("app1") == []
        services.delete_app("app1")                # nothing left to visit
        assert visited == ["node0001", "node0003"]
        # Dropping a node's last spill of the app unlists the node.
        services.on_node("node0002").register_spill(
            "app1", "c", {0: [3]}, token=tok)
        services.on_node("node0002").drop_spill("c")
        assert services.app_nodes("app1") == []

    @given(st.lists(st.tuples(
        st.sampled_from(["register", "drop", "delete_app", "delete_here"]),
        st.sampled_from(["app1", "app2"]), st.integers(0, 2),
        st.integers(0, 2)), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_app_node_index_agrees_with_spill_counts(self, ops):
        # Whatever registers, drops (fault injection's path) and
        # deletes did, an app is indexed under exactly the nodes whose
        # service still counts a spill of it.
        env, cluster, security, services = make_services()
        tokens = {app: security.issue("JOB", app) for app in ("app1",
                                                              "app2")}
        node_ids = sorted(services.services)
        for op, app, node, n in ops:
            svc = services.on_node(node_ids[node])
            spill_id = f"{app}-s{n}"
            if op == "register" and spill_id not in svc.spill_ids():
                svc.register_spill(app, spill_id, {0: [n]},
                                   token=tokens[app])
            elif op == "drop":
                svc.drop_spill(spill_id)
            elif op == "delete_app":
                services.delete_app(app)
            elif op == "delete_here":
                svc.delete_app(app)
            for each in ("app1", "app2"):
                assert services.app_nodes(each) == [
                    node_id for node_id in node_ids
                    if services.on_node(node_id).spill_count(each)]

    def test_bytes_per_record_hint(self):
        env, cluster, security, services = make_services()
        tok = security.issue("JOB", "app1")
        refs = services.on_node("node0000").register_spill(
            "app1", "s1", {0: [1, 2, 3]}, token=tok,
            bytes_per_record=1000,
        )
        assert refs[0].nbytes == 3000


class TestFetcher:
    def run_fetch(self, error_rate=0.0, kill_node=False):
        spec = ClusterSpec(num_nodes=4, nodes_per_rack=2,
                           shuffle_transient_error_rate=error_rate)
        env = Environment()
        cluster = Cluster(env, spec)
        security = SecurityManager()
        services = ShuffleServices(cluster, security)
        tok = security.issue("JOB", "app1")
        refs = services.on_node("node0000").register_spill(
            "app1", "s1", {0: [("k", 1)] * 10}, token=tok
        )
        if kill_node:
            cluster.crash_node("node0000")
        fetcher = Fetcher(env, cluster, services, "app1",
                          reader_node="node0003", job_token=tok)
        proc = env.process(fetcher.fetch(refs[0]))
        env.run()
        return proc, fetcher

    def test_basic_fetch(self):
        proc, fetcher = self.run_fetch()
        assert proc.value == [("k", 1)] * 10
        assert fetcher.bytes_fetched > 0

    def test_transient_errors_retried(self):
        proc, fetcher = self.run_fetch(error_rate=0.5)
        assert proc.value == [("k", 1)] * 10
        assert fetcher.retries >= 0  # retried internally, still done

    def test_jitter_generator_is_seeded_on_first_use(self):
        """A clean fetch draws nothing and builds no generator; the
        first draw sees the sequence an eagerly seeded one would."""
        import random

        proc, fetcher = self.run_fetch()
        assert proc.value and fetcher._rng is None
        eager = random.Random(fetcher.cluster.spec.seed)
        assert [fetcher.rng.random() for _ in range(3)] == \
            [eager.random() for _ in range(3)]
        _proc, blippy = self.run_fetch(error_rate=0.5)
        assert blippy._rng is not None
        given = random.Random(7)
        assert Fetcher(fetcher.env, fetcher.cluster, fetcher.services,
                       "app1", "node0003", rng=given).rng is given

    def test_lost_spill_raises_fetch_failure(self):
        spec = ClusterSpec(num_nodes=4, nodes_per_rack=2)
        env = Environment()
        cluster = Cluster(env, spec)
        security = SecurityManager()
        services = ShuffleServices(cluster, security)
        tok = security.issue("JOB", "app1")
        refs = services.on_node("node0000").register_spill(
            "app1", "s1", {0: [1]}, token=tok
        )
        cluster.crash_node("node0000")
        fetcher = Fetcher(env, cluster, services, "app1",
                          reader_node="node0003", job_token=tok)
        caught = []

        def body():
            try:
                yield env.process(fetcher.fetch(refs[0]))
            except FetchFailure as exc:
                caught.append(exc.ref)

        env.process(body())
        env.run()
        assert caught and caught[0].spill_id == "s1"

    def test_local_fetch_faster_than_remote(self):
        spec = ClusterSpec(num_nodes=4, nodes_per_rack=2)
        env = Environment()
        cluster = Cluster(env, spec)
        security = SecurityManager()
        services = ShuffleServices(cluster, security)
        tok = security.issue("JOB", "app1")
        refs = services.on_node("node0000").register_spill(
            "app1", "s1", {0: [("k", "v" * 100)] * 5000}, token=tok,
            bytes_per_record=10_000,
        )

        def timed(node):
            f = Fetcher(env, cluster, services, "app1",
                        reader_node=node, job_token=tok)
            start = env.now
            proc = env.process(f.fetch(refs[0]))
            env.run(until=proc)
            return env.now - start

        local = timed("node0000")
        remote = timed("node0003")
        assert local < remote


def test_fetch_processes_and_spans_name_their_attempt():
    """A reducer on the generator attempt path fetches each partition in
    a child process named for the attempt; the fetch span carries the
    attempt as ``owner`` and its DAG as ``dag``."""
    sim = make_sim()
    spawned = []
    process = sim.env.process

    def named_process(generator, name=""):
        proc = process(generator, name=name)
        spawned.append(proc.name)
        return proc

    sim.env.process = named_process
    paths = [f"/in/{i}" for i in range(3)]
    for path in paths:
        sim.hdfs.write(path, [(j % 4, j) for j in range(20)])
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", paths)
    # The HDFS sink keeps the reducers off the inline attempt path.
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]]}, 2)
    hdfs_sink(r, "out", "/out/named")
    dag = DAG("named").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    status, _ = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    attempts = ["named#1/r/t0_a0", "named#1/r/t1_a0"]
    assert sorted(name for name in spawned if name.startswith("fetch:")) \
        == sorted(f"fetch:{attempt}" for attempt in attempts for _ in paths)
    spans = sim.telemetry.store.spans(kind="fetch")
    assert sorted((span.name, span.attrs["owner"], span.attrs["dag"])
                  for span in spans) == sorted(
        (f"named#1/m/t{source}_a0/r:p{partition}", attempt, "named#1")
        for partition, attempt in enumerate(attempts)
        for source in range(len(paths)))


# ------------------------------------------------------------------
# The specialised record kernels against the kernels they replaced.
# The `_ref_*` functions are verbatim copies of the code as it stood
# before the kernels specialised on observed key types; keep them
# frozen.

def _ref_sort_key(key):
    if key is None:
        return ("", 0)
    if isinstance(key, bool):
        return ("bool", key)
    if isinstance(key, (int, float)):
        return ("num", key)
    if isinstance(key, str):
        return ("str", key)
    if isinstance(key, bytes):
        return ("bytes", key)
    if isinstance(key, tuple):
        return ("tuple", tuple(_ref_sort_key(k) for k in key))
    return ("obj", str(key))


def _ref_kv_sort_key(kv):
    return _ref_sort_key(kv[0])


def _ref_sort_records(kvs):
    return sorted(kvs, key=_ref_kv_sort_key)


def _ref_group_by_key(sorted_kvs):
    current_key = None
    current_tag = None
    values = []
    first = True
    for key, value in sorted_kvs:
        tag = _ref_sort_key(key)
        if first:
            current_key, current_tag = key, tag
            values = [value]
            first = False
        elif tag == current_tag:
            values.append(value)
        else:
            yield current_key, values
            current_key, current_tag = key, tag
            values = [value]
    if not first:
        yield current_key, values


class _MyInt(int):
    """An int subclass: tagged "num", but never on the native path."""

    def __repr__(self):
        return f"_MyInt({int(self)})"


_NAN = float("nan")
# Small domains, so equal keys (and 1 == 1.0 == True) actually meet.
_ints = st.integers(-3, 3)
_floats = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, _NAN, float("nan"),
     float("inf"), float("-inf")])
_nums = st.one_of(_ints, _floats)
_strs = st.text("ab", max_size=2)
_bytes = st.binary(max_size=2)
_scalars = st.one_of(st.none(), st.booleans(), _nums, _strs, _bytes,
                     _ints.map(_MyInt))
_any_key = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3).map(tuple),
                            st.lists(inner, max_size=2)),
    max_leaves=6)
# One family per list, so the native paths are actually taken; then
# the families that must fall back to the tagged path; then anything.
_key_lists = st.one_of(*(st.lists(family, max_size=24) for family in (
    _ints, _floats, _nums, _strs, _bytes,
    st.tuples(_ints, _strs), st.tuples(_floats, _bytes, _ints),
    st.just(()),
    st.one_of(st.booleans(), _ints),                # "bool" < "num"
    st.one_of(st.none(), _ints),
    st.one_of(_ints.map(_MyInt), _ints),
    st.tuples(_nums, _strs),                        # int/float per field
    st.lists(_ints, max_size=3).map(tuple),         # ragged tuples
    st.tuples(_ints, st.tuples(_strs, _nums)),      # nested tuples
    st.tuples(st.one_of(st.booleans(), _ints), _strs),
    _any_key,
)))


def _same(got, want):
    """Equal lists in equal order, exact types included: `==` alone
    takes 1 for 1.0 and 0.0 for -0.0, and no NaN for another."""
    return repr(got) == repr(want)


class TestRecordKernelEquivalence:
    @given(_any_key)
    @settings(max_examples=200, deadline=None)
    def test_sort_key_tag_table(self, key):
        assert _same(sort_key(key), _ref_sort_key(key))

    @given(_key_lists)
    @settings(max_examples=400, deadline=None)
    def test_sort_records(self, ks):
        kvs = [(k, i) for i, k in enumerate(ks)]
        got, want = sort_records(kvs), _ref_sort_records(kvs)
        assert got is not kvs
        # The very same record objects, in the very same order.
        assert list(map(id, got)) == list(map(id, want))

    @given(_key_lists, st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    def test_merge_and_group(self, ks, n_runs):
        kvs = [(k, i) for i, k in enumerate(ks)]
        runs = [_ref_sort_records(kvs[r::n_runs]) for r in range(n_runs)]
        want = list(_ref_group_by_key(_ref_sort_records(
            [kv for run in runs for kv in run])))
        assert _same(merge_and_group(runs), want)
        assert _same(merge_and_group(iter(runs)), want)
        # the combiner's use (one unsorted run),
        assert _same(merge_and_group([kvs]),
                     list(_ref_group_by_key(_ref_sort_records(kvs))))
        # and the streaming grouper is unchanged.
        merged = _ref_sort_records(kvs)
        assert _same(list(group_by_key(merged)),
                     list(_ref_group_by_key(merged)))

    @given(_key_lists)
    @settings(max_examples=300, deadline=None)
    def test_sort_keys_is_sort_key_of_every_key(self, ks):
        # The list form the engines' grouping, join and order kernels
        # use: same tags, same key objects, whichever path tagged them.
        got = list(sort_keys(ks))
        assert _same(got, list(map(_ref_sort_key, ks)))
        assert all(tagged[1] is key for tagged, key in zip(got, ks)
                   if type(key) in (bool, int, float, str, bytes))

    def test_int_float_ties_keep_first_seen_key(self):
        runs = [[(1, "a"), (2.0, "b")], [(1.0, "c"), (2, "d")]]
        assert _same(merge_and_group(runs),
                     [(1, ["a", "c"]), (2.0, ["b", "d"])])

    def test_bool_never_sorts_as_int(self):
        kvs = [(1, "int"), (True, "bool"), (0, "zero"), (False, "f")]
        assert _same(sort_records(kvs), [(False, "f"), (True, "bool"),
                                         (0, "zero"), (1, "int")])
        assert _same(merge_and_group([kvs]),
                     [(False, ["f"]), (True, ["bool"]),
                      (0, ["zero"]), (1, ["int"])])

    def test_short_lists(self):
        assert sort_records([]) == [] and merge_and_group([]) == []
        assert merge_and_group([[], []]) == []
        one = [(None, 1)]
        assert sort_records(one) == one and sort_records(one) is not one
        assert merge_and_group([one, []]) == [(None, [1])]


class TestRangePartitionerTotalOrder:
    """The range partitioner shares the sorter's total order."""

    def test_null_and_mixed_keys_partition(self):
        sample = [(None,), (3,), ("x",), (1,), (None,), (2.5,)]
        p = RangePartitioner.from_sample(sample, 3)
        ordered = sorted(sample, key=sort_key)
        parts = [p.partition(k, 3) for k in ordered]
        assert parts == sorted(parts) and set(parts) <= {0, 1, 2}
        assert p.partition((None,), 3) == 0

    def test_unsorted_in_tag_order_rejected(self):
        RangePartitioner([None, 1, "a"])            # "" < "num" < "str"
        with pytest.raises(ValueError):
            RangePartitioner(["a", 1])

    @given(st.lists(_ints, min_size=1, max_size=50), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_homogeneous_keys_partition_as_native_bisect(self, sample, n):
        import bisect
        p = RangePartitioner.from_sample(sample, n)
        assert p.boundaries == RangePartitioner.from_sample(
            sorted(sample), n).boundaries
        for k in range(-5, 6):
            assert p.partition(k, n) == min(
                bisect.bisect_left(p.boundaries, k), n - 1)


def _run_mixed_key_dag():
    """8 x 8 ordered scatter-gather over real rows whose keys mix every
    type the sorter tags; odd map tasks carry plain ints only, so both
    the tagged and the native kernels run."""
    pool = [0, 1, 1.0, True, False, None, -0.0, 2.5, float("inf"), "a", "",
            "ab", b"a", b"", (1, "x"), (1.0, "x"), (2, "x"), (1, (2, None)),
            (), 7, 8, 9, 10, -3, "k7", "k8"]
    sim = make_sim(hdfs_block_size=1 << 20)
    for part in range(8):       # one block, so one map task, per file
        if part % 2:
            rows = [(i % 13, i) for i in range(400)]
        else:
            rows = [(pool[(i * 7 + part) % len(pool)], (i, f"v{part}"))
                    for i in range(400)]
        sim.hdfs.write(f"/in/{part}", rows)

    def emit(ctx, data):
        return {"r": list(data["src"])}

    def collect(ctx, data):
        return {"out": [(repr(k), vs) for k, vs in data["m"]]}

    m = fn_vertex("m", emit, -1)
    hdfs_source(m, "src", [f"/in/{part}" for part in range(8)],
                max_splits=8)
    r = fn_vertex("r", collect, 8)
    hdfs_sink(r, "out", "/out")
    dag = DAG("mixed-keys").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    status, _ = run_dag(sim, dag)
    assert status.succeeded, status.diagnostics
    assert status.metrics["tasks_succeeded"] == 16
    rows = sim.hdfs.read_file("/out")
    return status.elapsed, len(rows), hashlib.sha256(
        repr(rows).encode()).hexdigest()


def test_mixed_key_dag_matches_golden():
    # Golden values recorded from the parent of the commit that
    # specialised the kernels: committed rows (order included) and the
    # simulated makespan, which the spill sizes feed.
    assert _run_mixed_key_dag() == (
        5.006733498921463, 30,
        "f8fd239af9791c838c69393bd76c0de6"
        "ba0d19dceb7d163e7b0e9b87e4823597")
