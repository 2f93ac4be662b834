"""Pig engine tests: model validation + differential Tez/MR vs reference."""

import pytest

from repro.engines.pig import PigRunner, PigScript

from helpers import make_sim

LOGS = [
    # (user, page, ms, status)
    ("u1", "/home", 120, 200),
    ("u2", "/home", 80, 200),
    ("u1", "/cart", 300, 500),
    ("u3", "/item", 40, 200),
    ("u2", "/item", 55, 404),
    ("u1", "/home", 95, 200),
    ("u4", "/cart", 210, 200),
    ("u3", "/home", 65, 200),
    ("u2", "/cart", 130, 500),
    ("u5", "/item", 20, 200),
]

USERS = [
    ("u1", "EU"), ("u2", "US"), ("u3", "EU"), ("u4", "APAC"),
]


@pytest.fixture
def env():
    sim = make_sim()
    sim.hdfs.write("/data/logs", LOGS, record_bytes=48)
    sim.hdfs.write("/data/users", USERS, record_bytes=24)
    return sim, PigRunner(sim)


def logs(script):
    return script.load("/data/logs",
                       ["user", "page", "ms", "status"])


def users(script):
    return script.load("/data/users", ["user", "region"])


def run_both(sim, runner, build):
    """Run the same script on reference and Tez; return both."""
    ref = runner.run(build(), backend="reference")
    tez = runner.run(build(), backend="tez")
    return ref, tez


def assert_outputs_match(a, b, ordered=False):
    assert set(a.outputs) == set(b.outputs)
    for path in a.outputs:
        rows_a, rows_b = a.outputs[path], b.outputs[path]
        if ordered:
            assert rows_a == rows_b
        else:
            assert sorted(rows_a, key=repr) == sorted(rows_b, key=repr)


def test_filter_foreach(env):
    sim, runner = env

    def build():
        s = PigScript("clean")
        ok = logs(s).filter(lambda r: r["status"] == 200)
        shaped = ok.foreach(
            lambda r: {"user": r["user"], "slow": r["ms"] > 100},
            ["user", "slow"],
        )
        shaped.store("/out/clean")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    assert len(tez.outputs["/out/clean"]) == 7
    runner.close()


def test_aggregate_group(env):
    sim, runner = env

    def build():
        s = PigScript("agg")
        stats = logs(s).aggregate(
            ["page"],
            {"hits": ("count", None), "total_ms": ("sum", "ms"),
             "worst": ("max", "ms"), "avg_ms": ("avg", "ms")},
        )
        stats.store("/out/stats")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr)
    runner.close()


def test_group_bags(env):
    sim, runner = env

    def build():
        s = PigScript("bags")
        grouped = logs(s).group_by(["user"])
        counted = grouped.foreach(
            lambda r: {"user": r["group"], "n": len(r["bag"])},
            ["user", "n"],
        )
        counted.store("/out/bags")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr)
    runner.close()


def test_join_union_distinct(env):
    sim, runner = env

    def build():
        s = PigScript("mix")
        l = logs(s)
        u = users(s)
        joined = l.join(u, ["user"], ["user"])
        eu = joined.filter(lambda r: r["region"] == "EU")
        us = joined.filter(lambda r: r["region"] == "US")
        both = eu.union(us)
        pages = both.foreach(lambda r: {"page": r["page"]}, ["page"])
        pages.distinct().store("/out/pages")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr)
    runner.close()


def test_left_join(env):
    sim, runner = env

    def build():
        s = PigScript("left")
        joined = logs(s).join(users(s), ["user"], ["user"], how="left")
        joined.store("/out/left")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr)
    # u5 has no user row -> joined with None region.
    rows = dict()
    runner.close()


def test_order_by_sample_histogram(env):
    sim, runner = env

    def build():
        s = PigScript("order")
        ordered = logs(s).order_by(["ms"], ascending=True, parallel=3)
        ordered.store("/out/ordered")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez, ordered=True)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr, ordered=True)
    runner.close()


def test_order_by_descending(env):
    sim, runner = env

    def build():
        s = PigScript("orderdesc")
        logs(s).order_by(["ms"], ascending=False, parallel=2) \
            .store("/out/desc")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez, ordered=True)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr, ordered=True)
    runner.close()


@pytest.mark.parametrize("ascending", [True, False])
def test_order_by_null_and_mixed_type_key(ascending):
    # A NULL-bearing (and mixed-type) ORDER BY key: the range
    # partitioner must order keys the way the sorter does, not with
    # native `<` (TypeError: NoneType vs int).
    sim = make_sim()
    rows = [(f"u{i:02d}", None if i % 4 == 0 else "n/a" if i % 7 == 0
             else (i * 37) % 50) for i in range(60)]
    sim.hdfs.write("/data/sparse", rows, record_bytes=24)
    runner = PigRunner(sim)

    def build():
        s = PigScript("ordernull")
        s.load("/data/sparse", ["user", "ms"]) \
            .order_by(["ms", "user"], ascending=ascending, parallel=3) \
            .store("/out/ordernull")
        return s

    ref, tez = run_both(sim, runner, build)
    assert len(ref.outputs["/out/ordernull"]) == 60
    assert_outputs_match(ref, tez, ordered=True)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr, ordered=True)
    runner.close()


def test_skewed_join(env):
    sim, runner = env
    # Heavily skewed key distribution.
    skewed = [("hot", i) for i in range(50)] + [("cold", 1), ("warm", 2)]
    dims = [("hot", "H"), ("cold", "C"), ("warm", "W")]
    sim.hdfs.write("/data/skewed", skewed, record_bytes=16)
    sim.hdfs.write("/data/dims", dims, record_bytes=16)

    def build():
        s = PigScript("skew")
        facts = s.load("/data/skewed", ["k", "v"])
        d = s.load("/data/dims", ["k", "label"])
        joined = facts.join(d, ["k"], ["k"], skewed=True)
        joined.store("/out/skewjoin")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    assert len(tez.outputs["/out/skewjoin"]) == 52
    runner.close()


def test_multi_store_shared_relation(env):
    sim, runner = env

    def build():
        s = PigScript("multi")
        ok = logs(s).filter(lambda r: r["status"] == 200)
        by_user = ok.aggregate(["user"], {"n": ("count", None)})
        by_page = ok.aggregate(["page"], {"n": ("count", None)})
        by_user.store("/out/by_user")
        by_page.store("/out/by_page")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(ref, mr)
    # Tez executes the whole thing as one DAG; MR needs several jobs.
    assert tez.jobs == 1
    assert mr.jobs >= 3
    runner.close()


def test_flatten(env):
    sim, runner = env

    def build():
        s = PigScript("flat")
        words = logs(s).flatten(
            lambda r: [{"c": ch} for ch in r["page"].strip("/")],
            ["c"],
        )
        counts = words.aggregate(["c"], {"n": ("count", None)})
        counts.store("/out/chars")
        return s

    ref, tez = run_both(sim, runner, build)
    assert_outputs_match(ref, tez)
    runner.close()


def test_limit(env):
    sim, runner = env

    def build():
        s = PigScript("lim")
        logs(s).order_by(["ms"], parallel=2).limit(3) \
            .store("/out/top3")
        return s

    ref, tez = run_both(sim, runner, build)
    assert len(tez.outputs["/out/top3"]) == 3
    assert_outputs_match(ref, tez, ordered=True)
    runner.close()


def test_tez_beats_mr_on_multistage_script(env):
    sim, runner = env

    def build():
        s = PigScript("perf")
        ok = logs(s).filter(lambda r: r["status"] == 200)
        joined = ok.join(users(s), ["user"], ["user"])
        stats = joined.aggregate(
            ["region"], {"n": ("count", None), "ms": ("sum", "ms")}
        )
        stats.order_by(["region"], parallel=2).store("/out/perf")
        return s

    tez = runner.run(build(), backend="tez")
    mr = runner.run(build(), backend="mr")
    assert_outputs_match(tez, mr, ordered=True)
    assert tez.elapsed < mr.elapsed
    runner.close()


class TestModelValidation:
    def test_store_required(self):
        s = PigScript("empty")
        s.load("/x", ["a"])
        with pytest.raises(ValueError):
            s.validate()

    def test_union_schema_mismatch(self):
        s = PigScript("u")
        a = s.load("/x", ["a"])
        b = s.load("/y", ["b"])
        with pytest.raises(ValueError):
            a.union(b)

    def test_unknown_group_key(self):
        s = PigScript("g")
        a = s.load("/x", ["a"])
        with pytest.raises(ValueError):
            a.group_by(["nope"])

    def test_join_arity_mismatch(self):
        s = PigScript("j")
        a = s.load("/x", ["a"])
        b = s.load("/y", ["b"])
        with pytest.raises(ValueError):
            a.join(b, ["a"], [])

    def test_cross_script_store_rejected(self):
        s1, s2 = PigScript("one"), PigScript("two")
        a = s1.load("/x", ["a"])
        with pytest.raises(ValueError):
            s2.store(a, "/out")

    def test_bad_aggregate(self):
        s = PigScript("a")
        a = s.load("/x", ["a"])
        with pytest.raises(ValueError):
            a.aggregate(["a"], {"x": ("median", "a")})
