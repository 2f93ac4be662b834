"""Generated Pig scripts on three backends: reference == Tez == MR.

Hypothesis draws rows and pushes them through fixed script templates -
grouped, two-key and global aggregates, inner and left joins, DISTINCT,
and ORDER BY one key descending and two keys ascending - on the
in-memory reference, Pig-on-Tez and Pig-on-MapReduce. Keys are drawn
from NULL, ``True``, ``False``, ``0``, ``1``, ``1.0``, ``2`` and
strings, the corners of the tagged-equality contract (``True`` is not
``1``, ``1`` is ``1.0``, NULLs group and join); measures from NULL,
small ints and non-integral floats. Rows compare with
``repro.bench.rows_close``, in order after an ORDER BY: Tez and MR fold
a float SUM / AVG one partial state per split, the reference one row at
a time.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engines.pig import PigRunner, PigScript

from helpers import make_sim, rows_close

_keys = st.sampled_from([None, True, False, 0, 1, 1.0, 2, "a", "b"])
_measures = st.one_of(
    st.none(), st.integers(-5, 5),
    st.floats(-100, 100).filter(lambda v: not v.is_integer()))
facts_strategy = st.lists(st.tuples(_keys, _keys, _measures), max_size=30)
dims_strategy = st.lists(st.tuples(_keys, st.sampled_from(["x", "y"])),
                         max_size=8)

AGGS = {"n": ("count", None), "nm": ("count", "m"), "s": ("sum", "m"),
        "a": ("avg", "m"), "lo": ("min", "m"), "hi": ("max", "m")}


TEMPLATES = {
    "grouped": lambda facts, dims: facts.aggregate(["k"], AGGS),
    "global": lambda facts, dims: facts.aggregate([], AGGS),
    "two_keys": lambda facts, dims: facts.aggregate(["k", "k2"], AGGS),
    "inner_join": lambda facts, dims: facts.join(dims, ["k"], ["dk"]),
    "left_join": lambda facts, dims: facts.join(dims, ["k"], ["dk"],
                                                how="left"),
    "distinct": lambda facts, dims: facts.foreach(
        lambda r: {"k": r["k"], "k2": r["k2"]}, ["k", "k2"]).distinct(),
    # Ordered over group keys, which are unique under tagged equality:
    # ties would leave the order among equal keys to each backend.
    "order_desc": lambda facts, dims: facts.aggregate(["k"], AGGS)
    .order_by(["k"], ascending=False),
    "order_two_keys": lambda facts, dims: facts.aggregate(
        ["k", "k2"], {"s": ("sum", "m")}).order_by(["k", "k2"]),
}
ORDERED = {"order_desc", "order_two_keys"}


@pytest.mark.parametrize("template", sorted(TEMPLATES))
@given(facts=facts_strategy, dims=dims_strategy)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_backends_match_reference_on_random_data(template, facts, dims):
    sim = make_sim(num_nodes=2, nodes_per_rack=2)
    sim.hdfs.write("/data/facts", facts, record_bytes=32)
    sim.hdfs.write("/data/dims", dims, record_bytes=16)
    runner = PigRunner(sim)

    def build():
        script = PigScript(template)
        TEMPLATES[template](script.load("/data/facts", ["k", "k2", "m"]),
                            script.load("/data/dims", ["dk", "tag"])
                            ).store("/out/result")
        return script

    ref = runner.run(build(), backend="reference").outputs["/out/result"]
    for backend in ("tez", "mr"):
        got = runner.run(build(), backend=backend).outputs["/out/result"]
        assert rows_close(got, ref, template in ORDERED), \
            (backend, got, ref)
    runner.close()
