"""Property-based differential testing: Hive backends vs reference.

Hypothesis generates random table contents; every query template must
produce identical rows on the in-memory reference executor and the
distributed Tez backend (and spot-checks MapReduce).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engines.hive import Catalog, HiveSession

from helpers import make_sim

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 20),                      # k
        st.integers(-100, 100),                  # v
        st.sampled_from(["red", "green", "blue", "teal"]),  # color
        st.floats(min_value=-100, max_value=100,
                  allow_nan=False, allow_infinity=False),   # score
    ),
    min_size=0, max_size=60,
)

dim_strategy = st.lists(
    st.tuples(st.integers(0, 20), st.sampled_from(["x", "y", "z"])),
    min_size=0, max_size=15,
    unique_by=lambda r: r[0],
)

TEMPLATES = [
    "SELECT k, v FROM facts WHERE v > 0",
    "SELECT color, COUNT(*) AS n, SUM(v) AS sv FROM facts "
    "GROUP BY color",
    "SELECT k, MIN(score), MAX(score) FROM facts GROUP BY k",
    "SELECT COUNT(DISTINCT k) FROM facts",
    "SELECT color FROM facts WHERE k IN (1, 2, 3)",
    "SELECT f.k, d.tag FROM facts f JOIN dims d ON f.k = d.dk",
    "SELECT f.k, d.tag FROM facts f LEFT JOIN dims d ON f.k = d.dk",
    "SELECT k, v FROM facts ORDER BY v DESC, k LIMIT 5",
    "SELECT DISTINCT color FROM facts",
    "SELECT color, AVG(v) AS av FROM facts GROUP BY color "
    "HAVING COUNT(*) > 1 ORDER BY av DESC",
]


def canon(rows):
    """No tolerance: the one float column is only MIN / MAX-ed and every
    SUM / AVG here is over small integers, so the arithmetic is exact in
    any order (``helpers.rows_close`` is for reordered float sums)."""
    return sorted(map(tuple, rows), key=repr)


@pytest.mark.parametrize("sql", TEMPLATES)
@given(facts=rows_strategy, dims=dim_strategy)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
def test_tez_matches_reference_on_random_data(sql, facts, dims):
    sim = make_sim(num_nodes=2, nodes_per_rack=2)
    catalog = Catalog()
    catalog.create_table(sim.hdfs, "facts",
                         ["k", "v", "color", "score"], facts)
    catalog.create_table(sim.hdfs, "dims", ["dk", "tag"], dims)
    session = HiveSession(sim, catalog)
    ref = session.run(sql, backend="reference")
    tez = session.run(sql, backend="tez")
    assert canon(tez.rows) == canon(ref.rows)
    session.close()
