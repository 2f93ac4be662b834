"""Workload generators + end-to-end correctness on benchmark queries."""

import pytest

from repro.engines.hive import Catalog, HiveSession
from repro.engines.pig import PigRunner
from repro.workloads import (
    TPCDS_QUERIES,
    TPCH_QUERIES,
    build_script,
    centroids_from_rows,
    generate_points,
    generate_tpcds,
    generate_tpch,
    initial_centroids,
    kmeans_iteration_script,
    load_etl_data,
    reference_kmeans_step,
    register_tpcds,
    register_tpch,
)

from helpers import make_sim, rows_close


class TestGenerators:
    def test_tpch_determinism_and_shape(self):
        a = generate_tpch(1, seed=5)
        b = generate_tpch(1, seed=5)
        assert a.lineitem == b.lineitem
        assert len(a.customer) == 150
        assert len(a.orders) == 1500
        # Lineitems reference valid orders.
        order_keys = {o[0] for o in a.orders}
        assert all(l[0] in order_keys for l in a.lineitem)

    def test_tpcds_star_integrity(self):
        t = generate_tpcds(1)
        item_keys = {i[0] for i in t.item}
        date_keys = {d[0] for d in t.date_dim}
        assert all(s[1] in item_keys for s in t.store_sales)
        assert all(s[0] in date_keys for s in t.store_sales)

    def test_kmeans_reference_converges(self):
        points = generate_points(500, k=3)
        centroids = initial_centroids(points, 3)
        for _ in range(15):
            centroids = reference_kmeans_step(points, centroids)
        again = reference_kmeans_step(points, centroids)
        drift = max(
            abs(a - b) for c1, c2 in zip(centroids, again)
            for a, b in zip(c1, c2)
        )
        assert drift < 1.0


@pytest.fixture(scope="module")
def tpch_session():
    sim = make_sim(num_nodes=4, nodes_per_rack=2)
    catalog = Catalog()
    register_tpch(catalog, sim.hdfs, generate_tpch(1))
    return HiveSession(sim, catalog)


def assert_backends_agree(session, sql):
    """Tez rows == MR rows == reference rows, float sums up to their
    folding order (``rows_close``) and nothing else."""
    ref = session.run(sql, backend="reference")
    ordered = "ORDER BY" in sql.upper()
    for backend in ("tez", "mr"):
        got = session.run(sql, backend=backend)
        assert got.columns == ref.columns
        assert rows_close(got.rows, ref.rows, ordered), backend


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_queries_tez_vs_reference(tpch_session, name):
    assert_backends_agree(tpch_session, TPCH_QUERIES[name])


@pytest.fixture(scope="module")
def tpcds_session():
    sim = make_sim(num_nodes=4, nodes_per_rack=2)
    catalog = Catalog()
    register_tpcds(catalog, sim.hdfs, generate_tpcds(1))
    return HiveSession(sim, catalog)


@pytest.mark.parametrize("name", sorted(TPCDS_QUERIES))
def test_tpcds_queries_tez_vs_reference(tpcds_session, name):
    assert_backends_agree(tpcds_session, TPCDS_QUERIES[name])


def test_tpcds_dpp_query_uses_pruning(tpcds_session):
    from repro.engines.hive import Scan
    plan = tpcds_session.plan(TPCDS_QUERIES["q3_monthly_sales"])
    fact_scans = [
        n for n in plan.walk()
        if isinstance(n, Scan) and n.table.name == "store_sales"
    ]
    assert fact_scans and fact_scans[0].dpp is not None


@pytest.mark.parametrize("script_name", ["sessionize", "funnel",
                                         "reporting", "skew_join"])
def test_etl_scripts_tez_vs_reference(script_name):
    sim = make_sim(num_nodes=4, nodes_per_rack=2)
    load_etl_data(sim.hdfs, scale=1)
    runner = PigRunner(sim)
    ref = runner.run(build_script(script_name), backend="reference")
    for backend in ("tez", "mr"):
        got = runner.run(build_script(script_name), backend=backend)
        assert set(ref.outputs) == set(got.outputs)
        for path in ref.outputs:
            assert rows_close(ref.outputs[path], got.outputs[path]), \
                (backend, path)
    runner.close()


def test_kmeans_pig_iteration_matches_reference():
    sim = make_sim(num_nodes=2, nodes_per_rack=2)
    points = generate_points(400, k=3)
    sim.hdfs.write("/km/points", points, record_bytes=24)
    runner = PigRunner(sim)
    centroids = initial_centroids(points, 3)
    for i in range(3):
        script = kmeans_iteration_script(
            centroids, "/km/points", f"/km/out_{i}"
        )
        result = runner.run(script, backend="tez")
        rows = result.outputs[f"/km/out_{i}"]
        centroids = centroids_from_rows(rows, 3, centroids)
    # Reference from scratch for the same number of iterations.
    expected = initial_centroids(points, 3)
    for _ in range(3):
        expected = reference_kmeans_step(points, expected)
    for got, want in zip(centroids, expected):
        for a, b in zip(got, want):
            assert abs(a - b) < 1e-6
    runner.close()
