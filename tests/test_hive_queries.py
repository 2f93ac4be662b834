"""Differential Hive tests: Tez and MR backends must match reference."""

import pytest

from repro.engines.hive import (
    Catalog,
    HiveSession,
    Join,
    OptimizerConfig,
    Scan,
)

from helpers import make_sim


ORDERS = [
    # (o_id, o_custkey, o_total, o_status)
    (1, 10, 100.0, "OPEN"),
    (2, 11, 250.0, "DONE"),
    (3, 10, 75.5, "DONE"),
    (4, 12, 410.0, "OPEN"),
    (5, 13, 35.0, "DONE"),
    (6, 10, 500.0, "OPEN"),
    (7, 99, 5.0, "OPEN"),     # customer w/o row in customers
]

CUSTOMERS = [
    # (c_id, c_name, c_region)
    (10, "alice", "EU"),
    (11, "bob", "US"),
    (12, "carol", "EU"),
    (13, "dave", "APAC"),
    (14, "erin", "US"),       # customer without orders
]

LINEITEMS = [
    # (l_oid, l_qty, l_price, l_shipdate)  shipdate partitions
    (1, 2, 10.0, "1995"),
    (1, 1, 20.0, "1995"),
    (2, 5, 8.0, "1996"),
    (3, 3, 12.5, "1996"),
    (4, 7, 30.0, "1997"),
    (5, 1, 35.0, "1997"),
    (6, 10, 50.0, "1995"),
]


@pytest.fixture
def session():
    sim = make_sim(num_nodes=4, nodes_per_rack=2)
    catalog = Catalog()
    catalog.create_table(
        sim.hdfs, "orders",
        ["o_id", "o_custkey", "o_total", "o_status"], ORDERS,
    )
    catalog.create_table(
        sim.hdfs, "customers", ["c_id", "c_name", "c_region"], CUSTOMERS,
    )
    catalog.create_table(
        sim.hdfs, "lineitems",
        ["l_oid", "l_qty", "l_price", "l_shipdate"], LINEITEMS,
        partition_column="l_shipdate",
    )
    return HiveSession(sim, catalog)


QUERIES = [
    "SELECT o_id, o_total FROM orders WHERE o_total > 100",
    "SELECT o_status, COUNT(*) AS n, SUM(o_total) AS total "
    "FROM orders GROUP BY o_status",
    "SELECT COUNT(*) FROM orders",
    "SELECT COUNT(DISTINCT o_custkey) FROM orders",
    "SELECT AVG(o_total) FROM orders WHERE o_status = 'DONE'",
    "SELECT c_name, o_total FROM orders JOIN customers "
    "ON o_custkey = c_id WHERE o_total > 50",
    "SELECT c_region, SUM(o_total) AS rev FROM orders "
    "JOIN customers ON o_custkey = c_id "
    "GROUP BY c_region ORDER BY rev DESC",
    "SELECT o_id, c_name FROM orders LEFT JOIN customers "
    "ON o_custkey = c_id ORDER BY o_id",
    "SELECT o_status, o_total FROM orders "
    "ORDER BY o_total DESC LIMIT 3",
    "SELECT DISTINCT o_status FROM orders",
    "SELECT l_shipdate, SUM(l_qty * l_price) AS rev "
    "FROM lineitems GROUP BY l_shipdate ORDER BY l_shipdate",
    "SELECT c_name, COUNT(*) AS orders_n FROM orders "
    "JOIN customers ON o_custkey = c_id GROUP BY c_name "
    "HAVING COUNT(*) > 1 ORDER BY orders_n DESC, c_name",
    "SELECT upper(c_name) AS name FROM customers "
    "WHERE c_region IN ('EU', 'US') ORDER BY name",
    "SELECT o_id FROM orders WHERE o_total BETWEEN 50 AND 300 "
    "ORDER BY o_id",
    "SELECT c_name FROM customers WHERE c_name LIKE 'a%'",
    "SELECT l_qty, l_price FROM lineitems "
    "WHERE l_shipdate = '1995' ORDER BY l_price",
    "SELECT o_status, AVG(o_total) FROM orders GROUP BY o_status "
    "ORDER BY o_status LIMIT 1",
]


def norm(rows, sort=True):
    out = [tuple(r) for r in rows]
    return sorted(out, key=repr) if sort else out


@pytest.mark.parametrize("sql", QUERIES)
def test_tez_matches_reference(session, sql):
    ref = session.run(sql, backend="reference")
    tez = session.run(sql, backend="tez")
    assert tez.columns == ref.columns
    ordered = "ORDER BY" in sql.upper()
    assert norm(tez.rows, not ordered) == norm(ref.rows, not ordered)
    session.close()


@pytest.mark.parametrize("sql", QUERIES)
def test_mr_matches_reference(session, sql):
    ref = session.run(sql, backend="reference")
    mr = session.run(sql, backend="mr")
    assert mr.columns == ref.columns
    ordered = "ORDER BY" in sql.upper()
    assert norm(mr.rows, not ordered) == norm(ref.rows, not ordered)
    session.close()


EMPTY_INPUT_QUERIES = [
    # A global aggregate over no rows is one row (COUNT 0, SUM NULL) ...
    "SELECT COUNT(*), SUM(o_total) FROM orders WHERE o_total < 0",
    "SELECT COUNT(*) AS n, AVG(o_total) AS a, MIN(o_id) AS lo "
    "FROM orders WHERE o_status = 'NOPE'",
    "SELECT COUNT(*), SUM(x) FROM nothing",
    "SELECT COUNT(*) AS n FROM nothing ORDER BY n LIMIT 5",
    "SELECT COUNT(*) AS n FROM orders WHERE o_total < 0 "
    "HAVING COUNT(*) > 0",
    # ... and a grouped one is none.
    "SELECT o_status, COUNT(*) FROM orders WHERE o_total < 0 "
    "GROUP BY o_status",
]


@pytest.mark.parametrize("sql", EMPTY_INPUT_QUERIES)
def test_empty_input_aggregates_match_reference(session, sql):
    session.catalog.create_table(session.sim.hdfs, "nothing", ["x"], [])
    ref = session.run(sql, backend="reference")
    assert len(ref.rows) == ("GROUP BY" not in sql and "HAVING" not in sql)
    for backend in ("tez", "mr"):
        got = session.run(sql, backend=backend)
        assert got.columns == ref.columns
        assert norm(got.rows, False) == norm(ref.rows, False), backend
    session.close()


NULLABLE = [
    # (n_id, n_val)
    (1, 5), (2, None), (3, 12), (4, None), (5, 0),
]

# A NULL value or bound makes BETWEEN / IN False, negated or not - the
# rule every other comparison follows (`NULL = NULL` is False).
NULL_OPERAND_QUERIES = [
    ("n_val BETWEEN 0 AND 5", [1, 5]),
    ("n_val NOT BETWEEN 0 AND 5", [3]),
    ("n_val BETWEEN NULL AND 5", []),        # was a TypeError in a task
    ("n_val NOT BETWEEN NULL AND 5", []),
    ("n_val BETWEEN 0 AND NULL", []),
    ("n_val NOT BETWEEN 0 AND NULL", []),
    ("n_id BETWEEN n_val AND 12", [5]),
    ("n_val IN (5, NULL)", [1]),
    ("n_val NOT IN (5, 12)", [5]),
    ("NULL IN (1, NULL)", []),               # was every row
    ("NULL NOT IN (1, 2)", []),
    ("n_val IN (n_id, 5)", [1]),
    ("n_val IS NULL", [2, 4]),
    ("n_val IS NOT NULL", [1, 3, 5]),
]


@pytest.mark.parametrize("predicate, expected", NULL_OPERAND_QUERIES)
def test_null_operands_of_between_and_in(session, predicate, expected):
    session.catalog.create_table(
        session.sim.hdfs, "nullable", ["n_id", "n_val"], NULLABLE)
    sql = f"SELECT n_id FROM nullable WHERE {predicate} ORDER BY n_id"
    for backend in ("reference", "tez", "mr"):
        got = session.run(sql, backend=backend)
        assert [row[0] for row in got.rows] == expected, backend
    session.close()


def test_tez_query_is_single_dag_mr_is_many_jobs(session):
    sql = (
        "SELECT c_region, SUM(o_total) AS rev FROM orders "
        "JOIN customers ON o_custkey = c_id "
        "GROUP BY c_region ORDER BY rev DESC LIMIT 2"
    )
    tez = session.run(sql, backend="tez")
    mr = session.run(sql, backend="mr")
    assert tez.jobs == 1
    # The broadcast join is a map join inside the aggregate job's
    # mappers: agg, then sort + limit.
    assert mr.jobs == 2
    assert norm(tez.rows, False) == norm(mr.rows, False)
    # And Tez is faster end-to-end on the same cluster.
    assert tez.elapsed < mr.elapsed
    # A shuffle join is its own reduce-side job: join, agg, sort.
    shuffled = HiveSession(
        session.sim, session.catalog,
        optimizer_config=OptimizerConfig(enable_broadcast_join=False),
    ).run(sql, backend="mr")
    assert shuffled.jobs == 3
    assert norm(shuffled.rows, False) == norm(mr.rows, False)
    session.close()


def test_static_partition_pruning(session):
    plan = session.plan(
        "SELECT l_qty FROM lineitems WHERE l_shipdate = '1995'"
    )
    scans = [n for n in plan.walk() if isinstance(n, Scan)]
    assert scans[0].partition_values == ["1995"]


def test_broadcast_join_selected_for_small_dimension(session):
    plan = session.plan(
        "SELECT c_name FROM orders JOIN customers ON o_custkey = c_id"
    )
    joins = [n for n in plan.walk() if isinstance(n, Join)]
    assert joins[0].strategy == Join.BROADCAST


def test_shuffle_join_when_broadcast_disabled():
    sim = make_sim()
    catalog = Catalog()
    catalog.create_table(
        sim.hdfs, "orders",
        ["o_id", "o_custkey", "o_total", "o_status"], ORDERS,
    )
    catalog.create_table(
        sim.hdfs, "customers", ["c_id", "c_name", "c_region"], CUSTOMERS,
    )
    session = HiveSession(
        sim, catalog,
        optimizer_config=OptimizerConfig(enable_broadcast_join=False),
    )
    plan = session.plan(
        "SELECT c_name FROM orders JOIN customers ON o_custkey = c_id"
    )
    joins = [n for n in plan.walk() if isinstance(n, Join)]
    assert joins[0].strategy == Join.SHUFFLE
    ref = session.run(
        "SELECT c_name, o_total FROM orders JOIN customers "
        "ON o_custkey = c_id", backend="reference",
    )
    tez = session.run(
        "SELECT c_name, o_total FROM orders JOIN customers "
        "ON o_custkey = c_id", backend="tez",
    )
    assert norm(tez.rows) == norm(ref.rows)
    session.close()


def test_dynamic_partition_pruning_marked_and_correct(session):
    sql = (
        "SELECT l_qty, l_price FROM lineitems "
        "JOIN orders ON l_shipdate = o_status "
    )
    # Not a meaningful prune (no filter on dim): dpp not marked.
    plan = session.plan(sql)
    scans = [n for n in plan.walk() if isinstance(n, Scan)
             if n.table.name == "lineitems"]
    assert scans[0].dpp is None


def test_explain_produces_tree(session):
    text = session.explain(
        "SELECT c_region, COUNT(*) FROM orders JOIN customers "
        "ON o_custkey = c_id WHERE o_total > 10 GROUP BY c_region"
    )
    assert "Scan(orders" in text
    assert "Aggregate" in text


def test_column_pruning_limits_scan(session):
    plan = session.plan("SELECT o_id FROM orders")
    scan = [n for n in plan.walk() if isinstance(n, Scan)][0]
    assert scan.needed_columns == ["o_id"]


def test_unknown_column_rejected(session):
    from repro.engines.hive import PlanError
    with pytest.raises(PlanError):
        session.plan("SELECT nope FROM orders")


def test_ambiguous_column_rejected(session):
    from repro.engines.hive import PlanError
    session.catalog.register(
        type(session.catalog.get("orders"))(
            name="orders2",
            columns=["o_id", "x"],
            path="/warehouse/orders",
        )
    )
    with pytest.raises(PlanError):
        session.plan(
            "SELECT o_id FROM orders JOIN orders2 ON o_custkey = x"
        )


CASE_QUERIES = [
    "SELECT o_id, CASE WHEN o_total > 200 THEN 'high' "
    "WHEN o_total > 70 THEN 'mid' ELSE 'low' END AS band "
    "FROM orders ORDER BY o_id",
    "SELECT CASE WHEN o_status = 'OPEN' THEN 'o' ELSE 'c' END AS s, "
    "COUNT(*) AS n FROM orders GROUP BY "
    "CASE WHEN o_status = 'OPEN' THEN 'o' ELSE 'c' END ORDER BY s",
    "SELECT o_id, CASE WHEN o_total > 100 THEN o_total END AS t "
    "FROM orders ORDER BY o_id",
]


@pytest.mark.parametrize("sql", CASE_QUERIES)
def test_case_when_tez_matches_reference(session, sql):
    ref = session.run(sql, backend="reference")
    tez = session.run(sql, backend="tez")
    assert norm(tez.rows, False) == norm(ref.rows, False)
    session.close()


def test_case_when_parses_nested():
    from repro.engines.hive import parse
    q = parse(
        "SELECT CASE WHEN a = 1 THEN "
        "CASE WHEN b = 2 THEN 'x' ELSE 'y' END ELSE 'z' END FROM t"
    )
    expr = q.select[0].expr
    assert expr.eval({"a": 1, "b": 2}) == "x"
    assert expr.eval({"a": 1, "b": 3}) == "y"
    assert expr.eval({"a": 0, "b": 2}) == "z"


def test_case_without_when_rejected():
    from repro.engines.hive import ParseError, parse
    with pytest.raises(ParseError):
        parse("SELECT CASE ELSE 1 END FROM t")


def test_broadcast_join_over_a_shuffled_build_side_keeps_its_join_job(
        session):
    # Hand-set: the optimizer never broadcasts a side that holds a
    # shuffle join (a join is estimated at least as large as its
    # sides), but a plan may still say so.
    sql = (
        "SELECT c_region, o_total, l_qty FROM lineitems "
        "JOIN orders ON l_oid = o_id JOIN customers ON o_custkey = c_id"
    )
    shuffled = HiveSession(
        session.sim, session.catalog,
        optimizer_config=OptimizerConfig(broadcast_threshold_bytes=0),
    )
    optimize = shuffled.optimizer.optimize

    def broadcast_the_inner_join(plan):
        plan = optimize(plan)
        outer = next(n for n in plan.walk()
                     if isinstance(n, Join) and isinstance(n.left, Join))
        outer.children.reverse()
        outer.left_key, outer.right_key = outer.right_key, outer.left_key
        outer.strategy = Join.BROADCAST
        return plan

    shuffled.optimizer.optimize = broadcast_the_inner_join
    ref = shuffled.run(sql, backend="reference")
    mr = shuffled.run(sql, backend="mr")
    # Both joins are reduce-side jobs, then the final projection.
    assert mr.jobs == 3
    assert norm(mr.rows) == norm(ref.rows) and ref.rows
    session.close()
