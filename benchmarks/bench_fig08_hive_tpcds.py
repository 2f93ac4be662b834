"""Figure 8: Hive TPC-DS derived workload — Tez vs MapReduce.

Paper setup: 30 TB scale on a 20-node cluster (16 cores, 256 GB RAM);
Figure 8 plots per-query runtimes for Hive 0.14 on Tez vs Hive on
MapReduce, with Tez winning every query (largest factors on short,
multi-join interactive queries thanks to broadcast joins, dynamic
partition pruning and container reuse).

Here: the TPC-DS-like star schema at simulation scale on a simulated
20-node cluster; same per-query comparison, same expected shape.

Run: pytest benchmarks/bench_fig08_hive_tpcds.py --benchmark-only -q -s
"""

import pytest

from repro import SimCluster
from repro.bench import BenchTable, rows_close, speedup
from repro.engines.hive import Catalog, HiveSession
from repro.workloads import TPCDS_QUERIES, generate_tpcds, register_tpcds

from bench_common import PAPER_NOTES, SCALE, finish_bench


def build_session():
    sim = SimCluster(num_nodes=20, nodes_per_rack=10)
    catalog = Catalog()
    register_tpcds(catalog, sim.hdfs, generate_tpcds(scale=SCALE),
                   row_bytes_factor=50)
    return HiveSession(sim, catalog)


def run_workload():
    session = build_session()
    session.prewarm(16)
    table = BenchTable(
        "Figure 8 — Hive: TPC-DS derived workload (Tez vs MR)",
        ["query", "tez_s", "mr_s", "speedup"],
    )
    speedups = []
    for name in sorted(TPCDS_QUERIES):
        sql = TPCDS_QUERIES[name]
        tez = session.run(sql, backend="tez")
        mr = session.run(sql, backend="mr")
        assert rows_close(tez.rows, mr.rows)
        s = speedup(mr.elapsed, tez.elapsed)
        speedups.append(s)
        table.add(name, tez.elapsed, mr.elapsed, s)
    table.note(f"paper: {PAPER_NOTES['fig8']}")
    table.note(
        f"measured: tez wins {sum(1 for s in speedups if s > 1)}/"
        f"{len(speedups)} queries, "
        f"geo-mean speedup {_geomean(speedups):.2f}x"
    )
    session.close()
    finish_bench(session.sim, table, label="fig08")
    table.show()
    return speedups


def _geomean(values):
    product = 1.0
    for v in values:
        product *= v
    return product ** (1 / len(values))


def test_fig08_hive_tpcds(benchmark):
    speedups = benchmark.pedantic(run_workload, rounds=1, iterations=1)
    # The paper's headline shape: Tez wins every query.
    assert all(s > 1.0 for s in speedups)


if __name__ == "__main__":
    run_workload()
