"""Figure 9: Hive TPC-H derived workload at Yahoo scale — Tez vs MR.

Paper setup: 10 TB scale on a 350-node research cluster (16 cores,
24 GB RAM each); Figure 9 shows Tez-based Hive outperforming the
MapReduce implementation at large cluster scale.

Here: the TPC-H-like schema on a simulated 350-node cluster with the
paper's smaller per-node memory. The point under test is that the Tez
advantage *persists at cluster scale* (scheduling and allocation
overheads grow with node count and Tez amortizes them via reuse).

Run: pytest benchmarks/bench_fig09_hive_tpch.py --benchmark-only -q -s
"""

import pytest

from repro import SimCluster
from repro.bench import BenchTable, rows_close, speedup
from repro.engines.hive import Catalog, HiveSession
from repro.workloads import TPCH_QUERIES, generate_tpch, register_tpch

from bench_common import PAPER_NOTES, SCALE, finish_bench


def run_workload():
    sim = SimCluster(num_nodes=350, nodes_per_rack=40,
                     memory_per_node_mb=24 * 1024)
    catalog = Catalog()
    register_tpch(catalog, sim.hdfs, generate_tpch(scale=SCALE),
                  row_bytes_factor=40)
    session = HiveSession(sim, catalog)
    session.prewarm(24)
    table = BenchTable(
        "Figure 9 — Hive: TPC-H derived workload at 350 nodes",
        ["query", "tez_s", "mr_s", "speedup"],
    )
    speedups = []
    for name in sorted(TPCH_QUERIES):
        sql = TPCH_QUERIES[name]
        tez = session.run(sql, backend="tez")
        mr = session.run(sql, backend="mr")
        assert rows_close(tez.rows, mr.rows)
        s = speedup(mr.elapsed, tez.elapsed)
        speedups.append(s)
        table.add(name, tez.elapsed, mr.elapsed, s)
    table.note(f"paper: {PAPER_NOTES['fig9']}")
    table.note(
        f"measured: geo-mean speedup "
        f"{_geomean(speedups):.2f}x at 350 simulated nodes"
    )
    session.close()
    finish_bench(sim, table, label="fig09")
    table.show()
    return speedups


def _geomean(values):
    product = 1.0
    for v in values:
        product *= v
    return product ** (1 / len(values))


def test_fig09_hive_tpch(benchmark):
    speedups = benchmark.pedantic(run_workload, rounds=1, iterations=1)
    assert all(s > 1.0 for s in speedups)


if __name__ == "__main__":
    run_workload()
