"""Figure 10: Pig production ETL workloads — Tez vs MapReduce.

Paper setup: large production ETL Pig jobs at Yahoo (terabytes of
input, complex DAGs of 20-50 vertices, group by / union / distinct /
join / order by) on busy 4200-server clusters; Figure 10 reports
1.5-2x improvements over MapReduce with identical configuration.

Here: the four synthetic ETL scripts exercising the same operator mix
(including the skew-aware histogram join and sample-based order-by) on
a simulated cluster at 60-70% background utilization — matching the
paper's "already running regular jobs" detail by occupying part of the
cluster with a long-running filler application.

Run: pytest benchmarks/bench_fig10_pig_etl.py --benchmark-only -q -s
"""

import pytest

from repro import SimCluster
from repro.bench import BenchTable, rows_close, speedup
from repro.engines.pig import PigRunner
from repro.workloads import ETL_SCRIPTS, build_script, load_etl_data
from repro.yarn import FinalApplicationStatus, Priority, Resource

from bench_common import PAPER_NOTES, SCALE, finish_bench


def occupy_cluster(sim, fraction=0.6):
    """A filler app holding ~fraction of the cluster (busy cluster)."""
    total_mb = sum(n.memory_mb for n in sim.cluster.nodes.values())
    n_containers = int(total_mb * fraction / 1024)

    def filler(ctx):
        ctx.register()
        ctx.request_containers(Priority(9), Resource(1024, 1),
                               count=n_containers)
        launched = 0
        while launched < n_containers:
            c = yield ctx.allocated.get()

            def hold(container):
                yield sim.env.timeout(10_000_000)

            ctx.launch_container(c, hold)
            launched += 1
        yield sim.env.timeout(10_000_000)
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    sim.rm.submit_application("filler", filler)
    sim.env.run(until=sim.env.now + 60)  # let it settle


def run_workload():
    table = BenchTable(
        "Figure 10 — Pig ETL workloads on a busy cluster",
        ["script", "tez_s", "mr_s", "mr_jobs", "speedup"],
    )
    speedups = {}
    for name in sorted(ETL_SCRIPTS):
        # Production ETL jobs run minutes-to-hours: heavy per-record
        # operator cost so fixed overheads amortize, as at Yahoo.
        sim = SimCluster(num_nodes=12, nodes_per_rack=6,
                         memory_per_node_mb=24 * 1024,
                         cpu_cost_per_record=2.5e-4,
                         hdfs_block_size=1024 * 1024)
        occupy_cluster(sim, fraction=0.6)
        load_etl_data(sim.hdfs, scale=50 * SCALE)
        runner = PigRunner(sim)
        tez = runner.run(build_script(name), backend="tez")
        mr = runner.run(build_script(name), backend="mr")
        for path in tez.outputs:
            assert rows_close(tez.outputs[path], mr.outputs[path])
        s = speedup(mr.elapsed, tez.elapsed)
        speedups[name] = s
        table.add(name, tez.elapsed, mr.elapsed, mr.jobs, s)
        runner.close()
    table.note(f"paper: {PAPER_NOTES['fig10']}")
    table.note(
        "measured: speedups "
        + ", ".join(f"{k}={v:.2f}x" for k, v in sorted(speedups.items()))
    )
    finish_bench(sim, table, label="fig10")
    table.show()
    return list(speedups.values())


def test_fig10_pig_etl(benchmark):
    speedups = benchmark.pedantic(run_workload, rounds=1, iterations=1)
    assert all(s > 1.0 for s in speedups)
    # The paper's band: meaningful but not extreme gains on long ETL.
    assert max(speedups) >= 1.3


if __name__ == "__main__":
    run_workload()
