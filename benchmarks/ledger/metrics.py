"""What the ledger measures: every metric by name, unit and direction.

``BENCHMARK.json`` at the repo root is generated from this module
(``run.py --write-manifest``); ``test_ledger.py`` checks the two agree.
"""

from __future__ import annotations

from tracer import LAYERS

RUN_SECONDS = 4
DEFAULT_SEED = 20150531       # SIGMOD'15 opened 31 May 2015
HELD_OUT_SEED = 424242        # for claims: never used while tuning

# name, unit, better, bound, bound across seeds.
# ``bound`` is how far the median of a set of runs of ONE seed may
# worsen before a change counts as a regression: what the ledger
# records and --compare judges by. ``sim_makespan_s`` repeats exactly
# for one seed, so --compare compares it exactly (any move is a model
# change the PR must declare); its 1 % is nominal.
# The bound across seeds is what BENCHMARK.json carries: its reader
# takes ten runs on ten different seeds, and there the spread also
# holds what the seed does to the generated inputs (README, "Bounds").
END_TO_END = (
    ("wall_s", "s", "lower", 0.10, 0.25),
    ("tasks_per_s", "1/s", "higher", 0.10, 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05, 0.25),
    ("setup_s", "s", "lower", 0.20, 0.25),
    ("sim_makespan_s", "sim_s", "lower", 0.01, 0.15),
)

# A difference of at most this much, in the metric's own unit, is none.
FLOOR = {"setup_s": 0.25}

# Exact counts: must repeat exactly for one seed. Read from public
# attributes after the untraced batch, except shuffle.fetches/records
# and hdfs.records_*, which are counted at the traced boundary.
EXACT_COUNTS = (
    "sim.heap_pushes", "sim.timer_wheel_hits", "sim.pool_reuse",
    "tez.am.dispatched", "tez.am.tasks_succeeded",
    "tez.am.attempts_failed", "tez.am.attempts_killed",
    "tez.am.reexecutions", "tez.am.tasks_placed", "tez.am.reuse_hits",
    "tez.am.tasks_recovered",
    "tez.templates.recorded", "tez.templates.hits",
    "tez.templates.fallbacks",
    "yarn.allocations", "yarn.allocations_node_local",
    "yarn.allocations_relaxed", "yarn.ticks_skipped",
    "shuffle.fetches", "shuffle.fetch_retries", "shuffle.fetch_failures",
    "shuffle.records",
    "hdfs.records_written", "hdfs.records_read",
    "telemetry.store_records", "telemetry.flushes",
    "telemetry.peak_resident",
    "chaos.faults_injected", "engines.dags_compiled",
)

UNIT_COSTS = (
    ("tez.am.us_per_task", "us"),
    ("yarn.us_per_allocation", "us"),
    ("sim.ns_per_event", "ns"),
    ("sim.kernel_est_s", "s"),
    ("shuffle.ns_per_record", "ns"),
    ("hdfs.ns_per_record", "ns"),
)

PROBES = (
    ("sim.ns_per_timer", "ns"),
    ("sim.ns_per_process_step", "ns"),
    ("hdfs.ns_per_record_write", "ns"),
    ("hdfs.ns_per_record_read", "ns"),
    ("shuffle.ns_per_record_sort", "ns"),
    ("shuffle.ns_per_record_partition", "ns"),
    ("engines.hive.ms_per_compile", "ms"),
    ("engines.pig.ms_per_compile", "ms"),
    ("telemetry.ns_per_span", "ns"),
    ("telemetry.ms_per_query", "ms"),
)


def per_layer() -> list[tuple]:
    """(name, unit, better) for every per-layer metric."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    out += [(name, unit, "lower") for name, unit in UNIT_COSTS]
    higher = {"tez.templates.hits", "tez.am.reuse_hits",
              "yarn.allocations_node_local", "yarn.ticks_skipped",
              "sim.timer_wheel_hits", "sim.pool_reuse"}
    out += [(name, "count", "higher" if name in higher else "lower")
            for name in EXACT_COUNTS]
    out += [(name, unit, "lower") for name, unit in PROBES]
    return out
