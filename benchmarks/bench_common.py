"""Shared fixtures/config for the figure benchmarks.

Scale knobs: the paper ran 20-4200 node clusters on terabytes; we run
the same *workload shapes* on a simulated cluster at laptop scale. Set
``REPRO_BENCH_SCALE=2`` (etc.) to grow the datasets.

Telemetry: pass ``--store-out DIR`` (or set ``REPRO_STORE_OUT=DIR``)
to any figure script to land the run's one artefact, its partitioned
telemetry store - segments, and a manifest with the incremental rollups
- and read it afterwards with ``python -m repro.telemetry.query DIR``
(``--summary``, ``--critical-path``, or ``--chrome-trace OUT.json`` for
a trace to open in chrome://tracing or Perfetto).
"""

import os
import sys

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "1"))


def store_out_path():
    """DIR from ``--store-out DIR`` / ``--store-out=DIR`` on the command
    line, else the ``REPRO_STORE_OUT`` env var, else None."""
    argv = sys.argv
    for i, arg in enumerate(argv):
        if arg == "--store-out" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--store-out="):
            return arg.split("=", 1)[1]
    return os.environ.get("REPRO_STORE_OUT") or None


def finish_bench(sim, table=None, label="bench"):
    """Shared benchmark epilogue: attach a telemetry digest to the
    table and honour --store-out by persisting the run's store."""
    from repro.bench import telemetry_notes

    if table is not None:
        for note in telemetry_notes(sim):
            table.note(note)
    store_dir = store_out_path()
    if store_dir:
        # Benchmarks that run several simulations (e.g. fig12's
        # service-mode vs Tez comparison) get one store per sim.
        if os.path.exists(os.path.join(store_dir, "MANIFEST.json")):
            store_dir = f"{store_dir.rstrip('/')}-{label}"
        sim.telemetry.persist_store(store_dir)
        n = sim.telemetry.spanstore.segment_count
        print(f"[{label}] persisted telemetry store "
              f"({n} segments) to {store_dir}")


# Paper-reported reference numbers (for EXPERIMENTS.md comparison).
PAPER_NOTES = {
    "fig8": "Hive TPC-DS 30TB/20 nodes: Tez beats MR on every query, "
            "largest factors on short interactive queries (up to ~10x)",
    "fig9": "Hive TPC-H 10TB/350 nodes: Tez outperforms MR at scale",
    "fig10": "Pig production ETL at Yahoo: 1.5-2x vs MR",
    "fig11": "Pig k-means 10/50/100 iterations: session reuse grows "
             "the gap with iteration count",
    "fig12": "Spark on Tez releases idle resources between jobs; "
             "service mode holds them for the app lifetime",
    "fig13": "5-user concurrency: Tez-based Spark jobs finish sooner "
             "at every warehouse scale factor",
}
