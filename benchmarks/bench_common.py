"""Shared fixtures/config for the figure benchmarks.

Scale knobs: the paper ran 20-4200 node clusters on terabytes; we run
the same *workload shapes* on a simulated cluster at laptop scale. Set
``REPRO_BENCH_SCALE=2`` (etc.) to grow the datasets.

Tracing: pass ``--trace-out PATH`` (or set ``REPRO_TRACE_OUT=PATH``)
to any figure script to dump the run's execution timeline — Chrome
trace-event JSON (open in chrome://tracing or Perfetto) by default, or
lossless JSONL when PATH ends in ``.jsonl``.

Partitioned store: pass ``--store-out DIR`` (or ``REPRO_STORE_OUT``)
to land the run's full partitioned telemetry store — segments,
manifest and incremental rollups — queryable afterwards with
``python -m repro.telemetry.query DIR``.
"""

import os
import sys

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "1"))


def _cli_path(flag, env_var):
    argv = sys.argv
    for i, arg in enumerate(argv):
        if arg == flag and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    return os.environ.get(env_var) or None


def trace_out_path():
    """PATH from ``--trace-out PATH`` / ``--trace-out=PATH`` on the
    command line, else the ``REPRO_TRACE_OUT`` env var, else None."""
    return _cli_path("--trace-out", "REPRO_TRACE_OUT")


def store_out_path():
    """DIR from ``--store-out DIR`` / ``REPRO_STORE_OUT``, else None."""
    return _cli_path("--store-out", "REPRO_STORE_OUT")


def finish_bench(sim, table=None, label="bench"):
    """Shared benchmark epilogue: attach a telemetry digest to the
    table and honour --trace-out/--store-out by exporting the
    timeline."""
    from repro.bench import telemetry_notes
    from repro.telemetry import write_chrome_trace, write_jsonl

    if table is not None:
        for note in telemetry_notes(sim):
            table.note(note)
    path = trace_out_path()
    if path:
        store = sim.telemetry.store
        if path.endswith(".jsonl"):
            count = write_jsonl(store, path)
        else:
            count = write_chrome_trace(store, path)
        print(f"[{label}] wrote {count} trace records to {path}")
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
