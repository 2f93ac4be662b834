"""Benchmark harness shared by benchmarks/bench_*.py."""

from .harness import (BenchTable, capacity_trace, rows_close, speedup,
                      telemetry_notes)

__all__ = ["BenchTable", "capacity_trace", "rows_close", "speedup",
           "telemetry_notes"]
