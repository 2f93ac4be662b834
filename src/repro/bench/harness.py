"""Benchmark harness utilities: run matrices, paper-style tables.

Each ``benchmarks/bench_*.py`` regenerates one figure of the paper's
evaluation (section 6). These helpers keep the output format uniform:
a header naming the paper figure, one row per configuration, and a
summary of the comparison shape (who wins, by what factor) so results
can be checked against EXPERIMENTS.md at a glance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

__all__ = ["BenchTable", "speedup", "capacity_trace", "telemetry_notes",
           "rows_close"]


@dataclass
class BenchTable:
    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.2f}"
            return str(value)

        body = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in body))
            if body else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(
            c.ljust(w) for c, w in zip(self.columns, widths)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in body:
            lines.append("  ".join(
                v.ljust(w) for v, w in zip(row, widths)
            ))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())


def speedup(baseline: float, improved: float) -> float:
    """baseline/improved — >1 means 'improved' is faster."""
    if improved <= 0:
        return float("inf")
    return baseline / improved


def rows_close(a, b, ordered=False) -> bool:
    """Row-list equality up to EXPERIMENTS.md divergence 5, the one
    thing forgiven between two executions of one program: a float SUM /
    AVG folded in another order (Tez and MapReduce merge one partial
    state per split, the reference folds every row into one) differs in
    its last bits - relative 1e-9 here, far above n * eps for any sum
    the tests and figure benchmarks make and far below a lost or
    doubled row. Everything else - row count, NULLs, ints, strings,
    NaN-ness - must be equal. Where the arithmetic is exact (MIN / MAX,
    counts, integer-valued data) compare with ``==`` instead:
    reordering is then not an excuse.

    Unordered lists are paired by sorting on each row's non-numbers
    first, then on its numbers exactly: rounding would put two values
    within the tolerance on either side of a boundary and pair them
    with the wrong rows. Only rows alike in every non-number that
    differ in a leading number by less than the tolerance can still
    pair wrongly."""
    def order(row):
        is_number = [isinstance(v, (int, float)) and type(v) is not bool
                     for v in row]
        return ([("" if n else repr(v)) for n, v in zip(is_number, row)],
                [(0, v) if v == v else (1, 0)
                 for n, v in zip(is_number, row) if n])

    def close(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return x == y or (x != x and y != y) \
                or math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
        return x == y

    if not ordered:
        a, b = sorted(a, key=order), sorted(b, key=order)
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(map(close, ra, rb))
        for ra, rb in zip(a, b))


def capacity_trace(sim, interval: float = 2.0,
                   stop_event=None) -> list[tuple[float, float]]:
    """Sampler process: records (time, cluster dominant-share used).

    Start before the workload; read the returned list after running.
    """
    samples: list[tuple[float, float]] = []

    def sampler() -> Generator:
        while stop_event is None or not stop_event.triggered:
            samples.append((sim.env.now, sim.rm.cluster_utilization()))
            yield sim.env.timeout(interval)

    sim.env.process(sampler(), name="capacity-trace")
    return samples


def telemetry_notes(sim, max_dags: int = 3) -> list[str]:
    """Digest of a SimCluster's telemetry for table notes: one
    aggregate line, then the slowest ``max_dags`` DAG one-liners, read
    from the rollups the run already folded."""
    summaries = sim.telemetry.rollups.summaries(with_critical_path=False)
    if not summaries:
        return []
    notes = [
        f"telemetry: {len(summaries)} DAGs, "
        f"{sum(s.attempts for s in summaries)} attempts "
        f"({sum(s.failed for s in summaries)} failed, "
        f"{sum(s.killed for s in summaries)} killed), "
        f"{sum(s.speculations for s in summaries)} speculations, "
        f"{sum(s.reexecutions for s in summaries)} re-executions, "
        f"{sum(s.fetch_retries for s in summaries)} fetch retries"
    ]
    slowest = sorted(summaries, key=lambda s: s.wall_clock,
                     reverse=True)[:max_dags]
    notes.extend(f"slowest: {s.line()}" for s in slowest)
    return notes
