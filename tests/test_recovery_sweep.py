"""Crash-anywhere acceptance proof: the journal-backed AM failover
survives a crash at every dispatched-event boundary (ISSUE 6)."""

import json

from repro.chaos.sweep import _execute, main, run_soak, run_sweep
from repro.telemetry.export import validate_records


class TestCrashAnywhereSweep:
    def test_every_crash_point_recovers_identically(self):
        # Full coverage: crash after every single dispatched control
        # event and demand byte-identical status/rows plus zero
        # re-execution of journaled work.
        summary = run_sweep(records=400, stride=1, verbose=False)
        assert summary["ok"], summary
        assert summary["violations"] == 0
        assert summary["crashed_points"] == summary["baseline_events"]
        # Recovery is real, not vacuous: some crash points replayed
        # journaled successes instead of re-running them.
        assert summary["events_replayed"] > 0
        assert summary["tasks_recovered"] > 0
        # Somewhere in the sweep a zombie writer outlived its crash
        # and had its appends rejected by the epoch fence.
        assert summary["fenced_appends"] > 0

    def test_stride1_sweep_over_fast_path_diamond(self):
        # Every crash point lands on a run whose middle/join attempts
        # take the inline body and whose exits batch per tick; recovery
        # must be byte-identical to the no-crash baseline at every
        # boundary.
        summary = run_sweep(records=400, stride=1, shape="diamond",
                            verbose=False)
        assert summary["ok"], summary
        assert summary["violations"] == 0
        assert summary["events_replayed"] > 0
        assert summary["tasks_recovered"] > 0

    def test_session2_two_dag_session_sweep(self):
        # Two DAGs back to back through one session AM, swept at a
        # coarse stride: every crash boundary must leave the terminal
        # state of both byte-identical with zero journaled re-execution.
        summary = run_sweep(records=120, stride=9, shape="session2",
                            verbose=False)
        assert summary["ok"], summary
        assert summary["violations"] == 0
        assert summary["crashed_points"] > 0

    def test_mid_run_crash_recovers_journaled_work(self):
        base = _execute(records=400, reducers=2)
        # Pick a boundary late enough that map successes are journaled.
        k = base.dispatched - 10
        res = _execute(records=400, reducers=2, crash_after=k)
        assert res.crashed
        assert res.journaled_at_crash
        assert res.rows == base.rows
        assert res.status_name == base.status_name
        assert res.reexecutions() == []
        assert res.events_replayed > 0
        assert res.am_attempts == 2

    def test_tight_checkpoint_interval_still_recovers(self):
        base = _execute(records=400, reducers=2)
        res = _execute(records=400, reducers=2,
                       crash_after=base.dispatched - 10,
                       checkpoint_interval=2)
        assert res.rows == base.rows
        assert res.checkpoints > 0
        assert res.reexecutions() == []


class TestChaosSoak:
    def test_repeated_am_crashes_under_node_faults(self):
        summary = run_soak(records=300, dags=3, verbose=False)
        assert summary["ok"], summary
        assert summary["am_attempts"] > 1       # crashes really landed
        assert summary["events_replayed"] > 0


class TestSweepCli:
    def test_cli_writes_schema_valid_telemetry(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        rc = main(["--records", "120", "--stride", "10",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        records = [json.loads(line)
                   for line in out.read_text().splitlines() if line]
        assert validate_records(records) == []
        kinds = {r["kind"] for r in records}
        assert "recovery.sweep_point" in kinds
        assert "recovery.sweep_summary" in kinds
        summary = [r for r in records
                   if r["kind"] == "recovery.sweep_summary"][0]
        assert summary["attrs"]["ok"] is True
