"""Crash-anywhere acceptance proof: the journal-backed AM failover
survives a crash at every dispatched-event boundary.

``tests/golden/recovery_sweep.json`` pins, for each sweep CI runs and
for the soak, the sha256 of the records its artifact holds:

    python tests/test_recovery_sweep.py            # print as JSON
    python tests/test_recovery_sweep.py --record   # rewrite golden
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from repro.chaos import sweep
from repro.chaos.sweep import SHAPES, _execute, main, run_soak, run_sweep
from repro.telemetry.export import validate_records
from repro.tez.am.dag_app_master import DAGAppMaster

GOLDEN_PATH = Path(__file__).parent / "golden" / "recovery_sweep.json"
SRC = Path(__file__).resolve().parents[1] / "src"

# name -> (``python -m repro.chaos.sweep`` flags, the record kind pinned)
GOLDEN_RUNS = {
    "mr": (["--records", "400", "--stride", "1"], "recovery.sweep_point"),
    "diamond": (["--shape", "diamond", "--records", "400", "--stride", "1"],
                "recovery.sweep_point"),
    "session2": (["--shape", "session2", "--stride", "1"],
                 "recovery.sweep_point"),
    "soak": (["--soak", "--records", "300"], "recovery.soak_summary"),
}


def observe(name: str, out: Path) -> dict:
    """Run one golden sweep to ``out``; the count and sha256 of its
    pinned records, each hashed as the line the artifact holds."""
    flags, kind = GOLDEN_RUNS[name]
    main([*flags, "--out", str(out), "--quiet"])
    lines = [line + "\n" for line in out.read_text().splitlines()
             if json.loads(line)["kind"] == kind]
    return {"records": len(lines),
            "sha256": hashlib.sha256("".join(lines).encode()).hexdigest()}


def observe_all(folder: Path) -> dict:
    return {name: observe(name, folder / f"{name}.jsonl")
            for name in GOLDEN_RUNS}


def test_every_golden_has_a_run():
    assert set(json.loads(GOLDEN_PATH.read_text())["runs"]) == \
        set(GOLDEN_RUNS)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_sweep_matches_golden(name, tmp_path):
    # Crash-point records and the soak's summary are byte-identical to
    # the ones the four historical run functions wrote - but for
    # ``diamond`` and ``session2``, re-recorded when every DAG came to
    # batch its attempt exits: a crash now lands after a tick's whole
    # batch, so only ``work_reexecuted`` (and ``wall`` on ``diamond``)
    # moved.
    golden = json.loads(GOLDEN_PATH.read_text())["runs"]
    assert observe(name, tmp_path / f"{name}.jsonl") == golden[name]


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_golden_does_not_depend_on_the_hash_seed(hashseed, tmp_path):
    proc = subprocess.run(
        [sys.executable, __file__], text=True, check=True,
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONHASHSEED=hashseed,
                 TMPDIR=str(tmp_path)))
    assert json.loads(proc.stdout) == \
        json.loads(GOLDEN_PATH.read_text())["runs"]


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
        base = _execute(SHAPES["mr"], records=400)
        # Pick a boundary late enough that map successes are journaled.
        k = base.dispatched - 10
        res = _execute(SHAPES["mr"], records=400, crash_after=k)
        assert res.crashed
        assert res.journaled_at_crash
        # Journaled successes are namespaced by DAG name.
        assert {dag for dag, _, _ in res.journaled_at_crash} == {"sweep"}
        assert res.rows == base.rows
        assert res.status_name == base.status_name
        assert res.reexecutions == []
        assert res.events_replayed > 0
        assert res.am_attempts == 2

    def test_tight_checkpoint_interval_still_recovers(self):
        base = _execute(SHAPES["mr"], records=400)
        res = _execute(SHAPES["mr"], records=400,
                       crash_after=base.dispatched - 10,
                       checkpoint_interval=2)
        assert res.rows == base.rows
        assert res.checkpoints > 0
        assert res.reexecutions == []

    def test_no_monitor_of_a_crashed_attempt_outlives_it(self,
                                                        monkeypatch):
        # A crash halts the attempt's bus; its deadlock (and
        # speculation) monitor must stop with it instead of ticking
        # for as long as the simulation runs.
        at_crash = []
        crash = DAGAppMaster.crash

        def noting_crash(am):
            at_crash.append(list(am._monitors))
            crash(am)

        monkeypatch.setattr(DAGAppMaster, "crash", noting_crash)
        base = _execute(SHAPES["mr"], records=400)
        res = _execute(SHAPES["mr"], records=400,
                       crash_after=base.dispatched - 10)
        assert res.crashed and res.succeeded and res.am_attempts == 2
        [monitors] = at_crash
        assert monitors, "the crash landed outside a running DAG"
        assert not [m for m in monitors if m.is_alive]

    def test_a_point_that_raises_is_a_violation(self, monkeypatch,
                                                tmp_path):
        execute = sweep._execute

        def raising_at_3(shape, records, crash_after=None, **kwargs):
            if crash_after == 3:
                raise RuntimeError("recovered run never completed")
            return execute(shape, records, crash_after=crash_after,
                           **kwargs)

        monkeypatch.setattr(sweep, "_execute", raising_at_3)
        out = tmp_path / "sweep.jsonl"
        summary = run_sweep(records=120, stride=1, out=str(out),
                            verbose=False)
        assert summary["ok"] is False
        assert summary["violations"] == 1
        assert summary["points"] == summary["baseline_events"]
        assert summary["crashed_points"] == summary["points"] - 1
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert validate_records(records) == []
        [raised] = [r["attrs"] for r in records
                    if r["kind"] == "recovery.sweep_point"
                    and r["attrs"]["violations"]]
        assert raised["k"] == 3
        assert "never completed" in raised["violations"][0]
        assert records[-1]["kind"] == "recovery.sweep_summary"
        assert records[-1]["attrs"] == summary


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

    def test_module_runs_without_a_runtime_warning(self):
        # The package must not import the module ``-m`` is about to run.
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.chaos.sweep", "--stride", "10", "--quiet"],
            text=True, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


def _main(argv) -> int:
    with tempfile.TemporaryDirectory() as folder:
        observed = observe_all(Path(folder))
    if argv == ["--record"]:
        golden = json.loads(GOLDEN_PATH.read_text())
        golden["runs"] = observed
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(observed, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
