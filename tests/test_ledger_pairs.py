"""tools/ledger_pairs.py against stub checkouts: each "checkout" holds
a fake benchmarks/ledger/run.py that answers the three invocations the
tool makes, so the pairing, the alternation, the two identity gates
(changed result: exit 2, untimed; changed count: timed, exit 3), the
traced-pass gate (the change alone fails it: exit 2, untimed), the
ranking margin printed for each side's traced pass whatever the gate
says (with ``tez.am``'s share against its limit on ``shuffle_rows``),
and the flag on an end-to-end metric that got worse than its
bound (exit 1) are tested without running the ledger."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "ledger_pairs.py"
_spec = importlib.util.spec_from_file_location("ledger_pairs", _TOOL)
ledger_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pairs)

_STUB = textwrap.dedent('''
    import json, sys
    WALL, ALLOCATIONS, CORRECT = {wall!r}, {allocations!r}, {correct!r}
    DIGEST, TRACED, RSS = {digest!r}, {traced!r}, {rss!r}
    args = sys.argv[1:]
    with open("calls.log", "a") as fh:
        fh.write(" ".join(args) + "\\n")
    if "--child" in args:
        print(json.dumps({{
            "digest": DIGEST, "sim_makespan_s": 9.5, "attempted": 10,
            "failed": 0, "tasks": 10, "wall_s": WALL,
            "counts": {{"yarn.allocations": ALLOCATIONS}}}}))
    elif args[-2:] == ["--trace", "1"]:
        print(json.dumps({{"correct": TRACED["correct"], "metrics": {{
            "trace.wall_s": {{"value": TRACED["wall"], "unit": "s"}},
            "sim.self_s": {{"value": TRACED["sim"], "unit": "s"}},
            "tez.am.self_s": {{"value": TRACED["tez.am"], "unit": "s"}},
            "tez.am.calls": {{"value": 12, "unit": "count"}}}}}}))
    else:
        print("  batch 1: wall 2.000s / host 1.000 = 2.000s",
              file=sys.stderr)
        print("progress noise")
        print(json.dumps({{"correct": CORRECT, "metrics": {{
            "wall_s": {{"value": WALL, "unit": "s"}},
            "tasks_per_s": {{"value": 10 / WALL, "unit": "1/s"}},
            "peak_rss_mb": {{"value": RSS, "unit": "MiB"}},
            "setup_s": {{"value": 0.5, "unit": "s"}},
            "sim_makespan_s": {{"value": 9.5, "unit": "sim_s"}}}}}}))
''')


_TRACED_OK = {"correct": True, "wall": 10.0, "sim": 5.9, "tez.am": 1.25}
_TRACE_1 = "--workload w --seed 20150531 --seconds 4 --trace 1"


def _checkout(root: Path, wall, allocations=7, correct=True,
              digest="d1", traced=_TRACED_OK, rss=80.0) -> Path:
    ledger = root / "benchmarks" / "ledger"
    ledger.mkdir(parents=True)
    (ledger / "run.py").write_text(_STUB.format(
        wall=wall, allocations=allocations, correct=correct,
        digest=digest, traced=traced, rss=rss))
    return root


def _main(parent, change, *extra):
    return ledger_pairs.main(["--parent", str(parent), "--change",
                              str(change), "--workload", "w", *extra])


def test_pairs_alternate_and_report(tmp_path, capsys):
    parent = _checkout(tmp_path / "p", wall=4.0)
    change = _checkout(tmp_path / "c", wall=3.0)
    assert _main(parent, change, "--pairs", "3", "--seed", "5") == 0
    out = capsys.readouterr().out
    assert "1 exact counts identical" in out
    # Each side's ranking margin, though both traced passes are fine.
    margin = ("traced pass: largest sim 5.900s, runner-up tez.am 1.250s, "
              "lead 4.650s (46.5% of traced wall 10.000s)")
    assert f"parent {margin}\nchange {margin}\n" in out
    assert "change wins 3/3 pairs" in out
    assert "median change/parent ratio 0.750" in out
    assert "parent: median wall_s 4.000 (quartiles 4.000 - 4.000, n=3)" \
        in out
    assert "change: median tasks_per_s 3.333" in out
    assert "change: median peak_rss_mb 80.000" in out
    assert "change: median setup_s 0.500" in out
    assert "sim_makespan_s" not in out.split("identical")[1]
    assert "WORSE" not in out
    rows = [line.split() for line in out.splitlines()
            if line.split()[:1] in (["1"], ["2"], ["3"])]
    assert [row[1] for row in rows] == ["parent", "change", "parent"]
    assert rows[0][2:] == ["4.000", "2.000", "3.000", "2.000", "0.750"]
    # One identity batch and one traced pass, then the ledger's own
    # command, per pair.
    calls = (parent / "calls.log").read_text().splitlines()
    assert calls[0] == "--child batch --workload w --seed 5"
    assert calls[1] == "--workload w --seed 5 --seconds 4 --trace 1"
    assert calls[2:] == ["--workload w --seed 5 --seconds 4 --trace 0"] * 3


def test_shuffle_rows_margin_also_gives_the_tez_am_share(tmp_path, capsys):
    # shuffle_rows's traced pass also fails once tez.am reaches 5 % of
    # the traced wall: each side's line shows how close it is.
    parent = _checkout(tmp_path / "p", wall=4.0)
    change = _checkout(tmp_path / "c", wall=3.0, traced={
        "correct": True, "wall": 25.0, "sim": 5.9, "tez.am": 1.0})
    assert ledger_pairs.main(["--parent", str(parent), "--change",
                              str(change), "--workload", "shuffle_rows",
                              "--pairs", "1"]) == 0
    out = capsys.readouterr().out
    assert "parent traced pass: largest sim 5.900s, runner-up tez.am " \
           "1.250s, lead 4.650s (46.5% of traced wall 10.000s); tez.am " \
           "12.5% of traced wall (limit 5%)\n" in out
    assert "change traced pass: largest sim 5.900s, runner-up tez.am " \
           "1.000s, lead 4.900s (19.6% of traced wall 25.000s); tez.am " \
           "4.0% of traced wall (limit 5%)\n" in out
    # Other workloads have no share rule and print none.
    assert _main(parent, change, "--pairs", "1") == 0
    assert "limit" not in capsys.readouterr().out


def test_changed_result_fails_before_timing(tmp_path, capsys):
    parent = _checkout(tmp_path / "p", wall=4.0, allocations=7)
    change = _checkout(tmp_path / "c", wall=1.0, allocations=8,
                       digest="d2")
    assert _main(parent, change) == 2
    out = capsys.readouterr().out
    assert "result DIFFERS" in out
    assert "digest" in out and "counts.yarn.allocations" in out
    assert len((change / "calls.log").read_text().splitlines()) == 1


def test_changed_count_is_timed_then_named_with_exit_3(tmp_path, capsys):
    parent = _checkout(tmp_path / "p", wall=4.0, allocations=7)
    change = _checkout(tmp_path / "c", wall=3.0, allocations=8)
    assert _main(parent, change, "--pairs", "2") == 3
    out = capsys.readouterr().out
    assert "same result, exact counts DIFFER" in out
    assert "counts.yarn.allocations: parent 7 change 8" in out
    assert "0 exact counts identical" in out
    assert "change wins 2/2 pairs" in out
    assert out.splitlines()[-1] == \
        "exact counts differ: counts.yarn.allocations"
    assert len((change / "calls.log").read_text().splitlines()) == 4


def test_failed_traced_pass_of_the_change_fails_before_timing(
        tmp_path, capsys):
    # The change is faster and computes the same result, but moved so
    # much time out of `sim` that the workload's ranking rule fails.
    parent = _checkout(tmp_path / "p", wall=4.0)
    change = _checkout(tmp_path / "c", wall=2.0, traced={
        "correct": False, "wall": 5.0, "sim": 1.5, "tez.am": 2.25})
    assert _main(parent, change) == 2
    out = capsys.readouterr().out
    assert "traced pass is correct: false" in out
    assert "change traced pass: largest tez.am 2.250s, runner-up sim " \
           "1.500s, lead 0.750s (15.0% of traced wall 5.000s)" in out
    rows = [line.split() for line in out.splitlines()[-2:]]
    assert rows == [["tez.am", "1.250", "2.250"], ["sim", "5.900", "1.500"]]
    for side in (parent, change):
        calls = (side / "calls.log").read_text().splitlines()
        assert calls[1:] == [_TRACE_1]


def test_traced_pass_that_fails_on_both_sides_is_not_the_changes(
        tmp_path, capsys):
    failing = {"correct": False, "wall": 5.0, "sim": 1.5, "tez.am": 2.25}
    parent = _checkout(tmp_path / "p", wall=4.0, traced=failing)
    change = _checkout(tmp_path / "c", wall=3.0, traced=failing)
    assert _main(parent, change, "--pairs", "1") == 0
    assert "change wins 1/1 pairs" in capsys.readouterr().out


def test_a_metric_worse_than_its_bound_is_flagged(tmp_path, capsys):
    # Faster, same result, but half again the memory: over the 25 %
    # BENCHMARK.json allows peak_rss_mb. 1.2 x would pass unflagged.
    parent = _checkout(tmp_path / "p", wall=4.0, rss=80.0)
    change = _checkout(tmp_path / "c", wall=3.0, rss=120.0)
    assert _main(parent, change, "--pairs", "2") == 1
    out = capsys.readouterr().out
    assert "change: median peak_rss_mb 120.000" in out
    assert "WORSE: the change's median peak_rss_mb is +50.0% against " \
           "the parent's (bound 25%)" in out
    assert out.count("WORSE") == 1 and "change wins 2/2 pairs" in out
    within = _checkout(tmp_path / "w", wall=3.0, rss=96.0)
    assert _main(parent, within, "--pairs", "1") == 0
    assert "WORSE" not in capsys.readouterr().out


def test_incorrect_run_fails(tmp_path, capsys):
    parent = _checkout(tmp_path / "p", wall=4.0)
    change = _checkout(tmp_path / "c", wall=3.0, correct=False)
    assert _main(parent, change, "--pairs", "1") == 1
    assert "correct: false" in capsys.readouterr().out


def test_rejects_a_directory_without_the_ledger(tmp_path):
    parent = _checkout(tmp_path / "p", wall=4.0)
    with pytest.raises(SystemExit):
        _main(parent, tmp_path / "missing")
