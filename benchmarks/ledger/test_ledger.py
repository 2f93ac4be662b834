"""Tests of the benchmark itself, at ``--smoke`` sizes.

Run with ``python -m pytest benchmarks/ledger -q``; tier-1's
``testpaths`` stays ``tests/``.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics as M                      # noqa: E402
from calibrate import HostClock          # noqa: E402
import run as ledger_run                 # noqa: E402
from tracer import LAYERS, layer_of_module      # noqa: E402
from workloads import WORKLOADS          # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """One smoke ledger (2 repeats + the traced pass), shared."""
    out = tmp_path_factory.mktemp("ledger")
    proc = _run("--smoke", "--repeats", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out / "ledger.json", encoding="utf-8") as fh:
        return out, json.load(fh), proc.stdout


def test_manifest_matches_declarations_and_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        committed = json.load(fh)
    assert committed == ledger_run.manifest(WORKLOADS), (
        "BENCHMARK.json is stale: python3 benchmarks/ledger/run.py "
        "--write-manifest")
    assert set(committed) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    names = ([w["name"] for w in committed["workloads"]]
             + [m["name"] for m in committed["end_to_end"]]
             + [m["name"] for m in committed["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in committed["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in committed["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in committed["end_to_end"])


def test_no_legacy_switch_is_named_in_the_benchmark():
    # Spelled in halves so this file passes its own guard.
    flags = [a + "_" + b for a, b in (
        ("composite", "dme"), ("coalesce", "deliveries"),
        ("indexed", "scheduler"), ("attempt", "fast_path"),
        ("batch", "attempt_exits"), ("execution", "templates"),
        ("scheduler", "incremental"), ("event_driven", "ticks"),
        ("timer", "wheel"), ("fast", "timers"))]
    guard = re.compile(r"(?<![A-Za-z0-9_])(%s)(?![A-Za-z0-9_])"
                       % "|".join(flags))
    for folder, _dirs, files in os.walk(HERE):
        if os.path.basename(folder) in ("out", ".run", "__pycache__"):
            continue
        for name in files:
            if not name.endswith((".py", ".md", ".json")):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                hit = guard.search(fh.read())
            assert hit is None, f"{name} names legacy switch {hit.group()}"


def test_host_clock_takes_its_samples_out_of_the_region():
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 1.3 * clock.PERIOD_S:
            pass
        inside = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.samples) >= 3           # before, inside, after
    assert clock.paused_s > 0.0
    assert clock.raw_s + clock.paused_s == pytest.approx(inside, abs=0.02)
    assert clock.seconds == pytest.approx(clock.raw_s / clock.slowness)


def test_layer_map_longest_prefix_wins():
    assert layer_of_module("repro.tez.am.dispatcher") == "tez.am"
    assert layer_of_module("repro.tez.templates") == "tez.templates"
    assert layer_of_module("repro.tez.library.hdfs_io") == "tez.runtime"
    assert layer_of_module("repro.tez.client") == "tez.client"
    assert layer_of_module("repro.simulator") is None
    assert layer_of_module("repro.workloads.tpch") is None
    assert len(LAYERS) == 14


def test_every_declared_metric_for_every_workload(ledger):
    _out, data, _stdout = ledger
    assert list(data["workloads"]) == list(WORKLOADS)
    for name, entry in data["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 1, name
        assert list(entry["end_to_end"]) == [m[0] for m in M.END_TO_END]
        for metric, m in entry["end_to_end"].items():
            assert m["n"] == 2 and m["median"] > 0, (name, metric)
        assert list(entry["per_layer"]) == [m[0] for m in M.per_layer()]
        # Simulated results repeat exactly across fresh processes.
        makespans = entry["end_to_end"]["sim_makespan_s"]["values"]
        assert len(set(makespans)) == 1, name


def test_layer_self_times_sum_to_traced_wall(ledger):
    _out, data, _stdout = ledger
    for name, entry in data["workloads"].items():
        layer = entry["per_layer"]
        total = sum(layer[f"{L}.self_s"]["value"] for L in LAYERS) \
            + layer["trace.unattributed_s"]["value"]
        wall = layer["trace.wall_s"]["value"]
        assert abs(total - wall) <= 0.02 * wall, name
        assert layer["trace.overhead_frac"]["value"] > -0.5, name


def test_spans_reproduce_the_self_times(ledger):
    """Self time = span duration minus what child spans cover."""
    out, data, _stdout = ledger
    with open(out / "shuffle_rows.spans.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    own = [e - s for s, e in zip(spans["start"], spans["end"])]
    for i, parent in enumerate(spans["parent"]):
        assert parent < i
        if parent >= 0:
            own[parent] -= spans["end"][i] - spans["start"][i]
            assert spans["start"][parent] <= spans["start"][i]
            assert spans["end"][i] <= spans["end"][parent]
    # Beside the layers: driver code, and the host-speed samples.
    totals = dict.fromkeys(LAYERS + ("unattributed", "paused"), 0.0)
    for name_id, seconds in zip(spans["name"], own):
        totals[spans["name_layer"][name_id]] += seconds
    assert totals["paused"] == pytest.approx(spans["paused_s"], abs=1e-6)
    # The spans file is in raw seconds, the ledger in reference-host
    # seconds: one factor for the whole traced batch.
    reported = data["workloads"]["shuffle_rows"]["per_layer"]
    factor = reported["trace.wall_s"]["value"] / spans["wall_s"]
    for layer in LAYERS:
        assert totals[layer] * factor == pytest.approx(
            reported[f"{layer}.self_s"]["value"], abs=1e-6)
        assert reported[f"{layer}.calls"]["value"] == sum(
            1 for name_id in spans["name"]
            if spans["name_layer"][name_id] == layer)


def test_attribution_rules_catch_a_wrong_tracer():
    self_s = dict.fromkeys(LAYERS, 0.0)
    self_s.update({"yarn": 1.0, "sim": 0.5, "tez.am": 0.01})
    trace = {"self_s": self_s, "unattributed_s": 0.0, "wall_s": 1.51}
    hard, ranking = ledger_run.attribution_problems("sched_storm", trace)
    assert any("tez" in p for p in hard) and not ranking
    self_s["tez.am"] = 0.0
    trace["wall_s"] = 1.5
    assert ledger_run.attribution_problems("sched_storm", trace) == ([], [])
    hard, ranking = ledger_run.attribution_problems("iter_session", trace)
    assert not hard and "expected sim" in ranking[0]
    trace["wall_s"] = 2.0
    hard, _ = ledger_run.attribution_problems("sched_storm", trace)
    assert any("sum to" in p for p in hard)


def test_compare_verdicts(ledger, tmp_path, capsys):
    out, data, _stdout = ledger

    def write(name, edit=None):
        """The smoke ledger with quiet-host quartiles (two smoke
        repeats are too few and too short for real ones)."""
        copy = json.loads(json.dumps(data))
        for entry in copy["workloads"].values():
            for m in entry["end_to_end"].values():
                m["quartiles"] = [m["median"] * f for f in (0.99, 1, 1.01)]
        if edit:
            edit(copy["workloads"])
        path = tmp_path / name
        path.write_text(json.dumps(copy))
        return str(path)

    base = write("a.json")
    assert ledger_run.compare(base, base) == 0
    text = capsys.readouterr().out
    assert text.rstrip().endswith("no regression, nothing unresolved")
    assert f"all {len(M.EXACT_COUNTS)} identical" in text

    def worsen(workloads):
        wall = workloads["task_churn"]["end_to_end"]["wall_s"]
        wall["median"] *= 1.15            # the bound is 10 %
        wall["quartiles"] = [q * 1.15 for q in wall["quartiles"]]
        rss = workloads["task_churn"]["end_to_end"]["peak_rss_mb"]
        rss["median"] *= 1.04             # the bound is 5 %
        rss["quartiles"] = [q * 1.04 for q in rss["quartiles"]]
        rate = workloads["shuffle_rows"]["end_to_end"]["tasks_per_s"]
        rate["median"] *= 1.5
        rate["quartiles"] = [q * 1.5 for q in rate["quartiles"]]
        noisy = workloads["engine_mix"]["end_to_end"]["wall_s"]
        noisy["quartiles"] = [noisy["median"] * f for f in (0.8, 1, 1.2)]
        workloads["sched_storm"]["per_layer"]["yarn.allocations"][
            "value"] += 1
        workloads["iter_session"]["end_to_end"]["sim_makespan_s"][
            "median"] += 1.0

    assert ledger_run.compare(base, write("b.json", worsen)) == 1
    text = capsys.readouterr().out
    assert re.search(r"wall_s .* regressed", text)
    assert re.search(r"peak_rss_mb .* unchanged", text)
    assert re.search(r"tasks_per_s .* improved", text)
    assert re.search(r"wall_s .* unresolved", text)
    assert "count yarn.allocations" in text
    assert "MODEL CHANGED" in text


def test_single_run_prints_exactly_the_contract_keys():
    proc = _run("--workload", "sched_storm", "--seed", "5", "--seconds",
                "0.2", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m[0] for m in M.END_TO_END}
    assert not os.listdir(os.path.join(HERE, ".run")), "temp files left"


def test_fails_without_printing_in_a_directory_without_the_program(
        tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", ".run",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "task_churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
