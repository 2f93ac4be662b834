#!/usr/bin/env python3
"""The ledger: absolute, layered host-time benchmark of the simulator.

One run of one workload (what ``BENCHMARK.json``'s ``command`` does)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N \\
        --seconds S --trace {0,1} [--smoke]

prints progress on stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. Every batch
runs in a fresh single-threaded process of its own. ``--trace 0``
repeats the batch until ``S`` seconds have been measured and reports
the end-to-end metrics, tracing off; ``--trace 1`` reports the
per-layer metrics: the single-layer probes, an untraced batch (exact
counts, reference wall) and a batch under the tracer (self time per
layer).

The whole ledger, every workload, repeated::

    python3 benchmarks/ledger/run.py [--seed N] [--repeats 5] [--smoke]
        [--seconds S] [--out DIR]

and the comparison of two ledgers (the tool every later claim uses)::

    python3 benchmarks/ledger/run.py --compare A/ledger.json B/ledger.json

See README.md beside this file for the glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

import metrics as M
from calibrate import HostClock
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCRATCH = os.path.join(HERE, "out")            # default --out, gitignored


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _import_program() -> dict:
    """Import the program and the workloads. Raises ImportError in a
    directory that holds only the benchmark."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads
    return workloads.WORKLOADS


# ================================== one batch: one fresh process (children)
def batch_child(args) -> dict:
    """Set-up, timed region, verification, counts: the whole life of one
    batch, in this process. Host times are reference-host seconds."""
    tracer = None
    if args.child == "traced":
        _import_program()
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}")
        _install_taps(tracer)
        tracer.install()
    with HostClock() as setup:
        cls = _import_program()[args.workload]
        w = cls(args.seed, cls.sizes["smoke" if args.smoke else "full"])
    gc.collect()        # set-up's garbage is not the timed region's
    with HostClock(timer=tracer is None) as clock:
        if tracer is not None:
            tracer.start(clock.sample, clock.PERIOD_S)
        w.run()
        if tracer is not None:
            tracer.stop()
    outcome = w.check()
    result = {
        "setup_s": setup.seconds, "wall_s": clock.seconds,
        "raw_setup_s": setup.raw_s, "raw_wall_s": clock.raw_s,
        "host_slowness": clock.slowness,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": outcome.problems, "tasks": outcome.tasks,
        "sim_makespan_s": outcome.sim_makespan_s, "digest": outcome.digest,
        "counts": _counts(w),
    }
    for sim in w.sims:       # drop each telemetry spool directory
        sim.telemetry.spanstore.discard()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.result
        result["trace"] = {
            "wall_s": trace["wall_s"] / clock.slowness,
            "unattributed_s": trace["unattributed_s"] / clock.slowness,
            "self_s": {layer: seconds / clock.slowness
                       for layer, seconds in trace["self_s"].items()},
            "calls": trace["calls"], "spans": trace["spans"],
            "taps": trace["taps"],
        }
        if args.spans_out:
            tracer.write(args.spans_out)
    return result


def run_child(args) -> int:
    """A child's whole output is one JSON line on stdout; its temporary
    files (the telemetry spool) live and die under ``.run/``."""
    os.makedirs(os.path.join(HERE, ".run"), exist_ok=True)
    tempfile.tempdir = tempfile.mkdtemp(
        prefix="tmp-", dir=os.path.join(HERE, ".run"))
    try:
        if args.child == "probes":
            _import_program()
            from probes import run_probes
            result = run_probes(args.seed, smoke=args.smoke)
        else:
            result = batch_child(args)
    finally:
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)
        tempfile.tempdir = None
    print(json.dumps(result))
    return 0


def _child(mode: str, seed: int, smoke: bool, *extra: str) -> dict:
    """Run one child to its end and return what it printed. Fixed string
    hashing: set iteration order is part of the program's behaviour and
    of its host time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--seed", str(seed), *extra]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONHASHSEED="0"),
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}: "
                           f"{' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ================================================================ one run
def run_end_to_end(workload: str, seed: int, seconds: float,
                   smoke: bool) -> dict:
    """Closed loop: the fixed batch, run to completion in a fresh process
    again and again until ``seconds`` have been measured; the run
    reports the medians over its batches."""
    batches = []
    while not batches or sum(b["wall_s"] for b in batches) < seconds:
        b = _child("batch", seed, smoke, "--workload", workload)
        batches.append(b)
        log(f"  batch {len(batches)}: wall {b['raw_wall_s']:.3f}s / host "
            f"{b['host_slowness']:.3f} = {b['wall_s']:.3f}s, setup "
            f"{b['setup_s']:.3f}s, rss {b['peak_rss_mb']:.1f}MiB, failed "
            f"{b['failed']}/{b['attempted']}")
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    problems = [p for b in batches for p in b["problems"]]
    if len({b["digest"] for b in batches}) != 1 \
            or any(b["counts"] != batches[0]["counts"] for b in batches):
        problems.append("simulated digest or exact counts differ between "
                        "batches of one seed")
        failed = attempted
    wall_s = statistics.median(b["wall_s"] for b in batches)
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "values": {
            "wall_s": wall_s,
            "tasks_per_s": batches[0]["tasks"] / wall_s,
            "peak_rss_mb": statistics.median(
                b["peak_rss_mb"] for b in batches),
            "setup_s": statistics.median(b["setup_s"] for b in batches),
            "sim_makespan_s": batches[0]["sim_makespan_s"],
        },
        "units": {m[0]: m[1] for m in M.END_TO_END},
        "detail": {
            "batches": len(batches), "digest": batches[0]["digest"],
            "counts": batches[0]["counts"],
            "raw_wall_s": [b["raw_wall_s"] for b in batches],
            "raw_setup_s": [b["raw_setup_s"] for b in batches],
            "host_slowness": [b["host_slowness"] for b in batches]},
    }


# ----------------------------------------------------------------- counts
def _install_taps(tracer: Tracer) -> None:
    """Counts nothing public exposes, taken where the work happens."""
    tracer.tap("repro.shuffle.service.ShuffleService.fetch",
               "shuffle.fetches", lambda a, k, result: 1)
    tracer.tap("repro.shuffle.service.ShuffleService.fetch",
               "shuffle.records", lambda a, k, result: len(result))
    tracer.tap("repro.hdfs.namenode.Hdfs.write", "hdfs.records_written",
               lambda a, k, result: result.num_records)
    tracer.tap("repro.hdfs.namenode.Hdfs.read_block", "hdfs.records_read",
               lambda a, k, result: len(result))
    tracer.tap("repro.hdfs.namenode.Hdfs.read_file", "hdfs.records_read",
               lambda a, k, result: len(result))


def _counts(w) -> dict:
    """Exact counts from public attributes of the finished batch."""
    c = dict.fromkeys(M.EXACT_COUNTS, 0)
    for sim in w.sims:
        env, rm, tel = sim.env, sim.rm, sim.telemetry
        tel.close()          # final flush: the store's counters settle
        c["sim.heap_pushes"] += env.heap_pushes
        c["sim.timer_wheel_hits"] += env.timer_wheel_hits
        c["sim.pool_reuse"] += env.pool_reuse
        levels = [level for _t, _a, _n, level in rm.scheduler.allocation_log]
        c["yarn.allocations"] += len(levels)
        c["yarn.allocations_node_local"] += levels.count("NODE_LOCAL")
        c["yarn.ticks_skipped"] += rm.ticks_skipped
        for name, key in (
                ("tasks_succeeded", "tez.am.tasks_succeeded"),
                ("attempts_failed", "tez.am.attempts_failed"),
                ("attempts_killed", "tez.am.attempts_killed"),
                ("reexecutions", "tez.am.reexecutions"),
                ("scheduler.tasks_placed", "tez.am.tasks_placed"),
                ("scheduler.reuse_hits", "tez.am.reuse_hits"),
                ("recovery.tasks_recovered", "tez.am.tasks_recovered")):
            c[key] += int(sum(reg.counter(name).value
                              for reg in tel.registries.values()))
        for name, counter in tel.metrics.counters.items():
            if name.startswith("chaos."):
                c["chaos.faults_injected"] += int(counter.value)
        c["shuffle.fetch_retries"] += int(
            tel.metrics.counter("shuffle.retries").value)
        c["shuffle.fetch_failures"] += int(
            tel.metrics.counter("shuffle.fetch_failures").value)
        store = tel.spanstore
        c["telemetry.store_records"] += store.span_count + store.event_count
        c["telemetry.flushes"] += store.flushes
        c["telemetry.peak_resident"] = max(c["telemetry.peak_resident"],
                                           store.peak_resident)
    # Node-tagged asks granted off their node: the observable outcome
    # of delay-scheduling misses (no cumulative public miss counter).
    c["yarn.allocations_relaxed"] = (
        c["yarn.allocations"] - c["yarn.allocations_node_local"])
    for client in w.clients:
        for record in client.coordinator.records():
            if record.am is not None and record.am.dispatcher is not None:
                c["tez.am.dispatched"] += record.am.dispatcher.dispatched
        for summary in client.coordinator.template_summaries():
            c["tez.templates.recorded"] += summary["recorded"]
            c["tez.templates.hits"] += summary["hits"]
            c["tez.templates.fallbacks"] += summary["fallbacks"]
    if hasattr(w, "extra_counts"):
        c.update(w.extra_counts())
    return c


# Which layer owns the largest self time, and which must be (near)
# absent, at the full sizes. A mismatch fails the traced pass: the
# tracer, not the program, is then wrong. (The rankings are not stated
# for the --smoke sizes; the zero and the sum rule hold at any size.)
EXPECT_LARGEST = {"task_churn": "tez.am", "sched_storm": "yarn",
                  "iter_session": "sim", "shuffle_rows": "shuffle"}
TEZ_LAYERS = tuple(layer for layer in LAYERS if layer.startswith("tez."))


def attribution_problems(workload: str, trace: dict) -> tuple[list, list]:
    """(failures at any size, ranking mismatches) of one traced batch."""
    self_s, wall = trace["self_s"], trace["wall_s"]
    hard, ranking = [], []
    total = sum(self_s.values()) + trace["unattributed_s"]
    if abs(total - wall) > 0.02 * wall:
        hard.append(f"layer self times sum to {total:.4f}s, traced wall "
                    f"is {wall:.4f}s")
    if workload == "sched_storm":
        busy = {layer: self_s[layer] for layer in TEZ_LAYERS
                if self_s[layer] > 0.0}
        if busy:
            hard.append(f"tez layers are not zero on sched_storm: {busy}")
    if workload == "shuffle_rows" and self_s["tez.am"] >= 0.05 * wall:
        ranking.append(f"tez.am is {self_s['tez.am'] / wall:.1%} of "
                       f"shuffle_rows, expected < 5%")
    want = EXPECT_LARGEST.get(workload)
    largest = max(self_s, key=self_s.get)
    if want is not None and largest != want:
        ranking.append(f"largest self time on {workload} is {largest}, "
                       f"expected {want}")
    return hard, ranking


def run_per_layer(workload: str, seed: int, smoke: bool,
                  spans_out: str = None, probes: dict = None,
                  untraced: dict = None) -> dict:
    """The probes, an untraced batch (exact counts, reference wall) and
    a traced batch. The ledger hands in what it has already: the probes
    (they do not depend on the workload) and its untraced runs."""
    values = dict(probes or _child("probes", seed, smoke))
    untraced = untraced or _child("batch", seed, smoke,
                                  "--workload", workload)
    wall = untraced["wall_s"]
    log(f"  untraced batch: wall {wall:.3f}s")
    traced = _child("traced", seed, smoke, "--workload", workload,
                    *(["--spans-out", spans_out] if spans_out else []))
    trace = traced["trace"]
    log(f"  traced batch: wall {trace['wall_s']:.3f}s, "
        f"{trace['spans']} spans")

    problems = untraced["problems"] + traced["problems"]
    failed = untraced["failed"] + traced["failed"]
    attempted = untraced["attempted"] + traced["attempted"]
    if traced["digest"] != untraced["digest"]:
        problems.append("traced batch's simulated digest differs from the "
                        "untraced batch: the tracer changed the result")
        failed = attempted
    hard, ranking = attribution_problems(workload, trace)
    if smoke:
        for problem in ranking:
            log(f"  (smoke size) {problem}")
        ranking = []
    if hard or ranking:
        problems += hard + ranking
        failed = attempted

    counts = {**untraced["counts"], **trace["taps"]}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = trace["self_s"][layer]
        values[f"{layer}.calls"] = trace["calls"][layer]
    values["trace.wall_s"] = trace["wall_s"]
    values["trace.unattributed_s"] = trace["unattributed_s"]
    values["trace.overhead_frac"] = trace["wall_s"] / wall - 1.0
    values.update(counts)

    def host_s(layer: str) -> float:
        """The layer's share of the traced batch, applied to the
        untraced wall: unit costs in untraced host time."""
        return trace["self_s"][layer] / trace["wall_s"] * wall

    def per(seconds: float, count: int, scale: float) -> float:
        return seconds / count * scale if count else 0.0

    values["tez.am.us_per_task"] = per(
        host_s("tez.am"), counts["tez.am.tasks_succeeded"], 1e6)
    values["yarn.us_per_allocation"] = per(
        host_s("yarn"), counts["yarn.allocations"], 1e6)
    values["sim.ns_per_event"] = per(
        host_s("sim"), counts["sim.heap_pushes"], 1e9)
    values["sim.kernel_est_s"] = (
        values["sim.ns_per_timer"] * counts["sim.heap_pushes"] / 1e9)
    values["shuffle.ns_per_record"] = per(
        host_s("shuffle"), counts["shuffle.records"], 1e9)
    values["hdfs.ns_per_record"] = per(
        host_s("hdfs"),
        counts["hdfs.records_written"] + counts["hdfs.records_read"], 1e9)
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "values": values,
        "units": {name: unit for name, unit, _b in M.per_layer()},
        "detail": {"digest": untraced["digest"]},
    }


def run_one(args) -> int:
    """One run of one workload; the result is the last stdout line."""
    log(f"[{args.workload}] seed {args.seed} trace {args.trace} "
        f"{'smoke' if args.smoke else 'full'}")
    if args.trace:
        result = run_per_layer(args.workload, args.seed, args.smoke,
                               spans_out=args.spans_out)
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds,
                                args.smoke)
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["values"].items()},
    }))
    return 0


def report(result: dict) -> None:
    for problem in result["problems"]:
        log(f"  FAIL {problem}")
    for name, value in result["values"].items():
        log(f"  {name:34s} {value:>16.6g} {result['units'][name]}")


# ========================================================== whole ledger
def run_ledger(args) -> int:
    """Repeats are the outer loop and workloads the inner one, so host
    drift spreads evenly over the workloads."""
    names = list(_import_program())
    out = args.out or SCRATCH
    os.makedirs(out, exist_ok=True)
    seconds = args.seconds if args.seconds is not None else (
        0.0 if args.smoke else M.RUN_SECONDS)
    if args.repeats is None:
        args.repeats = 2 if args.smoke else 5
    ledger = {
        "seed": args.seed, "repeats": args.repeats, "smoke": args.smoke,
        "run_seconds": seconds, "workloads": {},
    }
    samples = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:
            log(f"[repeat {repeat + 1}/{args.repeats}] {name}")
            result = run_end_to_end(name, args.seed, seconds, args.smoke)
            report(result)
            samples[name].append(result)
            with open(os.path.join(out, f"{name}.r{repeat}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
    ok = True
    log("[probes]")
    probes = _child("probes", args.seed, args.smoke)
    for name in names:
        log(f"[trace] {name}")
        runs = samples[name]
        traced = run_per_layer(
            name, args.seed, args.smoke, probes=probes,
            spans_out=os.path.join(out, f"{name}.spans.json"),
            untraced={
                "wall_s": statistics.median(
                    r["values"]["wall_s"] for r in runs),
                "counts": runs[0]["detail"]["counts"],
                "digest": runs[0]["detail"]["digest"],
                "attempted": 0, "failed": 0, "problems": []})
        report(traced)
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        if any(r["detail"]["digest"] != runs[0]["detail"]["digest"]
               or r["detail"]["counts"] != runs[0]["detail"]["counts"]
               for r in runs):
            log(f"  FAIL {name}: simulated digest or exact counts differ "
                f"between repeats of one seed")
            failed = attempted
        entry = {"attempted": attempted, "failed": failed,
                 "end_to_end": {}, "per_layer": {}}
        for metric, unit, better, bound, _seed_bound in M.END_TO_END:
            values = [r["values"][metric] for r in runs]
            entry["end_to_end"][metric] = {
                "unit": unit, "better": better, "bound": bound,
                "floor": M.FLOOR.get(metric, 0.0),
                "median": statistics.median(values),
                "quartiles": _quartiles(values), "n": len(values),
                "values": values,
            }
        for metric, unit, _better in M.per_layer():
            entry["per_layer"][metric] = {
                "unit": unit, "value": traced["values"][metric]}
        ledger["workloads"][name] = entry
        ok = ok and failed == 0
    path = os.path.join(out, "ledger.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1)
    print_ledger(ledger)
    print(f"wrote {path}")
    return 0 if ok else 1


def print_ledger(ledger: dict) -> None:
    for name, entry in ledger["workloads"].items():
        print(f"\n== {name}: {entry['failed']} failed of "
              f"{entry['attempted']} operations")
        for metric, m in entry["end_to_end"].items():
            q1, _q2, q3 = m["quartiles"]
            print(f"  {metric:18s} {m['median']:14.6g} {m['unit']:6s} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}, n={m['n']}]")
        shares = {layer: entry["per_layer"][f"{layer}.self_s"]["value"]
                  for layer in LAYERS}
        wall = entry["per_layer"]["trace.wall_s"]["value"]
        top = sorted(shares, key=shares.get, reverse=True)[:5]
        print("  layers: " + ", ".join(
            f"{layer} {shares[layer] / wall:.0%}" for layer in top)
            + f"; trace overhead "
              f"{entry['per_layer']['trace.overhead_frac']['value']:.0%}")
    print("\nper-layer metrics (one traced run per workload):")
    names = list(ledger["workloads"])
    print(f"  {'metric':34s}" + "".join(f"{n:>14s}" for n in names))
    for metric, unit, _better in M.per_layer():
        row = "".join(
            f"{ledger['workloads'][n]['per_layer'][metric]['value']:14.6g}"
            for n in names)
        print(f"  {metric:34s}{row}  {unit}")


# =============================================================== compare
def compare(path_a: str, path_b: str) -> int:
    """Per (workload, end-to-end metric): both medians and quartiles,
    the delta against the metric's bound, and a verdict. B is judged
    against A. ``sim_makespan_s`` and the exact counts repeat exactly
    for one seed, so they are compared exactly, between ledgers of one
    seed and size only. Returns 1 when anything regressed, changed or
    is unresolved."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    same_seed = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    bad = 0
    print(f"A = {path_a} (seed {a['seed']}, n={a['repeats']})")
    print(f"B = {path_b} (seed {b['seed']}, n={b['repeats']})")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"\n== {name}: missing from B")
            bad += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"\n== {name}: failed A {wa['failed']}/{wa['attempted']}, "
              f"B {wb['failed']}/{wb['attempted']}")
        if wb["failed"] > wa["failed"]:
            print("  more operations fail in B: regressed")
            bad += 1
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"][metric]
            exact = metric == "sim_makespan_s"
            if exact and not same_seed:
                print(f"  {metric:16s} not compared (different seed or "
                      f"size)")
                continue
            verdict, delta = _verdict(ma, mb, exact)
            bad += verdict not in ("unchanged", "improved")
            print(f"  {metric:16s} A {ma['median']:12.6g} "
                  f"[{ma['quartiles'][0]:.6g}, {ma['quartiles'][2]:.6g}]  "
                  f"B {mb['median']:12.6g} "
                  f"[{mb['quartiles'][0]:.6g}, {mb['quartiles'][2]:.6g}]  "
                  f"{delta:+8.2%} worse (bound {ma['bound']:.0%})  "
                  f"{verdict}")
        if same_seed:
            diffs = [
                (metric, wa["per_layer"][metric]["value"],
                 wb["per_layer"][metric]["value"])
                for metric in M.EXACT_COUNTS
                if wa["per_layer"][metric]["value"]
                != wb["per_layer"][metric]["value"]]
            for metric, va, vb in diffs:
                print(f"  count {metric}: A {va} -> B {vb}")
            bad += len(diffs)
            if not diffs:
                print(f"  exact counts: all {len(M.EXACT_COUNTS)} identical")
        else:
            print("  exact counts: not compared (different seed or size)")
    print("\n" + ("no regression, nothing unresolved" if not bad else
                  f"{bad} pairing(s) regressed, changed or unresolved"))
    return 1 if bad else 0


def _verdict(ma: dict, mb: dict, exact: bool) -> tuple[str, float]:
    """Delta is how much *worse* B's median is, as a share of A's. A
    difference no larger than the metric's floor, in its own unit, is
    none (``setup_s``: a regression is +20 % and more than 0.25 s)."""
    sign = 1.0 if ma["better"] == "lower" else -1.0
    delta = sign * (mb["median"] - ma["median"]) / ma["median"]
    if exact:
        return ("unchanged" if mb["median"] == ma["median"]
                else "MODEL CHANGED (must be declared)"), delta

    def spread(m: dict) -> float:
        iqr = m["quartiles"][2] - m["quartiles"][0]
        return iqr / m["median"] if iqr > ma["floor"] else 0.0

    noise = max(spread(ma), spread(mb))
    if noise > ma["bound"]:
        return "unresolved", delta
    if delta > ma["bound"] and delta * ma["median"] > ma["floor"]:
        return "regressed", delta
    # A gain needs the medians to differ by more than either side's own
    # run-to-run spread (and by more than the floor).
    if -delta > noise and -delta * ma["median"] > ma["floor"]:
        return "improved", delta
    return "unchanged", delta


# ============================================================== manifest
def manifest(workloads: dict) -> dict:
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": M.RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": seed_bound}
            for n, u, b, _bound, seed_bound in M.END_TO_END],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b in M.per_layer()],
    }


def write_manifest() -> int:
    workloads = _import_program()
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest(workloads), fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


# =================================================================== CLI
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="The ledger: absolute, layered host-time benchmark")
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--seed", type=int, default=M.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: the whole ledger in < 30 s")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per workload (default 5; 2 with --smoke)")
    parser.add_argument("--out", metavar="DIR",
                        help=f"ledger output directory (default {SCRATCH})")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from metrics.py")
    parser.add_argument("--spans-out", metavar="PATH",
                        help="write the traced batch's spans here")
    parser.add_argument("--child", choices=("batch", "traced", "probes"),
                        help=argparse.SUPPRESS)     # what _child() runs
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args)
    if args.compare:
        return compare(*args.compare)
    if args.write_manifest:
        return write_manifest()
    if args.workload:
        if args.seconds is None:
            args.seconds = M.RUN_SECONDS
        return run_one(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
