#!/usr/bin/env python3
"""Alternating parent/change pairs of one ledger workload.

    python3 tools/ledger_pairs.py --parent DIR --change DIR \\
        --workload sched_storm [--seed N] [--pairs 10]

Each side is a checkout of this repository; every measurement runs
that checkout's own ``benchmarks/ledger/run.py``, unchanged, as

    run.py --workload W --seed N --seconds 4 --trace 0

The order within a pair alternates (parent first, then change first,
...) so host-speed drift falls on both sides alike. Before timing
anything, one ``run.py --child batch`` per side must agree on the
simulated *result* - ``digest``, ``sim_makespan_s``,
attempted/failed/tasks: a difference there means a behaviour change,
which no timing can excuse, and the tool exits 2 without timing. So
must one ``run.py --trace 1`` per side: when the change's traced pass
ends ``correct: false`` (a layer ranking, the zero rule or the 2 % sum
rule) while the parent's does not, every timed run of it would be
rejected whatever it measured, and the tool prints both sides'
per-layer ``self_s`` and exits 2 as well. Pass or fail, each side's
traced pass is summed up in one line - its largest layer, the
runner-up, and the lead between them in seconds and as a share of the
traced wall - so a change that narrows the margin a ranking rule rests
on shows it before the ranking flips. On a workload with a share rule
(``shuffle_rows``: ``tez.am`` under 5 % of the traced wall) the line
also gives that layer's share against its limit, for the same reason. A
differing exact *count* (``counts.*``) with the result unchanged means
the same answer was reached by different work: the keys are listed,
the pairs are timed anyway, and the tool ends with exit 3 naming them
again, so a count change declared beforehand can be checked against
the list and any other is not excused.

Prints one row per pair (calibrated ``wall_s`` as the ledger reports
it, and the median raw wall of the run's batches), then each side's
median and quartiles of every end-to-end metric those same runs
reported (``sim_makespan_s`` aside: the first gate already requires it
identical), the wins and the median change/parent ratio of ``wall_s``.
A metric whose change median is worse than the parent's by more than
the bound ``BENCHMARK.json`` gives it is flagged ``WORSE``.
Exit 0 when the sides are identical, every run was correct and nothing
is flagged (1 otherwise); it reports the numbers and leaves the verdict
on a claimed gain (>= 9/10 wins, medians further apart than the
parent's quartiles) in plain sight rather than in the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

RUN = os.path.join("benchmarks", "ledger", "run.py")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
SECONDS = 4                    # BENCHMARK.json run_seconds
IDENTITY_KEYS = ("digest", "sim_makespan_s", "attempted", "failed", "tasks")
# run.py's share rules on a traced pass: workload -> (layer, limit).
SHARE_LIMITS = {"shuffle_rows": ("tez.am", 0.05)}
# run.py's per-batch progress line: "batch 2: wall 3.437s / host 0.953 = ..."
_RAW_WALL = re.compile(r"batch \d+: wall ([0-9.]+)s / host")


def _run(checkout: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, RUN, *args]
    proc = subprocess.run(cmd, cwd=checkout, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} "
                         f"in {checkout}")
    return proc


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def identity(checkout: str, workload: str, seed: int) -> dict:
    """What one batch computed, stripped of everything host-dependent."""
    batch = _last_json(_run(checkout, "--child", "batch",
                            "--workload", workload, "--seed", str(seed)))
    facts = {key: batch[key] for key in IDENTITY_KEYS}
    facts.update({f"counts.{k}": v for k, v in batch["counts"].items()})
    return facts


def _ledger_run(checkout: str, workload: str, seed: int,
                trace: int) -> subprocess.CompletedProcess:
    return _run(checkout, "--workload", workload, "--seed", str(seed),
                "--seconds", str(SECONDS), "--trace", str(trace))


def traced_pass(checkout: str, workload: str, seed: int) -> dict:
    """The traced pass's verdict and its per-layer self seconds."""
    verdict = _last_json(_ledger_run(checkout, workload, seed, trace=1))
    return {
        "correct": verdict["correct"],
        "wall_s": verdict["metrics"]["trace.wall_s"]["value"],
        "self_s": {name[:-len(".self_s")]: metric["value"]
                   for name, metric in verdict["metrics"].items()
                   if name.endswith(".self_s")},
    }


def ranking_margin(traced: dict) -> str:
    """How far the largest layer of a traced pass leads the next one."""
    (first, most), (second, next_most) = sorted(
        traced["self_s"].items(), key=lambda kv: (-kv[1], kv[0]))[:2]
    lead = most - next_most
    return (f"largest {first} {most:.3f}s, runner-up {second} "
            f"{next_most:.3f}s, lead {lead:.3f}s "
            f"({lead / traced['wall_s']:.1%} of traced wall "
            f"{traced['wall_s']:.3f}s)")


def share_of_wall(traced: dict, layer: str, limit: float) -> str:
    """A layer's share of the traced wall against the rule's limit."""
    share = traced["self_s"].get(layer, 0.0) / traced["wall_s"]
    return f"{layer} {share:.1%} of traced wall (limit {limit:.0%})"


def measure(checkout: str, workload: str, seed: int) -> dict:
    proc = _ledger_run(checkout, workload, seed, trace=0)
    verdict = _last_json(proc)
    raw = [float(m) for m in _RAW_WALL.findall(proc.stderr)]
    return {
        "correct": verdict["correct"],
        "raw_wall_s": statistics.median(raw) if raw else float("nan"),
        **{name: metric["value"]
           for name, metric in verdict["metrics"].items()},
    }


def end_to_end() -> dict:
    """name -> (better, bound) of the metrics BENCHMARK.json declares,
    without the one the identity gate already pins."""
    with open(BENCHMARK) as fh:
        return {m["name"]: (m["better"], m["bound"])
                for m in json.load(fh)["end_to_end"]
                if m["name"] != "sim_makespan_s"}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="DIR")
    parser.add_argument("--change", required=True, metavar="DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for name, checkout in sides.items():
        if not os.path.isfile(os.path.join(checkout, RUN)):
            parser.error(f"--{name}: no {RUN} under {checkout}")

    facts = {name: identity(checkout, args.workload, args.seed)
             for name, checkout in sides.items()}
    differing = sorted(
        key for key in facts["parent"].keys() | facts["change"].keys()
        if facts["parent"].get(key) != facts["change"].get(key))
    changed_counts = [key for key in differing if key not in IDENTITY_KEYS]
    result_differs = len(changed_counts) < len(differing)
    if differing:
        print(f"{args.workload} seed {args.seed}: "
              + ("simulated result DIFFERS" if result_differs
                 else "same result, exact counts DIFFER"))
        for key in differing:
            print(f"  {key}: parent {facts['parent'].get(key)!r} "
                  f"change {facts['change'].get(key)!r}")
        if result_differs:
            return 2
    print(f"{args.workload} seed {args.seed}: digest, sim_makespan_s and "
          f"{len(facts['parent']) - len(IDENTITY_KEYS) - len(changed_counts)}"
          f" exact counts identical")

    traced = {name: traced_pass(checkout, args.workload, args.seed)
              for name, checkout in sides.items()}
    share_rule = SHARE_LIMITS.get(args.workload)
    for name in sides:
        line = f"{name} traced pass: {ranking_margin(traced[name])}"
        if share_rule is not None:
            line += f"; {share_of_wall(traced[name], *share_rule)}"
        print(line)
    if traced["parent"]["correct"] and not traced["change"]["correct"]:
        print(f"{args.workload} seed {args.seed}: the change's traced pass "
              f"is correct: false, the parent's is not")
        print(f"  {'layer':<18} {'parent self_s':>13} {'change self_s':>13}")
        before, after = (traced[name]["self_s"] for name in sides)
        for layer in sorted(before.keys() | after.keys(),
                            key=lambda name: (-after.get(name, 0.0), name)):
            print(f"  {layer:<18} {before.get(layer, 0.0):>13.3f} "
                  f"{after.get(layer, 0.0):>13.3f}")
        return 2

    print(f"{'pair':>4} {'first':>6} {'parent wall_s':>13} {'(raw)':>8} "
          f"{'change wall_s':>13} {'(raw)':>8} {'ratio':>6}")
    runs = {"parent": [], "change": []}
    ratios, wins, ties, incorrect = [], 0, 0, 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 \
            else ("change", "parent")
        got = {name: measure(sides[name], args.workload, args.seed)
               for name in order}
        incorrect += sum(not m["correct"] for m in got.values())
        p, c = got["parent"], got["change"]
        runs["parent"].append(p)
        runs["change"].append(c)
        ratios.append(c["wall_s"] / p["wall_s"])
        wins += c["wall_s"] < p["wall_s"]
        ties += c["wall_s"] == p["wall_s"]
        print(f"{pair + 1:>4} {order[0]:>6} {p['wall_s']:>13.3f} "
              f"{p['raw_wall_s']:>8.3f} {c['wall_s']:>13.3f} "
              f"{c['raw_wall_s']:>8.3f} {ratios[-1]:>6.3f}", flush=True)

    worse = []
    for metric, (better, bound) in end_to_end().items():
        medians = {}
        for name in ("parent", "change"):
            q1, q2, q3 = _quartiles([run[metric] for run in runs[name]])
            medians[name] = q2
            print(f"{name}: median {metric} {q2:.3f} (quartiles {q1:.3f} - "
                  f"{q3:.3f}, n={len(runs[name])})")
        delta = medians["change"] / medians["parent"] - 1.0
        if (delta if better == "lower" else -delta) > bound:
            worse.append(metric)
            print(f"WORSE: the change's median {metric} is {delta:+.1%} "
                  f"against the parent's (bound {bound:.0%})")
    print(f"change wins {wins}/{args.pairs - ties} pairs"
          f"{f' ({ties} ties)' if ties else ''}; median change/parent "
          f"ratio {statistics.median(ratios):.3f}")
    if changed_counts:
        print(f"exact counts differ: {', '.join(changed_counts)}")
    if incorrect:
        print(f"{incorrect} run(s) ended with correct: false")
    if incorrect or worse:
        return 1
    return 3 if changed_counts else 0


if __name__ == "__main__":
    sys.exit(main())
