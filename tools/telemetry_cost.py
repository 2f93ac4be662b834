#!/usr/bin/env python3
"""What telemetry costs one ledger workload: its timed region with
telemetry on and off, in alternating fresh processes.

    python3 tools/telemetry_cost.py --workload W [--seed N] [--smoke]
                                    [--pairs N]

Each pair runs the workload of ``benchmarks/ledger/workloads.py``
(imported read-only) once with telemetry on - the shipped default - and
once off, in that order or the other, alternating, each in a fresh
``PYTHONHASHSEED=0`` process. "Off" builds every ``SimCluster`` with
``telemetry=False``: the class is swapped for a subclass that forces it
in every module that imported it, the way ``workloads.py`` records the
clusters ``cluster_day`` builds. Prints the raw walls of each side, the
median on-minus-off, the records the store was handed in a batch and
the microseconds per record. Telemetry observes and never steers: the
tool exits 1 when the digest, ``sim_makespan_s`` or the task count
differ between on and off. Uses nothing of the program beyond
``workloads.py``, so a copy dropped into a parent checkout's ``tools/``
gives the "before" column.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDENTITY_KEYS = ("digest", "sim_makespan_s", "tasks")


def _telemetry_off() -> None:
    """Make every ``SimCluster`` a loaded module can build disabled."""
    from repro.harness import SimCluster

    class TelemetryOff(SimCluster):
        def __init__(self, *args, **kwargs):
            kwargs["telemetry"] = False
            super().__init__(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "SimCluster", None) is SimCluster:
            module.SimCluster = TelemetryOff


def batch(workload: str, seed: int, smoke: bool, on: bool) -> dict:
    """Set-up, timed region, verification and store size of one batch."""
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "benchmarks", "ledger")]
    import workloads
    cls = workloads.WORKLOADS[workload]
    # Deferred imports of the program happen in set-up; load them first
    # so the swap reaches them (cluster_day builds its own cluster).
    import repro.bench.cluster_day  # noqa: F401
    if not on:
        _telemetry_off()
    tempfile.tempdir = tempfile.mkdtemp(prefix="telemetry-cost-")
    try:
        w = cls(seed, cls.sizes["smoke" if smoke else "full"])
        gc.collect()        # as run.py does: set-up's garbage is not the run's
        started = time.perf_counter()
        w.run()
        wall = time.perf_counter() - started
        outcome = w.check()
        records = 0
        for sim in w.sims:
            store = sim.telemetry.spanstore
            sim.telemetry.close()
            records += store.span_count + store.event_count
            store.discard()
    finally:
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)
        tempfile.tempdir = None
    return {"wall_s": wall, "records": records, "digest": outcome.digest,
            "sim_makespan_s": outcome.sim_makespan_s, "tasks": outcome.tasks}


def _child(args, on: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "on" if on else "off", "--workload", args.workload,
           "--seed", str(args.seed), *(["--smoke"] if args.smoke else [])]
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONHASHSEED="0"),
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--child", choices=("on", "off"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(batch(args.workload, args.seed, args.smoke,
                               on=args.child == "on")))
        return 0
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    print(f"{args.workload} seed {args.seed} "
          f"({'smoke' if args.smoke else 'full'}) in {ROOT}")
    print(f"{'pair':>4} {'first':>5} {'on wall_s':>10} {'off wall_s':>10} "
          f"{'on - off':>9}")
    runs = {"on": [], "off": []}
    for pair in range(args.pairs):
        order = ("on", "off") if pair % 2 == 0 else ("off", "on")
        got = {side: _child(args, on=side == "on") for side in order}
        for side in order:
            runs[side].append(got[side])
        on, off = got["on"]["wall_s"], got["off"]["wall_s"]
        print(f"{pair + 1:>4} {order[0]:>5} {on:>10.3f} {off:>10.3f} "
              f"{on - off:>9.3f}", flush=True)

    cost = statistics.median(on["wall_s"] - off["wall_s"]
                             for on, off in zip(runs["on"], runs["off"]))
    records = runs["on"][0]["records"]
    for side in ("on", "off"):
        walls = [run["wall_s"] for run in runs[side]]
        print(f"{side:>3}: raw walls {' '.join(f'{w:.3f}' for w in walls)}"
              f"; median {statistics.median(walls):.3f} s")
    print(f"median on - off: {cost:.3f} s; {records} records a batch, "
          f"{cost / records * 1e6 if records else 0.0:.2f} us a record")
    differing = [key for key in IDENTITY_KEYS
                 if len({run[key] for run in runs["on"] + runs["off"]}) > 1]
    if differing:
        print(f"telemetry steered the run: {', '.join(differing)} differ "
              f"between on and off")
        return 1
    print("digest, sim_makespan_s and tasks identical on and off")
    return 0


if __name__ == "__main__":
    sys.exit(main())
