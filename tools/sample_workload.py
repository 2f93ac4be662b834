#!/usr/bin/env python3
"""Where one ledger workload's timed region spends its CPU, by module.

    python3 tools/sample_workload.py --workload W [--seed N] [--smoke]

A 1 ms ``ITIMER_PROF`` sampler over ``W(seed).run()``: each tick
charges the file of the innermost frame. cProfile charges every call,
which doubles call-heavy code (the engines' per-row closures) and
misranks ``engine_mix``; a sampler does not. Uses nothing of the
program but ``benchmarks/ledger/workloads.py``, so a copy dropped into a
parent checkout's ``tools/`` gives the "before" column.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROWS_SHOWN = 16


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "benchmarks", "ledger")]
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, cls.sizes["smoke" if args.smoke else "full"])
    ticks: Counter = Counter()
    signal.signal(signal.SIGPROF,
                  lambda _sig, frame: ticks.update((frame.f_code.co_filename,)))
    signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
    started = time.perf_counter()
    workload.run()
    wall = time.perf_counter() - started
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    for sim in workload.sims:
        sim.telemetry.spanstore.discard()
    total = sum(ticks.values())
    print(f"{args.workload} seed {args.seed}: {total} samples, "
          f"raw wall {wall:.2f} s")
    prefix = os.path.join(ROOT, "src", "repro") + os.sep
    for path, n in ticks.most_common(ROWS_SHOWN):
        name = path[len(prefix):] if path.startswith(prefix) else path
        print(f"  {100 * n / total:5.1f} %  {n:6d}  {name}")


if __name__ == "__main__":
    main()
