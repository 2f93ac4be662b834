#!/usr/bin/env python3
"""Where one ledger workload's timed region spends its CPU, by module.

    python3 tools/sample_workload.py --workload W [--seed N] [--smoke]
                                     [--by {file,function,line}]

A 1 ms ``ITIMER_PROF`` sampler over ``W(seed).run()``: each tick
charges the innermost frame - its file (the default), its function or
its line. A frame of generated code (file ``<string>``: a dataclass's
or namedtuple's ``__init__`` / ``__eq__`` / ``__hash__``) is charged to
``Class.method`` of its ``self``, never to the bare ``<string>``.
cProfile charges every call, which doubles call-heavy code (the
engines' per-row closures) and misranks ``engine_mix``; a sampler does
not. Uses nothing of the program but ``benchmarks/ledger/workloads.py``,
so a copy dropped into a parent checkout's ``tools/`` gives the
"before" column.
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
PREFIX = os.path.join(ROOT, "src", "repro") + os.sep


def frame_key(frame, by: str) -> str:
    """The row one sample is charged to."""
    code = frame.f_code
    path = code.co_filename
    if path == "<string>":
        # First argument: ``self``, or the class for a ``__new__``.
        owner = (frame.f_locals.get(code.co_varnames[0])
                 if code.co_argcount else None)
        cls = owner if isinstance(owner, type) else type(owner)
        return f"<string> {cls.__name__}.{code.co_name}"
    if path.startswith(PREFIX):
        path = path[len(PREFIX):]
    if by == "function":
        # co_qualname is 3.11+; the bare name on 3.10.
        return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"
    if by == "line":
        return f"{path}:{frame.f_lineno}"
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--by", choices=("file", "function", "line"),
                        default="file", help="what a sample is charged to")
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "benchmarks", "ledger")]
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, cls.sizes["smoke" if args.smoke else "full"])
    ticks: Counter = Counter()
    signal.signal(signal.SIGPROF,
                  lambda _sig, frame: ticks.update((frame_key(frame, args.by),)))
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
    for name, n in ticks.most_common(ROWS_SHOWN):
        print(f"  {100 * n / total:5.1f} %  {n:6d}  {name}")


if __name__ == "__main__":
    main()
