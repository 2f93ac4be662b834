#!/usr/bin/env python3
"""Every figure and ablation table equals its block in
``benchmarks/RESULTS.txt``.

    python3 tools/results_check.py

Runs each ``benchmarks/bench_*.py`` in a fresh process from the repo
root (``src/`` on the path, no ``REPRO_BENCH_SCALE`` or
``REPRO_STORE_OUT``) and compares every table it prints - from its
``== title ==`` line up to the next blank line - with the block of
RESULTS.txt under the same title, line for line and byte for byte.
The ``* telemetry:`` and ``* slowest:`` notes are dropped from what a
script prints first: they describe one run's telemetry, and
RESULTS.txt does not hold them. It also fails if a RESULTS.txt block
is printed by no script, or a title by two.

Prints one line per script and a unified diff for each table that
differs; exits 1 if anything differs, 0 when every table matches.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "RESULTS.txt"
RUN_NOTES = ("  * telemetry:", "  * slowest:")


def tables(text: str) -> dict[str, list[str]]:
    """Title line -> the table's lines, from its ``== `` title line up
    to the next blank line or title. A title seen twice raises
    ValueError."""
    found: dict[str, list[str]] = {}
    block = None
    for line in text.splitlines():
        if line.startswith("== "):
            if line in found:
                raise ValueError(f"table printed twice: {line}")
            block = found[line] = []
        elif not line.strip():
            block = None
        if block is not None:
            block.append(line)
    return found


def run_script(path: Path) -> str:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BENCH_SCALE", "REPRO_STORE_OUT")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return "\n".join(line for line in proc.stdout.splitlines()
                     if not line.startswith(RUN_NOTES))


def main() -> int:
    if sys.argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    expected = tables(RESULTS.read_text(encoding="utf-8"))
    scripts = [p for p in sorted((ROOT / "benchmarks").glob("bench_*.py"))
               if p.stem != "bench_common"]
    problems = []
    printed: dict[str, str] = {}
    for path in scripts:
        started = time.perf_counter()
        observed = tables(run_script(path))
        wall = time.perf_counter() - started
        verdicts = []
        if not observed:
            problems.append(f"{path.name} printed no table")
        for title, lines in observed.items():
            if title in printed:
                problems.append(f"{title!r} printed by {printed[title]} "
                                f"and {path.name}")
            printed[title] = path.name
            if title not in expected:
                problems.append(f"{path.name}: {title!r} is not in "
                                f"RESULTS.txt")
                verdicts.append("NEW")
            elif lines != expected[title]:
                problems.append(f"{path.name}: {title!r} differs")
                verdicts.append("DIFFERS")
                sys.stdout.writelines(difflib.unified_diff(
                    [line + "\n" for line in expected[title]],
                    [line + "\n" for line in lines],
                    "RESULTS.txt", path.name))
            else:
                verdicts.append("ok")
        print(f"{path.name:<36} {', '.join(verdicts) or '-':<12} "
              f"{wall:6.1f} s", flush=True)
    problems += [f"{title!r} is printed by no script"
                 for title in expected if title not in printed]
    for problem in problems:
        print(f"RESULTS CHECK FAILED: {problem}")
    if not problems:
        print(f"results check: {len(printed)} tables byte-identical to "
              f"RESULTS.txt")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
