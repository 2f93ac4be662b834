"""The crash witness: who crashed when, what was journaled then, and
what ran again afterwards.

It is the evidence behind every no-re-execution verdict - the
crash-anywhere sweep's (``repro.chaos.sweep``) and the cluster day's
(``repro.bench.cluster_day``). A witness watches Tez clients: it
records every AM attempt they make, and wraps the ``crash`` of a
target attempt so that, at the instant that attempt dies, every
success its own journal holds for an unfinished DAG is kept.
Processor fns wrapped by :meth:`CrashWitness.tracked` log each
execution; a logged run of a journaled task after the crash is a
re-execution, which write-ahead recovery forbids.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["CrashWitness"]


class CrashWitness:
    def __init__(self) -> None:
        self.ams: list = []            # every AM attempt, in launch order
        self.runs: list = []           # (dag, vertex, index, attempt, t)
        self.crashed = False
        self.crash_time = -1.0
        self.journaled: frozenset = frozenset()   # (dag, vertex, index)

    def watch(self, client, target: Optional[Callable] = None,
              arm: Optional[Callable] = None) -> None:
        """Record every AM attempt ``client`` makes. An attempt for
        which ``target(am, ctx)`` holds has its ``crash`` witnessed and
        is then handed to ``arm``, which may schedule that crash."""
        make_am = client._make_am

        def witnessed_make_am(ctx):
            am = make_am(ctx)
            self.ams.append(am)
            if target is not None and target(am, ctx):
                self._witness_crash(am)
                if arm is not None:
                    arm(am)
            return am

        client._make_am = witnessed_make_am

    def _witness_crash(self, am) -> None:
        crash = am.crash

        def witnessed_crash():
            self.crashed = True
            self.crash_time = am.env.now
            self.journaled = frozenset(
                (dag, vertex, index)
                for dag, state in am.recovery.dags.items()
                for vertex, index in state.successes
            )
            crash()

        am.crash = witnessed_crash

    def tracked(self, fn: Callable, dag: str, vertex: str) -> Callable:
        """``fn`` as a processor fn that logs each execution."""
        runs = self.runs

        def run(ctx, data):
            runs.append((dag, vertex, ctx.task_index, ctx.attempt,
                         ctx.env.now))
            return fn(ctx, data)

        return run

    def reexecutions(self) -> list[str]:
        """One line per run, after the crash, of a task journaled at
        it: empty whenever write-ahead recovery holds."""
        return [
            f"journaled task {dag}/{vertex}[{index}] re-executed as "
            f"attempt {attempt} at t={t:.2f} (crash was "
            f"t={self.crash_time:.2f})"
            for dag, vertex, index, attempt, t in self.runs
            if (dag, vertex, index) in self.journaled
            and t > self.crash_time
        ]

    def reruns(self) -> int:
        """Executions after the crash: the work the recovered AM redid
        because it was not journaled yet."""
        if not self.crashed:
            return 0
        return sum(1 for run in self.runs if run[4] > self.crash_time)

    def counter(self, name: str) -> int:
        """A registry counter summed over every recorded AM attempt."""
        return int(sum(am.registry.counter(name).value for am in self.ams))
