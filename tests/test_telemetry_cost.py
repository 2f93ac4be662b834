"""tools/telemetry_cost.py against a stub workload: a copy of the tool
in a scratch tree whose benchmarks/ledger/workloads.py holds one small
workload, so the on/off alternation, the swap that builds every
SimCluster without telemetry, the records-per-batch count and the exit
on a run that telemetry steers are tested without the ledger."""

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_STUB = textwrap.dedent('''
    from dataclasses import dataclass

    from repro import SimCluster
    from repro.telemetry import get_telemetry


    @dataclass
    class Outcome:
        digest: str
        sim_makespan_s: float
        tasks: int


    class Stub:
        sizes = {"full": {"events": 40}, "smoke": {"events": 4}}

        def __init__(self, seed, size):
            self.sims = [SimCluster(num_nodes=1, nodes_per_rack=1,
                                    seed=seed)]
            self.events = size["events"]

        def run(self):
            env = self.sims[0].env

            def ticker():
                for i in range(self.events):
                    tel = get_telemetry(env)
                    if tel is not None:
                        tel.event("stub.tick", i=i)
                    yield env.timeout(1.0)

            env.run(until=env.process(ticker()))

        def check(self):
            tel = self.sims[0].telemetry
            return Outcome(digest=STEERED and str(tel.enabled) or "d",
                           sim_makespan_s=self.sims[0].env.now,
                           tasks=self.events)


    WORKLOADS = {"stub": Stub}
''')


def _tree(root: Path, steered: bool) -> Path:
    (root / "tools").mkdir(parents=True)
    shutil.copy(REPO / "tools" / "telemetry_cost.py", root / "tools")
    (root / "src").symlink_to(REPO / "src")
    ledger = root / "benchmarks" / "ledger"
    ledger.mkdir(parents=True)
    (ledger / "workloads.py").write_text(
        f"STEERED = {steered!r}\n" + _STUB)
    return root


def _cost(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "tools" / "telemetry_cost.py"),
         "--workload", "stub", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_alternates_on_and_off_and_counts_the_records(tmp_path):
    proc = _cost(_tree(tmp_path, steered=False), "--smoke", "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines if line.split()[:1] in
            (["1"], ["2"])]
    assert [row[1] for row in rows] == ["on", "off"]
    assert lines[-4].startswith(" on: raw walls ")
    assert lines[-3].startswith("off: raw walls ")
    # One session-less cluster: the four tick events and nothing else.
    assert lines[-2].startswith("median on - off: ")
    assert " s; 4 records a batch, " in lines[-2]
    assert lines[-1] == "digest, sim_makespan_s and tasks identical on " \
        "and off"


def test_a_run_that_telemetry_steers_exits_1(tmp_path):
    proc = _cost(_tree(tmp_path, steered=True), "--smoke", "--pairs", "1")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1] == \
        "telemetry steered the run: digest differ between on and off"
