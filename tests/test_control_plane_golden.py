"""Golden outputs of the control plane.

``tests/golden/control_plane.json`` holds, per scenario of
``control_plane_scenarios.py``, the simulated makespan and the sha256
of everything the scenario observes. The values were recorded once at
commit 98c7bea from the historical implementation of every mechanism
that then had two (per-partition events, per-delivery dispatch,
scan-everything task and capacity schedulers, tick-every-heartbeat RM,
generator-only attempts, unit exits, the other kernel queue); the one
implementation that remains must keep reproducing them. The three
entries whose journals or task traces order a tick's attempt exits
were re-recorded when every DAG came to batch them (see
``control_plane_scenarios.py``).
"""

import json
import os
import subprocess
import sys

import pytest

import control_plane_scenarios as scenarios

GOLDEN = json.loads(scenarios.GOLDEN_PATH.read_text())


def test_every_golden_has_a_scenario():
    assert set(GOLDEN["scenarios"]) == set(scenarios.SCENARIOS)


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_scenario_matches_golden(name):
    assert scenarios.observe(name) == GOLDEN["scenarios"][name]


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_goldens_do_not_depend_on_the_hash_seed(hashseed):
    # The run above covers whatever seed pytest itself got.
    proc = subprocess.run(
        [sys.executable, scenarios.__file__], text=True, check=True,
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONHASHSEED=hashseed))
    assert json.loads(proc.stdout) == GOLDEN["scenarios"]


def test_composite_fanout_compresses_the_partition_events():
    seen = {}
    scenarios.composite_fanout(seen)
    assert seen["composite"] > 0 and seen["dme"] == 0
    # 4-way fan-out: one composite stands for 4 per-partition events.
    assert 4 * seen["composite"] == \
        GOLDEN["per_partition_events"]["composite_fanout"]


def test_reuse_session_meets_idle_slots_it_must_refuse():
    stale = []
    scenarios.reuse_session(stale)
    assert any(alive for _t, _node, alive in stale), \
        "no idle slot on a blacklisted node met the matcher"
    assert any(not alive for _t, _node, alive in stale), \
        "no idle slot on a dead node met the matcher"
