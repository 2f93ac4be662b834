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
from collections import Counter

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
    with scenarios.counting_routed({}) as seen:
        scenarios.composite_fanout()
    assert seen["composite"] > 0 and seen["dme"] == 0
    # 4-way fan-out: one composite stands for 4 per-partition events.
    assert 4 * seen["composite"] == \
        GOLDEN["per_partition_events"]["composite_fanout"]


@pytest.fixture(scope="module")
def routed_per_scenario():
    """What producers routed in each golden scenario."""
    routed = {}
    for name in sorted(scenarios.SCENARIOS):
        with scenarios.counting_routed({}) as seen:
            scenarios.observe(name)
        routed[name] = seen
    return routed


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_no_producer_routes_a_plain_dme(routed_per_scenario, name):
    # cluster_day_smoke's DAGs are single vertices: nothing to route.
    assert routed_per_scenario[name]["dme"] == 0


def test_one_partition_edges_announce_with_a_composite_too():
    with scenarios.counting_routed({}) as seen:
        _makespan, got = scenarios.one_partition_edges()
    assert seen["dme"] == 0
    assert seen["edges"] == Counter({
        ("BROADCAST", 1): 3, ("ONE_TO_ONE", 1): 3,
        ("SCATTER_GATHER", 1): 3})
    assert got == {("j", 0): [(0, 1), (1, 1), (2, 1)],
                   ("j", 1): [(0, 1), (1, 1), (2, 1)],
                   "r": [(0, [10]), (1, [10]), (2, [10])]}


def test_reuse_session_meets_idle_slots_it_must_refuse():
    stale = []
    scenarios.reuse_session(stale)
    assert any(alive for _t, _node, alive in stale), \
        "no idle slot on a blacklisted node met the matcher"
    assert any(not alive for _t, _node, alive in stale), \
        "no idle slot on a dead node met the matcher"
