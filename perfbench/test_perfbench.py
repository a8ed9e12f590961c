"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import checks, layers  # noqa: E402
from perfbench.stats import highest_percentile, percentile  # noqa: E402
from perfbench.tracing import Instrumentation, SpanLog  # noqa: E402


# ---------------------------------------------------------- percentile rule
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (39, 50), (40, 75), (48, 75), (99, 75), (100, 90), (200, 95),
     (999, 95), (1000, 99)],
)
def test_highest_percentile_leaves_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_every_workload_supports_p75():
    from perfbench.workloads import FLEETS, MIN_FLEET_RUNS, MIN_SWEEPS, sweep_spec

    for workload in FLEETS.values():
        windows = int(workload.build_spec().duration / workload.window) * MIN_FLEET_RUNS
        assert highest_percentile(windows) >= 75, workload.name
    assert highest_percentile(len(sweep_spec(0).expand()) * MIN_SWEEPS) >= 75


def test_sweep_inputs_come_from_the_seed_and_skip_reconfiguration():
    from repro.policies import policy_names

    from perfbench.workloads import sweep_spec

    runs = sweep_spec(5).expand()
    assert len(runs) == 48
    assert {run.policies["placement"]["name"] for run in runs} == set(policy_names("placement"))
    assert all("reconfiguration" not in run.policies for run in runs)
    assert "reconfiguration_interval" not in sweep_spec(5).config
    assert [run.seed for run in runs] == [run.seed for run in sweep_spec(5).expand()]
    assert {run.seed for run in runs} != {run.seed for run in sweep_spec(6).expand()}


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 75) == pytest.approx(3.25)
    assert percentile([7.0], 99) == 7.0


# ----------------------------------------------------------- span self time
def _close(log, name, start, end, layer="test"):
    log.close(log.span_id(layer, name), start, end)


def test_nested_spans_subtract_children_from_self_time():
    log = SpanLog()
    _close(log, "sibling-before", 0.0, 0.5)
    _close(log, "a", 1.0, 3.0)
    _close(log, "c", 5.0, 6.0)
    _close(log, "b", 4.0, 8.0)
    _close(log, "handler", 0.9, 10.0)
    names = [log.names[i] for i in log.name_id]
    parent = {names[i]: (names[p] if p >= 0 else None) for i, p in enumerate(log.parent)}
    self_s = dict(zip(names, log.self_seconds))
    assert parent == {
        "sibling-before": None, "a": "handler", "c": "b", "b": "handler", "handler": None,
    }
    assert self_s["c"] == pytest.approx(1.0)
    assert self_s["b"] == pytest.approx(3.0)
    assert self_s["a"] == pytest.approx(2.0)
    assert self_s["handler"] == pytest.approx(9.1 - 2.0 - 4.0)
    assert sum(self_s.values()) == pytest.approx(0.5 + 9.1)


def test_tick_group_members_are_children_of_their_group_tick():
    """Members record before the group tick does; the group keeps only its own time."""
    from repro.simulation.batch import CoalescedTicker
    from repro.simulation.engine import Simulator

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    log = SpanLog()
    with Instrumentation(log):
        sim = Simulator()
        ticker = CoalescedTicker.shared(sim)
        ticker.register(1.0, lambda: busy(0.002), name="m1")
        ticker.register(1.0, lambda: busy(0.003), name="m2")
        sim.run(until=3.5)
    names = [log.names[i] for i in log.name_id]
    ticks = [i for i, n in enumerate(names) if n == "_TickGroup._tick"]
    members = [i for i, n in enumerate(names) if "<lambda>" in n]
    assert len(ticks) == 3 and len(members) == 6
    assert log.counts["batch.tick_member_calls"] == 6
    for i in members:
        assert log.parent[i] in ticks
    for i in ticks:
        duration = log.end[i] - log.start[i]
        assert duration > 0.005
        assert 0 <= log.self_seconds[i] < duration - 0.004
    run_span = names.index("Simulator.run")
    assert all(log.parent[i] == run_span for i in ticks)
    inside = [i for i in range(len(log)) if log.start[i] >= log.start[run_span]]
    assert sum(log.self_seconds[i] for i in inside) == pytest.approx(
        log.end[run_span] - log.start[run_span]
    )


# ------------------------------------------------------------ output checks
GOOD = {
    "submissions": {"submitted": 10, "placed": 8, "rejected": 1, "pending": 1},
    "churn": {"departed": 5, "failed": 1, "active_at_end": 2},
    "availability": {"leader_at_end": "gm-00"},
}


def test_checker_accepts_a_consistent_result():
    assert checks.check_scenario_result(GOOD) == []


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("submissions", "placed", 9),
        ("submissions", "pending", 0),
        ("churn", "active_at_end", 3),
        ("churn", "departed", 4),
        ("availability", "leader_at_end", None),
    ],
)
def test_checker_fails_a_doctored_result(section, key, value):
    doctored = copy.deepcopy(GOOD)
    doctored[section][key] = value
    assert checks.check_scenario_result(doctored)


def test_checker_fails_a_result_without_counts():
    assert checks.check_scenario_result({"availability": {"leader_at_end": "gm-00"}})


def test_digest_and_report_mismatches_are_problems():
    assert checks.check_same("digests", ["a", "a", "a"]) == []
    assert checks.check_same("digests", ["a", "b", "a"])


def test_failed_sweep_cells_are_problems():
    ok = {"status": "ok", "result": GOOD}
    failed = {"status": "failed", "result": None, "error": "ValueError: boom"}
    assert checks.check_sweep_outcomes([ok, failed]) == [
        [], ["sweep cell failed: ValueError: boom"]
    ]


# ------------------------------------------------- traced run end to end
def test_traced_run_matches_untraced_and_covers_its_wall():
    from repro.scenarios import ScenarioRunner, get_scenario

    spec = get_scenario("steady-churn")
    plain = ScenarioRunner(spec, seed=3, duration=300.0).run()
    log = SpanLog()
    began = time.perf_counter()
    with Instrumentation(log) as instrumentation:
        traced = ScenarioRunner(spec, seed=3, duration=300.0).run()
    wall = time.perf_counter() - began
    assert traced.canonical_json() == plain.canonical_json()
    summary = layers.finish(layers.summarize(log, instrumentation, [traced.to_dict()]), wall)
    assert summary["simulation.events"] > 0
    assert summary["hierarchy.lc_heartbeats"] > 0
    assert summary["policies.decisions.placement"] > 0
    assert 0.5 < summary["trace.coverage_ratio"] <= 1.0
