"""The three benchmark workloads and the code that measures them.

Every workload is a batch run as fast as the host allows, its inputs drawn
from the seed alone.  The two fleet workloads repeat one scenario run with
that seed; the sweep workload repeats one sweep.  Repeats give medians, and
they must agree byte for byte, which is one of the output checks.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from perfbench import calibration, checks, layers
from perfbench.phases import PhaseClock
from perfbench.stats import highest_percentile, median, percentile
from perfbench.tracing import Instrumentation, SpanLog

#: Repeats a measured set always makes: the digest check needs two, the
#: set-up median three.
MIN_FLEET_RUNS = 3
MIN_SWEEPS = 2

#: Runners of the sweep fleet: one per CPU of the 2-CPU reference host.
SWEEP_RUNNERS = 2

HOUR = 3600.0

#: Root of the checkout: the runners import the program from its ``src/``.
ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------------ specs
def fleet_2k_spec():
    """2,000 LCs in 32 groups of ~62 on a deterministic network, Poisson churn."""
    from repro.scenarios import ScenarioSpec, WorkloadPhase

    duration, vms = 240.0, 2400
    return ScenarioSpec(
        name="fleet-2k-steady",
        description="2,000-LC fleet under steady churn on a deterministic network",
        duration=duration,
        local_controllers=2000,
        group_managers=32,
        nodes_per_rack=40,
        record_interval=60.0,
        config={"network": {"base_latency": 0.001, "jitter": 0.0, "loss_probability": 0.0}},
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=vms,
                arrival={"kind": "poisson", "rate_per_hour": HOUR * vms / duration / 2.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.7},
                lifetime={"kind": "exponential", "mean": duration / 3.0, "minimum": 30.0},
            )
        ],
    )


def control_plane_spec():
    """``consolidation-at-scale`` plus the autoscaled web service and a fault timeline."""
    from repro.scenarios import get_scenario
    from repro.scenarios.spec import TimelineEvent

    base = get_scenario("consolidation-at-scale")
    return dataclasses.replace(
        base,
        name="control-plane-jittered",
        description="consolidation-at-scale + diurnal autoscaled web service + GL kill + LC crash",
        traffic=get_scenario("diurnal-users-autoscale").traffic,
        timeline=[
            TimelineEvent(at=1200.0, action="kill_leader"),
            TimelineEvent(at=1800.0, action="kill_lc", params={"name": "lc-007"}),
            TimelineEvent(at=2400.0, action="recover", params={"name": "lc-007"}),
        ],
    )


#: Seeds of the sweep, all derived from ``--seed``: 2 scenarios × 4 placement
#: policies × 6 seeds = 48 cells.
SWEEP_REPLICATES = 6


def sweep_spec(seed: int):
    """The catalog ``policy-matrix`` sweep without periodic reconfiguration.

    Its placement axis is kept, its reconfiguration axis is dropped, and its
    seed axis is ``SWEEP_REPLICATES`` seeds derived from ``seed``.  Periodic
    reconfiguration is off because of a program defect:
    ``ReconfigurationPolicy.plan`` keeps the current placement when a
    consolidation result is infeasible, but not when the consolidation
    algorithm raises ``PlacementError``, which every one of them (aco,
    aco-vectorized, distributed-aco, ffd, bfd, wfd) does on some seeds; the
    error escapes the GM's reconfiguration tick and the scenario run dies.
    Put the reconfiguration axis back once ``repro.policies`` catches it.
    """
    from repro.policies import policy_names
    from repro.sweeps import get_sweep

    base = get_sweep("policy-matrix")
    return dataclasses.replace(
        base,
        name="policy-matrix-placement",
        policies=[{"placement": {"name": name}} for name in policy_names("placement")],
        replicates=SWEEP_REPLICATES,
        base_seed=int(seed),
        config={k: v for k, v in base.config.items() if k != "reconfiguration_interval"},
    )


@dataclasses.dataclass(frozen=True)
class FleetWorkload:
    name: str
    build_spec: Callable
    #: Simulated seconds per sample window.
    window: float


FLEETS = {
    workload.name: workload
    for workload in (
        FleetWorkload("fleet-2k-steady", fleet_2k_spec, window=10.0),
        FleetWorkload("control-plane-jittered", control_plane_spec, window=60.0),
    )
}
SWEEP = "sweep-placement-matrix"
WORKLOADS = tuple(FLEETS) + (SWEEP,)


# ------------------------------------------------------------- utilities
def peak_rss_mb(children: int = 0) -> float:
    """Peak RSS of this process plus ``children`` times the largest child's peak.

    The kernel keeps only the largest waited-for child's peak, so for a fleet
    of equal runners this is an upper bound on their summed peaks.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if children else 0
    return (own + children * child) / 1024.0


def _outcomes(results: List[dict]) -> Dict[str, float]:
    """Modelled outcomes of scenario results, exact for a seed.

    Each result is folded into the sweep report's metric row (so
    ``sla_violations`` is the report's: rejected submissions plus overloads)
    and the rows are summed.
    """
    from repro.sweeps.report import _metrics_from_result

    rows = [_metrics_from_result(result) for result in results]
    hours = sum(row["simulated_seconds"] for row in rows) / HOUR
    return {
        "energy_kwh_per_sim_hour": sum(row["energy_kwh"] for row in rows) / hours,
        "placement_latency_s_mean": sum(row["mean_latency_seconds"] for row in rows) / len(rows),
        "model.migrations_per_sim_hour": sum(row["migrations"] for row in rows) / hours,
        "model.sla_violations": sum(row["sla_violations"] for row in rows),
        "model.request_p99_latency_s": max(row["request_p99_latency_seconds"] for row in rows),
    }


MODEL_LAYER_KEYS = (
    "model.migrations_per_sim_hour",
    "model.sla_violations",
    "model.request_p99_latency_s",
)


def _window_rates(windows) -> List[float]:
    """Reference seconds per simulated hour of each window."""
    return [
        calibration.reference_seconds(wall, kernel_s) * HOUR / sim
        for wall, sim, kernel_s in windows
        if sim > 0
    ]


# ---------------------------------------------------------------- fleets
class FleetRun:
    """One scenario run with its phases, result and checks."""

    def __init__(self, phases, wall: float, result) -> None:
        self.phases = phases
        self.wall = wall
        self.result = result.to_dict()
        self.digest = checks.digest(result.canonical_json())
        self.problems = checks.check_scenario_result(self.result)


def _run_scenario(spec, seed: int, clock: PhaseClock) -> FleetRun:
    from repro.scenarios import ScenarioRunner

    gc.collect()
    phases = clock.begin()
    result = ScenarioRunner(spec, seed=seed).run()
    wall = perf_counter() - phases.began
    return FleetRun(phases, wall, result)


def measure_fleet(workload: FleetWorkload, seed: int, seconds: float, import_s: float) -> dict:
    """End-to-end metrics of repeated untraced runs with one seed."""
    spec = workload.build_spec()
    runs: List[FleetRun] = []
    began = perf_counter()
    with PhaseClock(workload.window) as clock:
        while len(runs) < MIN_FLEET_RUNS or (
            perf_counter() - began + median([r.wall for r in runs]) <= seconds
        ):
            try:
                runs.append(_run_scenario(spec, seed, clock))
            except Exception:  # noqa: BLE001 - a crashed run is a failed operation
                # A seed's runs are identical, so the next one would crash too.
                return {
                    "metrics": {},
                    "attempted": len(runs) + 1,
                    "failed": 1,
                    "problems": [f"the program crashed:\n{traceback.format_exc(limit=8)}"],
                    "samples": {"runs": len(runs) + 1},
                }
    for run in runs[1:]:
        if run.digest != runs[0].digest:
            run.problems.append("canonical digest differs from the first run of this seed")
    problems = [p for run in runs for p in run.problems]
    outcomes = _outcomes([runs[0].result])
    rates = [rate for run in runs for rate in _window_rates(run.phases.windows)]
    metrics = {
        "setup_s": import_s + median([r.phases.setup_ref_s for r in runs]),
        "ref_s_per_sim_hour": median(
            [r.phases.measured_ref_s * HOUR / r.phases.simulated_s for r in runs]
        ),
        "ref_s_per_sim_hour_p50": percentile(rates, 50),
        "ref_s_per_sim_hour_p75": percentile(rates, 75),
        "peak_rss_mb": peak_rss_mb(),
        "energy_kwh_per_sim_hour": outcomes["energy_kwh_per_sim_hour"],
        "placement_latency_s_mean": outcomes["placement_latency_s_mean"],
    }
    return {
        "metrics": metrics,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r.problems),
        "problems": problems,
        "samples": {
            "runs": len(runs),
            "windows": len(rates),
            "highest_percentile": highest_percentile(len(rates)),
        },
        "raw": {
            "wall_s_per_sim_hour": median(
                [r.phases.measured_s * HOUR / r.phases.simulated_s for r in runs]
            ),
            "setup_s": median([r.phases.setup_s for r in runs]),
        },
        "runs": [
            {"wall_s": r.wall, "digest": r.digest, "phases": r.phases.to_dict()} for r in runs
        ],
    }


def _layer_metrics_of_fleet(untraced: FleetRun, traced: FleetRun, instr, log, import_s) -> dict:
    summary = layers.summarize(log, instr, [traced.result])
    out = layers.finish(summary, traced.wall)
    outcomes = _outcomes([traced.result])
    out.update({key: outcomes[key] for key in MODEL_LAYER_KEYS})
    out.update(
        {
            "setup.import_s": import_s,
            "setup.build_s": untraced.phases.setup_ref(untraced.phases.build_s),
            "setup.start_s": untraced.phases.setup_ref(untraced.phases.start_s),
            "setup.workload_gen_s": untraced.phases.setup_ref(untraced.phases.workload_gen_s),
            "obs.trace_overhead_ratio": traced.wall / untraced.wall,
        }
    )
    out.update({key: 0 for key in SWEEP_LAYER_KEYS})
    return out


def trace_fleet(workload: FleetWorkload, seed: int, import_s: float, out_dir: Path) -> dict:
    """Per-layer metrics: one untraced run, then one traced run of the same seed."""
    spec = workload.build_spec()
    with PhaseClock(workload.window) as clock:
        untraced = _run_scenario(spec, seed, clock)
        log = SpanLog()
        with Instrumentation(log) as instr:
            traced = _run_scenario(spec, seed, clock)
    if traced.digest != untraced.digest:
        traced.problems.append("traced run's canonical digest differs from the untraced run's")
    problems = untraced.problems + traced.problems
    metrics = _layer_metrics_of_fleet(untraced, traced, instr, log, import_s)
    trace_path = out_dir / f"{workload.name}-seed{seed}.spans.npz"
    log.save(trace_path)
    return {
        "metrics": metrics,
        "attempted": 2,
        "failed": sum(1 for r in (untraced, traced) if r.problems),
        "problems": problems,
        "samples": {"spans": len(log)},
        "trace_file": str(trace_path),
    }


#: Per-layer metrics of the sweep fleet, 0 on the fleet workloads.
SWEEP_LAYER_KEYS = (
    "sweeps.leases_granted",
    "sweeps.speculative_leases",
    "sweeps.reclaims",
    "sweeps.retries",
    "sweeps.duplicates_discarded",
    "sweeps.useful_lease_ratio",
    "sweeps.runner_busy_ratio",
    "sweeps.runner_start_s",
)


# ----------------------------------------------------------------- sweep
class _SweepProbe:
    """First-lease and runner-spawn timestamps of the sweep in flight.

    No public call marks a granted lease, so this wraps the coordinator's
    ``_grant``; it only reads the reply.
    """

    def __init__(self) -> None:
        self.first_lease: Optional[float] = None
        self.first_spawn: Optional[float] = None
        self._patches: list = []

    def __enter__(self) -> "_SweepProbe":
        import repro.sweeps.distributed as distributed

        grant = distributed.SweepCoordinator._grant
        spawn = distributed.spawn_loopback_runner
        probe = self

        def timed_grant(coordinator, *args, **kwargs):
            reply = grant(coordinator, *args, **kwargs)
            if reply is not None and probe.first_lease is None:
                probe.first_lease = perf_counter()
            return reply

        def timed_spawn(*args, **kwargs):
            if probe.first_spawn is None:
                probe.first_spawn = perf_counter()
            return spawn(*args, **kwargs)

        self._patches = [
            (distributed.SweepCoordinator, "_grant", grant),
            (distributed, "spawn_loopback_runner", spawn),
        ]
        distributed.SweepCoordinator._grant = timed_grant
        distributed.spawn_loopback_runner = timed_spawn
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in self._patches:
            setattr(owner, attr, original)


class _KeepOutcomes:
    """Executor wrapper keeping the raw outcomes (unrounded run walls)."""

    def __init__(self, executor) -> None:
        self.executor = executor
        self.jobs = executor.jobs
        self.outcomes: List[dict] = []

    def map(self, payloads):
        self.outcomes = self.executor.map(payloads)
        return self.outcomes


class SweepRun:
    """One sweep through ``DistributedExecutor``, with runners started in ``runner_env``.

    The runners load ``perfbench/hook/sitecustomize.py`` (:func:`_hook_env`),
    which adds each cell's calibration sample to its outcome.  The sweep's
    speed factor is Σ cell walls in reference seconds ÷ Σ cell walls; the
    makespan is rescaled by it.
    """

    def __init__(self, spec, runner_env: dict) -> None:
        from repro.sweeps import DistributedExecutor, run_sweep

        gc.collect()
        executor = _KeepOutcomes(
            DistributedExecutor(runners=SWEEP_RUNNERS, runner_env=[runner_env] * SWEEP_RUNNERS)
        )
        with _SweepProbe() as probe:
            began = perf_counter()
            report = run_sweep(spec, executor=executor)
            self.makespan = perf_counter() - began
        first_lease = probe.first_lease or began
        self.setup_s = first_lease - began
        self.runner_start_s = first_lease - (probe.first_spawn or began)
        self.report_json = report.to_json()
        self.outcomes = executor.outcomes
        self.stats = dict(executor.executor.last_stats)
        per_run = checks.check_sweep_outcomes(self.outcomes)
        self.failed = sum(1 for problems in per_run if problems)
        self.problems = [p for problems in per_run for p in problems]
        self.run_walls = [float(o.get("wall_seconds", 0.0)) for o in self.outcomes]
        # A cell the coordinator gave up on never ran: no sample, no wall.
        self.run_ref_walls = [
            calibration.reference_seconds(wall, o["kernel_s"]) if "kernel_s" in o else wall
            for wall, o in zip(self.run_walls, self.outcomes)
        ]
        # The simulated time each cell was asked for, whether or not it finished.
        self.sim_hours = [
            float(o["run"].get("duration") or (o.get("result") or {}).get("duration", 0.0))
            / HOUR
            for o in self.outcomes
        ]
        self.speed_factor = sum(self.run_ref_walls) / sum(self.run_walls)


def measure_sweep(seed: int, seconds: float, import_s: float) -> dict:
    spec = sweep_spec(seed)
    sweeps: List[SweepRun] = []
    began = perf_counter()
    while len(sweeps) < MIN_SWEEPS or (
        perf_counter() - began + median([s.makespan for s in sweeps]) <= seconds
    ):
        sweeps.append(SweepRun(spec, _hook_env("calibrate")))
    problems = [p for s in sweeps for p in s.problems]
    same = checks.check_same("sweep report JSON", [s.report_json for s in sweeps])
    problems += same
    rates = [
        wall / hours
        for s in sweeps
        for wall, hours, outcome in zip(s.run_ref_walls, s.sim_hours, s.outcomes)
        if outcome.get("status") == "ok"
    ]
    outcomes = _outcomes([o["result"] for o in sweeps[0].outcomes if o.get("status") == "ok"])
    runs = len(sweeps[0].outcomes)
    metrics = {
        # Runner start-up is interpreter start and imports: not calibrated.
        "setup_s": import_s + median([s.setup_s for s in sweeps]),
        "ref_s_per_sim_hour": median(
            [s.makespan * s.speed_factor / sum(s.sim_hours) for s in sweeps]
        ),
        "ref_s_per_sim_hour_p50": percentile(rates, 50),
        "ref_s_per_sim_hour_p75": percentile(rates, 75),
        "peak_rss_mb": peak_rss_mb(children=SWEEP_RUNNERS),
        "energy_kwh_per_sim_hour": outcomes["energy_kwh_per_sim_hour"],
        "placement_latency_s_mean": outcomes["placement_latency_s_mean"],
    }
    failed = sum(s.failed for s in sweeps)
    if same and not failed:
        failed = sum(len(s.outcomes) for s in sweeps[1:])
    return {
        "metrics": metrics,
        "attempted": sum(len(s.outcomes) for s in sweeps),
        "failed": failed,
        "problems": problems,
        "samples": {
            "sweeps": len(sweeps),
            "runs": runs * len(sweeps),
            "highest_percentile": highest_percentile(len(rates)),
        },
        "raw": {
            "wall_s_per_sim_hour": median([s.makespan / sum(s.sim_hours) for s in sweeps]),
            "setup_s": median([s.setup_s for s in sweeps]),
        },
        "sweeps": [
            {"makespan_s": s.makespan, "setup_s": s.setup_s, "speed_factor": s.speed_factor,
             "run_walls_s": s.run_walls, "stats": s.stats}
            for s in sweeps
        ],
    }


def _hook_env(mode: str, out_dir: Optional[Path] = None) -> dict:
    """Environment of a runner that loads ``perfbench/hook/sitecustomize.py``."""
    path = [str(ROOT / "perfbench" / "hook"), str(ROOT), str(ROOT / "src")]
    existing = os.environ.get("PYTHONPATH")
    if existing:
        path.append(existing)
    return {
        "PYTHONPATH": os.pathsep.join(path),
        "PERFBENCH_HOOK": mode,
        "PERFBENCH_HOOK_DIR": str(out_dir or ""),
    }


def _read_hook_files(directory: Path) -> List[dict]:
    """Per-cell records written by the runners, one per run index."""
    records: Dict[int, dict] = {}
    for path in sorted(directory.glob("run-*.json")):
        record = json.loads(path.read_text())
        records.setdefault(int(record["index"]), record)
    return [records[index] for index in sorted(records)]


def trace_sweep(seed: int, import_s: float, out_dir: Path) -> dict:
    """Per-layer metrics: a phase-timed sweep, then a traced sweep of the same seed."""
    spec = sweep_spec(seed)
    phase_dir = out_dir / f"{SWEEP}-seed{seed}-phases"
    trace_dir = out_dir / f"{SWEEP}-seed{seed}-spans"
    for directory in (phase_dir, trace_dir):
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.glob("run-*"):
            stale.unlink()
    untraced = SweepRun(spec, _hook_env("phases", phase_dir))
    traced = SweepRun(spec, _hook_env("trace", trace_dir))
    problems = untraced.problems + traced.problems
    problems += checks.check_same(
        "sweep report JSON of the traced and untraced sweeps",
        [untraced.report_json, traced.report_json],
    )
    phase_records = _read_hook_files(phase_dir)
    trace_records = _read_hook_files(trace_dir)
    runs = len(untraced.outcomes)
    if len(phase_records) != runs or len(trace_records) != runs:
        problems.append(
            f"runner records missing: {len(phase_records)} phase and {len(trace_records)} "
            f"trace records for {runs} runs"
        )
    summary = layers.merge(record["layers"] for record in trace_records)
    traced_walls = sum(record["wall_s"] for record in trace_records) or 1.0
    metrics = layers.finish(summary, traced_walls)
    outcomes = _outcomes([o["result"] for o in untraced.outcomes if o.get("status") == "ok"])
    metrics.update({key: outcomes[key] for key in MODEL_LAYER_KEYS})
    stats = untraced.stats
    leases = stats.get("leases_granted", 0)
    metrics.update(
        {
            "setup.import_s": import_s,
            **{
                f"setup.{part}_s": median(
                    [r["phases"][f"{part}_ref_s"] for r in phase_records] or [0.0]
                )
                for part in ("build", "start", "workload_gen")
            },
            "obs.trace_overhead_ratio": traced.makespan / untraced.makespan,
            "sweeps.leases_granted": leases,
            "sweeps.speculative_leases": stats.get("speculative_leases", 0),
            "sweeps.reclaims": stats.get("reclaimed_expired", 0)
            + stats.get("reclaimed_disconnect", 0),
            "sweeps.retries": stats.get("retries", 0),
            "sweeps.duplicates_discarded": stats.get("duplicates_discarded", 0),
            "sweeps.useful_lease_ratio": runs / leases if leases else 0.0,
            "sweeps.runner_busy_ratio": sum(untraced.run_walls)
            / (SWEEP_RUNNERS * untraced.makespan),
            "sweeps.runner_start_s": untraced.runner_start_s,
        }
    )
    failed = untraced.failed + traced.failed
    if problems and not failed:
        failed = runs
    return {
        "metrics": metrics,
        "attempted": 2 * runs,
        "failed": failed,
        "problems": problems,
        "samples": {"runs": runs, "spans": int(sum(r["spans"] for r in trace_records))},
        "trace_dir": str(trace_dir),
    }

