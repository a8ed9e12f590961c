"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list means the output passed.
A run with any problem counts as failed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence


def digest(canonical_json: str) -> str:
    return hashlib.sha256(canonical_json.encode()).hexdigest()


def check_scenario_result(result: Dict[str, dict]) -> List[str]:
    """VM conservation and a settled leader in one ``ScenarioResult.to_dict()``.

    * ``submitted = placed + rejected + pending``: every submission ends in
      exactly one state;
    * ``placed = departed + failed + active_at_end``: every placed VM either
      left, was lost with its host, or still runs;
    * ``leader_at_end`` is set: the hierarchy has a Group Leader at the end.
    """
    problems = []
    sub = result.get("submissions") or {}
    churn = result.get("churn") or {}
    try:
        submitted, placed = int(sub["submitted"]), int(sub["placed"])
        rejected, pending = int(sub["rejected"]), int(sub["pending"])
        departed, failed = int(churn["departed"]), int(churn["failed"])
        active = int(churn["active_at_end"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"result lacks a submission or churn count: {exc!r}"]
    if submitted != placed + rejected + pending:
        problems.append(
            f"submitted {submitted} != placed {placed} + rejected {rejected} + pending {pending}"
        )
    if placed != departed + failed + active:
        problems.append(
            f"placed {placed} != departed {departed} + failed {failed} + active {active}"
        )
    if submitted == 0:
        problems.append("no VM was submitted")
    if not (result.get("availability") or {}).get("leader_at_end"):
        problems.append("no Group Leader at the end of the run")
    return problems


def check_same(label: str, values: Sequence[str]) -> List[str]:
    """All ``values`` equal (digests of one seed, or report JSON across repeats)."""
    distinct = sorted(set(values))
    if len(distinct) > 1:
        return [f"{label} differ across {len(values)} repeats: {len(distinct)} distinct values"]
    return []


def check_sweep_outcomes(outcomes: Sequence[dict]) -> List[List[str]]:
    """Problems of each sweep cell: failed status, or a scenario check failing."""
    per_run = []
    for outcome in outcomes:
        if outcome.get("status") != "ok":
            per_run.append([f"sweep cell failed: {outcome.get('error')}"])
        else:
            per_run.append(check_scenario_result(outcome.get("result") or {}))
    return per_run
