"""The repository benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload fleet-2k-steady --seed 7 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced runs; ``--trace 1``
makes one untraced and one traced run and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller record, with the machine fingerprint, the seed and every sample, is
written to ``perfbench-out/`` at the root of the checkout.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench-out"

#: Fresh interpreters whose import of the program is timed; set-up is
#: reported as their median.
IMPORT_SAMPLES = 5

_IMPORT_PROBE = (
    "import time; began = time.perf_counter(); "
    "import repro.scenarios, repro.sweeps; "
    "print(time.perf_counter() - began)"
)


def _load_program() -> float:
    """Import the program from ``src/`` of this checkout; returns the import time.

    The import is timed in :data:`IMPORT_SAMPLES` fresh interpreters (this
    process imports only once), each waited for before the next starts; the
    median wall time is returned.  Imports are not calibrated: file-system and
    memory work dominate them, which the calibration kernel does not track
    (rescaling raised their variation over 20 probes from 14 % to 23 %).
    """
    from perfbench.stats import median

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro
    import repro.scenarios  # noqa: F401
    import repro.sweeps  # noqa: F401

    where = Path(repro.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"repro was imported from {where}, not from {src}")
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return median(samples)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import stats, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = _load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)

    if args.workload == workloads.SWEEP:
        if args.trace:
            outcome = workloads.trace_sweep(args.seed, import_s, OUT_DIR)
        else:
            outcome = workloads.measure_sweep(args.seed, args.seconds, import_s)
    else:
        fleet = workloads.FLEETS[args.workload]
        if args.trace:
            outcome = workloads.trace_fleet(fleet, args.seed, import_s, OUT_DIR)
        else:
            outcome = workloads.measure_fleet(fleet, args.seed, args.seconds, import_s)

    measured = outcome["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        outcome["problems"].append(f"metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
    }
    correct = not outcome["problems"] and outcome["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": stats.fingerprint(ROOT),
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "problems": outcome["problems"],
        "samples": outcome["samples"],
        "metrics": metrics,
        "detail": {
            k: v for k, v in outcome.items() if k not in ("metrics", "problems", "samples")
        },
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True))

    fp = record["fingerprint"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"nproc {fp['nproc']}  python {fp['python']}  numpy {fp['numpy']}  "
        f"revision {fp['git_revision'] or 'src:' + fp['src_sha256'][:12]}"
    )
    print("samples " + "  ".join(f"{k} {v}" for k, v in outcome["samples"].items()))
    for name, value in outcome.get("raw", {}).items():
        print(f"  (uncalibrated) {name:25s} {value:.6g} s")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    for problem in outcome["problems"]:
        print(f"PROBLEM: {problem}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
