"""Start-up hook of the sweep runners the benchmark spawns.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one; the benchmark puts this directory first on the
``PYTHONPATH`` of its runner processes and nowhere else.  With
``PERFBENCH_HOOK`` unset the hook does nothing.

Every mode runs the calibration kernel (:mod:`perfbench.calibration`) in
the runner before and after each cell and adds the mean as ``kernel_s`` to
the cell's outcome; the sweep report ignores keys it does not know.
``PERFBENCH_HOOK=calibrate`` does only that.  ``phases`` also times each
cell's set-up phases, and ``trace`` also records its spans; both write one
``run-<index>-<pid>.json`` record per executed cell into
``PERFBENCH_HOOK_DIR`` (and, when tracing, the cell's spans as ``.npz``).
"""

import os


def _install(mode: str, out_dir: str) -> None:
    import json
    from pathlib import Path
    from time import perf_counter

    import repro.sweeps.executor as executor

    from perfbench import calibration

    execute_run = executor.execute_run

    def calibrated_execute_run(payload):
        before = calibration.sample()
        outcome = execute_run(payload)
        outcome["kernel_s"] = (before + calibration.sample()) / 2.0
        return outcome

    if mode == "calibrate":
        executor.execute_run = calibrated_execute_run
        return

    from perfbench import layers
    from perfbench.phases import PhaseClock
    from perfbench.tracing import Instrumentation, SpanLog

    directory = Path(out_dir)

    def recorded_execute_run(payload):
        index = int(payload.get("index", -1))
        log = SpanLog()
        log.run_id = index
        with PhaseClock(window=1e9) as clock:
            clock.begin()
            began = perf_counter()
            if mode == "trace":
                with Instrumentation(log) as instrumentation:
                    outcome = calibrated_execute_run(payload)
            else:
                outcome = calibrated_execute_run(payload)
            wall = perf_counter() - began
        record = {
            "index": index, "wall_s": wall, "phases": clock.runs[-1].to_dict(), "spans": len(log)
        }
        if mode == "trace":
            result = outcome.get("result") or {}
            record["layers"] = layers.summarize(log, instrumentation, [result] if result else [])
            log.save(directory / f"run-{index:03d}-{os.getpid()}.spans.npz")
        (directory / f"run-{index:03d}-{os.getpid()}.json").write_text(json.dumps(record))
        return outcome

    executor.execute_run = recorded_execute_run


if os.environ.get("PERFBENCH_HOOK") in ("calibrate", "phases", "trace"):
    _install(os.environ["PERFBENCH_HOOK"], os.environ.get("PERFBENCH_HOOK_DIR", ""))
