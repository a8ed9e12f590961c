"""Wall-clock phases of one scenario run, timed at public calls.

:class:`PhaseClock` wraps four public entry points while it is installed:

* ``ScenarioRunner.build_system`` -> ``build_s``
* ``SnoozeSystem.start`` (components start, the hierarchy settles) -> ``start_s``
* ``WorkloadGenerator.generate`` (summed over phases) -> ``workload_gen_s``
* ``SnoozeSystem.run`` -> the measured phase.  The call is split into
  windows of ``window`` simulated seconds, each one ``Simulator.run(until=...)``
  call, so one run yields many samples.  Events due exactly at a window
  boundary run in the earlier window, as they would in one long call, so the
  simulated behaviour is the same (the canonical digests show it).

The clock holds one record per run; the first simulated instant of the
workload is the entry into ``SnoozeSystem.run``.  The calibration kernel
(:mod:`perfbench.calibration`) runs once before each run and once at every
window boundary, outside the timed intervals; each window is rescaled with
the mean of the two samples around it, and the set-up with the samples at
its two ends.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import List, Optional

from perfbench import calibration


class RunPhases:
    """Timestamps and window samples of one scenario run."""

    def __init__(self, kernel_s: float, began: float) -> None:
        self.began = began
        #: Calibration samples: before the run, then at every window boundary.
        self.kernel_s: List[float] = [kernel_s]
        self.build_s = 0.0
        self.start_s = 0.0
        self.workload_gen_s = 0.0
        self.first_instant: Optional[float] = None
        self.measured_s = 0.0
        self.simulated_s = 0.0
        #: (wall seconds, simulated seconds, kernel seconds) of each window.
        self.windows: List[tuple] = []

    @property
    def setup_s(self) -> float:
        """Run start to the first simulated instant of the workload."""
        return (self.first_instant if self.first_instant is not None else self.began) - self.began

    def setup_ref(self, seconds: float) -> float:
        """A part of the set-up in reference seconds (kernel samples at its two ends)."""
        kernel_s = (self.kernel_s[0] + self.kernel_s[min(1, len(self.kernel_s) - 1)]) / 2.0
        return calibration.reference_seconds(seconds, kernel_s)

    @property
    def setup_ref_s(self) -> float:
        """:attr:`setup_s` in reference seconds."""
        return self.setup_ref(self.setup_s)

    @property
    def measured_ref_s(self) -> float:
        """The measured phase in reference seconds, window by window."""
        return sum(calibration.reference_seconds(wall, k) for wall, _, k in self.windows)

    def to_dict(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "setup_ref_s": self.setup_ref_s,
            "build_ref_s": self.setup_ref(self.build_s),
            "start_ref_s": self.setup_ref(self.start_s),
            "workload_gen_ref_s": self.setup_ref(self.workload_gen_s),
            "measured_ref_s": self.measured_ref_s,
            "build_s": self.build_s,
            "start_s": self.start_s,
            "workload_gen_s": self.workload_gen_s,
            "measured_s": self.measured_s,
            "simulated_s": self.simulated_s,
            "windows": [list(window) for window in self.windows],
        }


class PhaseClock:
    """Install with ``with PhaseClock(window) as clock:``; call :meth:`begin` per run."""

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)
        self.runs: List[RunPhases] = []
        self._patches: list = []

    def begin(self) -> RunPhases:
        kernel_s = calibration.sample()
        phases = RunPhases(kernel_s, perf_counter())
        self.runs.append(phases)
        return phases

    @property
    def current(self) -> RunPhases:
        if not self.runs:
            return self.begin()
        return self.runs[-1]

    def _patch(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, functools.wraps(original)(make(original)))

    def _timed(self, field: str):
        def make(original):
            def timed(*args, **kwargs):
                begin = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    phases = self.current
                    setattr(phases, field, getattr(phases, field) + perf_counter() - begin)

            return timed

        return make

    def __enter__(self) -> "PhaseClock":
        from repro.hierarchy.system import SnoozeSystem
        from repro.scenarios.runner import ScenarioRunner
        from repro.workloads.generator import WorkloadGenerator

        self._patch(ScenarioRunner, "build_system", self._timed("build_s"))
        self._patch(SnoozeSystem, "start", self._timed("start_s"))
        self._patch(WorkloadGenerator, "generate", self._timed("workload_gen_s"))
        window = self.window

        def make_run(original):
            def run(system, duration):
                phases = self.current
                phases.first_instant = perf_counter()
                kernel_s = phases.kernel_s
                kernel_s.append(calibration.sample())
                sim = system.sim
                base = sim.now
                end = base + duration
                k = 1
                while True:
                    until = min(base + k * window, end)
                    started, at = perf_counter(), sim.now
                    sim.run(until=until)
                    wall = perf_counter() - started
                    kernel_s.append(calibration.sample())
                    phases.windows.append(
                        (wall, sim.now - at, (kernel_s[-2] + kernel_s[-1]) / 2.0)
                    )
                    phases.measured_s += wall
                    if until >= end:
                        break
                    k += 1
                phases.simulated_s = sim.now - base
                return sim.now

            return run

        self._patch(SnoozeSystem, "run", make_run)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)
