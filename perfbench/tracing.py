"""Span recording for the traced run, fed from outside the program.

Nothing here edits the program.  :class:`Instrumentation` replaces public
methods of the ``repro`` packages with timed wrappers for the duration of a
traced run and attaches profilers to the kernel's existing hooks
(``Simulator.profiler`` and ``CoalescedTicker.profiler``); both close spans
into one :class:`SpanLog`.

A span is a name id, a start, an end, a parent span and a run id, stored in
compact arrays so a traced run of a 2,000-LC fleet stays a few tens of MB.
Parents are assigned when a span closes: every already-closed span that has
no parent yet and ended after this span started is its child.  Spans nest
(each closes before its caller), so that rule is exact for wrapped calls.
Kernel handlers report only their duration after the fact; their start is
taken as ``now - duration``, a fraction of a microsecond late, which no
child can fall into because a child starts later still.  Tick-group members
close inside their group's tick, so the group's self time excludes them --
summing the kernel profiler's per-handler totals would count them twice.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Sub-layers of the hierarchy, chosen by the class that owns a handler.
HIERARCHY_ROLES = {
    "LocalController": "hierarchy.lc",
    "EntryPoint": "hierarchy.ep",
    "SnoozeClient": "hierarchy.client",
}


def layer_of_module(module: Optional[str]) -> str:
    """``repro.simulation.batch`` -> ``simulation.batch``; ``repro.x.y`` -> ``x``."""
    if not module:
        return "other"
    parts = module.split(".")
    if parts[0] != "repro":
        return "other"
    if len(parts) < 2:
        return "repro"
    if parts[1] == "simulation" and len(parts) > 2 and parts[2] == "batch":
        return "simulation.batch"
    return parts[1]


class SpanLog:
    """Closed spans in arrays, parents assigned at close (see module doc)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[Tuple[str, str], int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.self_seconds = array("d")
        #: Closed spans still waiting for a parent, in close order.
        self._orphans: List[int] = []
        self.run_id = 0
        #: Plain event counts taken at the same boundaries as the spans.
        self.counts: Dict[str, int] = {}

    def span_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def close(self, nid: int, start: float, end: float) -> None:
        index = len(self.start)
        orphans = self._orphans
        ends = self.end
        starts = self.start
        parent = self.parent
        children = 0.0
        while orphans and ends[orphans[-1]] > start:
            child = orphans.pop()
            parent[child] = index
            children += ends[child] - starts[child]
        self.name_id.append(nid)
        starts.append(start)
        ends.append(end)
        parent.append(-1)
        self.run.append(self.run_id)
        self.self_seconds.append(end - start - children)
        orphans.append(index)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------ reading
    def by_name(self) -> Dict[Tuple[str, str], Tuple[int, float]]:
        """``(layer, name) -> (spans, self seconds)``."""
        ids = np.frombuffer(self.name_id, dtype=np.int32) if len(self) else np.zeros(0, int)
        selfs = np.frombuffer(self.self_seconds, dtype=np.float64) if len(self) else np.zeros(0)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        seconds = np.bincount(ids, weights=selfs, minlength=n)
        return {
            (self.layers[i], self.names[i]): (int(calls[i]), float(seconds[i])) for i in range(n)
        }

    def arrays(self) -> Dict[str, np.ndarray]:
        """The whole log as numpy arrays (what :meth:`save` writes)."""
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int32),
            "run": np.asarray(self.run, dtype=np.int32),
            "self_seconds": np.asarray(self.self_seconds, dtype=np.float64),
            "names": np.asarray(self.names, dtype=str),
            "layers": np.asarray(self.layers, dtype=str),
        }

    def save(self, path) -> None:
        """Write :meth:`arrays` to ``path`` (``.npz``), atomically.

        A sweep runner can be stopped mid-write when its speculative copy of a
        cell loses the race; it then leaves only a ``.part`` file behind.
        """
        part = f"{path}.part"
        with open(part, "wb") as handle:
            np.savez_compressed(handle, **self.arrays())
        os.replace(part, path)


def _owner(callback) -> Tuple[object, Optional[type], str]:
    """(function, owning class or None, label) of an event callback."""
    func = getattr(callback, "func", None)  # functools.partial
    if func is not None and not hasattr(callback, "__self__"):
        callback = func
    owner = getattr(callback, "__self__", None)
    function = getattr(callback, "__func__", callback)
    name = getattr(function, "__qualname__", None) or type(callback).__name__
    if owner is not None and not isinstance(owner, type):
        cls = type(owner)
        return function, cls, f"{cls.__name__}.{getattr(function, '__name__', name)}"
    return function, None, name


class Instrumentation:
    """Install timed wrappers and kernel profilers that close spans into ``log``."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._patches: List[Tuple[object, str, object]] = []
        self._handler_ids: Dict[tuple, int] = {}
        #: Objects whose counters are read after the run.
        self.simulators: List[object] = []
        self.networks: Dict[int, object] = {}
        self.migration_executors: Dict[int, object] = {}

    # ---------------------------------------------------------------- naming
    def handler_id(self, callback, suffix: Optional[str] = None) -> int:
        """Span id of an event callback, attributed to the package owning it.

        ``suffix`` replaces the method name in the label (endpoint deliveries
        are all labelled ``<Class>.deliver``).
        """
        function, cls, label = _owner(callback)
        if suffix is not None:
            label = f"{cls.__name__ if cls is not None else label}.{suffix}"
        role = None
        if cls is not None and cls.__name__ == "GroupManager":
            role = "hierarchy.gl" if callback.__self__.is_leader else "hierarchy.gm"
        key = (function, cls, role, suffix)
        nid = self._handler_ids.get(key)
        if nid is None:
            module = cls.__module__ if cls is not None else getattr(function, "__module__", None)
            layer = layer_of_module(module)
            if role is not None:
                layer = role
            elif cls is not None and layer == "hierarchy":
                layer = HIERARCHY_ROLES.get(cls.__name__, "hierarchy")
            nid = self._handler_ids[key] = self.log.span_id(layer, label)
        return nid

    # --------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, cls, attr: str, layer: Optional[str] = None, count: Optional[Callable] = None):
        """Time every call of ``cls.attr`` as a span in ``layer``."""
        original = cls.__dict__[attr]
        nid = self.log.span_id(layer or layer_of_module(cls.__module__), f"{cls.__name__}.{attr}")
        close = self.log.close

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            begin = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                close(nid, begin, perf_counter())

        self._patch(cls, attr, timed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ---------------------------------------------------------------- install
    def install(self) -> None:
        from repro.cluster.resources import ResourceVector
        from repro.coordination.election import LeaderElection
        from repro.core.base import ConsolidationAlgorithm
        from repro.energy.accounting import EnergyMeter
        from repro.energy.power_manager import PowerStateManager
        from repro.hierarchy.client import SnoozeClient
        from repro.metrics.recorder import EventLog, TimeSeriesRecorder
        from repro.migration.model import MigrationExecutor
        from repro.monitoring.arrays import ArrayHostMonitor, TelemetryPlane
        from repro.network.multicast import MulticastGroup
        from repro.network.rpc import RpcChannel
        from repro.network.transport import Network
        from repro.policies.plane import DecisionPlane
        from repro.policies.registry import PolicySpec, instrument_policy
        from repro.scenarios.runner import ScenarioRunner
        from repro.simulation.batch import CoalescedTicker, DeadlineHandle, DeadlineTable
        from repro.simulation.engine import Simulator
        from repro.workloads.generator import WorkloadGenerator

        log = self.log
        close = log.close
        handler_id = self.handler_id

        # Kernel -> handler boundary through the existing profiler hooks.
        class _Profiler:
            def __init__(self, member: bool) -> None:
                self.member = member

            def record(self, callback, seconds: float) -> None:
                end = perf_counter()
                if self.member:
                    log.count("batch.tick_member_calls")
                close(handler_id(callback), end - seconds, end)

        kernel_profiler, member_profiler = _Profiler(False), _Profiler(True)
        simulators = self.simulators
        for cls, profiler in ((Simulator, kernel_profiler), (CoalescedTicker, member_profiler)):
            original_init = cls.__dict__["__init__"]

            def init(self, *args, _original=original_init, _profiler=profiler, **kwargs):
                _original(self, *args, **kwargs)
                self.profiler = _profiler
                if _profiler is kernel_profiler:
                    simulators.append(self)

            self._patch(cls, "__init__", functools.wraps(original_init)(init))
        for attr in ("run", "schedule", "schedule_at", "enqueue"):
            self.wrap(Simulator, attr)

        # Message delivery: time each endpoint handler as its owner's span.
        original_register = Network.__dict__["register"]
        networks = self.networks

        def register(network, name, handler):
            networks.setdefault(id(network), network)

            def deliver(message, _handler=handler):
                begin = perf_counter()
                try:
                    return _handler(message)
                finally:
                    close(handler_id(_handler, "deliver"), begin, perf_counter())

            return original_register(network, name, deliver)

        self._patch(Network, "register", functools.wraps(original_register)(register))
        self.wrap(Network, "send")
        self.wrap(Network, "send_many")
        self.wrap(MulticastGroup, "publish")

        original_call = RpcChannel.__dict__["call"]
        timeout_id = log.span_id("network", "RpcChannel.call.on_timeout")

        def call(channel, *args, on_timeout=None, **kwargs):
            def timed_out(_on_timeout=on_timeout):
                log.count("network.rpc_timeouts")
                begin = perf_counter()
                try:
                    if _on_timeout is not None:
                        _on_timeout()
                finally:
                    close(timeout_id, begin, perf_counter())

            return original_call(channel, *args, on_timeout=timed_out, **kwargs)

        self._patch(RpcChannel, "call", functools.wraps(original_call)(call))
        self.wrap(RpcChannel, "call")

        # Lease/deadline machinery of simulation.batch.
        for attr in ("restart", "restart_later"):
            self.wrap(
                DeadlineHandle, attr, count=lambda *a, **k: log.count("batch.deadline_restarts")
            )
        for attr in ("cancel", "release"):
            self.wrap(DeadlineHandle, attr)
        self.wrap(DeadlineTable, "arm")
        self.wrap(DeadlineTable, "release")
        self.wrap(
            DeadlineTable, "restart_handles", count=lambda table, handles, *a, **k: log.count(
                "batch.deadline_restarts", len(handles)
            )
        )

        # Monitoring, cluster, metrics, coordination, energy, migration.
        self.wrap(ArrayHostMonitor, "build_report")
        self.wrap(TelemetryPlane, "estimates")
        self.wrap(ResourceVector, "__init__")
        self.wrap(EventLog, "record")
        self.wrap(TimeSeriesRecorder, "sample_all")
        for attr in ("join", "withdraw", "keep_alive"):
            self.wrap(LeaderElection, attr)
        self.wrap(EnergyMeter, "update")
        for attr in ("check_idle_hosts", "suspend", "wakeup", "ensure_capacity"):
            self.wrap(PowerStateManager, attr)
        executors = self.migration_executors
        self.wrap(
            MigrationExecutor, "migrate",
            count=lambda executor, *a, **k: executors.setdefault(id(executor), executor),
        )

        # Hierarchy entry from the workload, and the scenario set-up phases.
        self.wrap(SnoozeClient, "submit", layer="hierarchy.client")
        self.wrap(ScenarioRunner, "build_system")
        self.wrap(WorkloadGenerator, "generate")

        # Decision layers: the plane, every policy built through the registry,
        # and every consolidation algorithm.
        self.wrap(DecisionPlane, "refresh")
        self.wrap(DecisionPlane, "view")
        original_build = PolicySpec.__dict__["build"]
        decision_ids: Dict[Tuple[str, str], int] = {}

        def build(spec, *args, **kwargs):
            policy = original_build(spec, *args, **kwargs)

            def observe(method: str, seconds: float, _kind=spec.kind) -> None:
                end = perf_counter()
                nid = decision_ids.get((_kind, method))
                if nid is None:
                    nid = decision_ids[(_kind, method)] = log.span_id(
                        "policies", f"decision.{_kind}.{method}"
                    )
                close(nid, end - seconds, end)

            return instrument_policy(policy, observe)

        self._patch(PolicySpec, "build", functools.wraps(original_build)(build))
        for cls in _subclasses(ConsolidationAlgorithm):
            for attr in ("solve", "consolidate"):
                if attr in cls.__dict__:
                    self.wrap(cls, attr, layer="core")


def _subclasses(cls) -> List[type]:
    # Importing the package registers every algorithm module.
    import repro.core  # noqa: F401

    found, stack = [], [cls]
    while stack:
        current = stack.pop()
        if current not in found:
            found.append(current)
            stack.extend(current.__subclasses__())
    return found
