"""Fold a traced run's spans into the per-layer metrics.

:func:`summarize` returns additive quantities (counts and self seconds), so
the summaries of several runs -- the cells of a traced sweep, executed in
runner processes -- add up with :func:`merge`.  :func:`finish` then derives
the ratios.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from perfbench.tracing import Instrumentation, SpanLog

#: Policy kinds with decision counts and times (the registry's kinds).
POLICY_KINDS = (
    "assignment",
    "autoscaling",
    "dispatching",
    "overload-relocation",
    "placement",
    "reconfiguration",
    "underload-relocation",
)

DEADLINE_CLASSES = ("DeadlineTable.", "DeadlineHandle.")


def summarize(
    log: SpanLog, instrumentation: Instrumentation, results: Iterable[dict]
) -> Dict[str, float]:
    """Additive per-layer metrics of the spans in ``log``.

    ``results`` are the ``ScenarioResult.to_dict()`` of the traced runs, for
    the counts the program reports itself (elections, traffic ticks).
    """
    by_name = log.by_name()
    layer_self: Dict[str, float] = {}
    for (layer, _name), (_calls, seconds) in by_name.items():
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds

    def calls(name: str) -> int:
        return sum(c for (_, n), (c, _) in by_name.items() if n == name)

    def seconds(predicate) -> float:
        return sum(s for (layer, n), (_, s) in by_name.items() if predicate(layer, n))

    def layer_total(prefix: str) -> float:
        return sum(
            s for layer, s in layer_self.items() if layer == prefix or layer.startswith(prefix + ".")
        )

    out: Dict[str, float] = {}
    sims = instrumentation.simulators
    out["simulation.events"] = sum(sim.processed_events for sim in sims)
    out["simulation.kernel_self_s"] = seconds(lambda l, n: n.startswith("Simulator."))

    out["batch.tick_group_fires"] = calls("_TickGroup._tick")
    out["batch.tick_member_calls"] = log.counts.get("batch.tick_member_calls", 0)
    out["batch.tick_self_s"] = seconds(lambda l, n: n == "_TickGroup._tick")
    out["batch.deadline_restarts"] = log.counts.get("batch.deadline_restarts", 0)
    out["batch.deadline_self_s"] = seconds(lambda l, n: n.startswith(DEADLINE_CLASSES))

    networks = instrumentation.networks.values()
    out["network.messages_sent"] = sum(net.messages_sent for net in networks)
    out["network.messages_dropped"] = sum(net.messages_dropped for net in networks)
    out["network.send_self_s"] = seconds(lambda l, n: n in ("Network.send", "Network.send_many"))
    out["network.deliver_self_s"] = seconds(
        lambda l, n: n in ("Network._deliver", "Network._deliver_batch")
    )
    out["network.rpc_calls"] = calls("RpcChannel.call")
    out["network.rpc_timeouts"] = log.counts.get("network.rpc_timeouts", 0)
    out["network.deliveries_batched"] = _children_of(log, "Network._deliver_batch", "deliver")
    out["network.multicast_publishes"] = calls("MulticastGroup.publish")
    out["network.multicast_self_s"] = seconds(lambda l, n: n.startswith("MulticastGroup."))

    out["hierarchy.lc_heartbeats"] = calls("LocalController._send_heartbeat")
    out["hierarchy.lc_monitoring_emits"] = calls("LocalController._monitoring_emit")
    for role in ("lc", "gm", "gl", "ep"):
        out[f"hierarchy.{role}_self_s"] = layer_self.get(f"hierarchy.{role}", 0.0)

    out["monitoring.reports_built"] = calls("ArrayHostMonitor.build_report")
    out["monitoring.report_self_s"] = seconds(lambda l, n: n == "ArrayHostMonitor.build_report")
    out["monitoring.estimate_self_s"] = seconds(lambda l, n: n == "TelemetryPlane.estimates")
    out["cluster.resource_vectors_built"] = calls("ResourceVector.__init__")
    out["cluster.self_s"] = layer_total("cluster")
    out["metrics.recorder_self_s"] = layer_total("metrics")

    for kind in POLICY_KINDS:
        prefix = f"decision.{kind}."
        out[f"policies.decisions.{kind}"] = sum(
            c for (_, n), (c, _) in by_name.items() if n.startswith(prefix)
        )
        out[f"policies.decision_s.{kind}"] = seconds(lambda l, n, p=prefix: n.startswith(p))
    out["policies.plane_self_s"] = seconds(lambda l, n: n.startswith("DecisionPlane."))
    out["core.consolidations"] = _outermost(log, "core")
    out["core.consolidation_self_s"] = layer_total("core")

    executors = instrumentation.migration_executors.values()
    out["migration.started"] = sum(ex.stats.started for ex in executors)
    out["migration.completed"] = sum(ex.stats.completed for ex in executors)

    results = list(results)
    traffic = [r.get("traffic") or {} for r in results]
    out["traffic.ticks"] = sum(int(t.get("ticks", 0)) for t in traffic)
    out["traffic.self_s"] = layer_total("traffic")
    out["traffic.scale_actions"] = sum(
        int(s.get("scale_out_total", 0)) + int(s.get("scale_in_total", 0))
        for t in traffic
        for s in (t.get("services") or {}).values()
    )
    out["coordination.elections"] = sum(
        int((r.get("availability") or {}).get("elections", 0)) for r in results
    )
    out["coordination.self_s"] = layer_total("coordination")
    out["energy.self_s"] = layer_total("energy")
    out["trace.self_s_total"] = sum(layer_self.values())
    return out


def _name_ids(log: SpanLog, predicate) -> np.ndarray:
    return np.array(
        [i for i, name in enumerate(log.names) if predicate(log.layers[i], name)], dtype=np.int32
    )


def _children_of(log: SpanLog, parent_name: str, child_suffix: str) -> int:
    """Spans named ``*.<child_suffix>`` whose parent span is named ``parent_name``."""
    if not len(log):
        return 0
    ids = np.frombuffer(log.name_id, dtype=np.int32)
    parents = np.frombuffer(log.parent, dtype=np.int32)
    parent_ids = _name_ids(log, lambda l, n: n == parent_name)
    child_ids = _name_ids(log, lambda l, n: n.endswith("." + child_suffix))
    is_child = np.isin(ids, child_ids) & (parents >= 0)
    return int(np.isin(ids[parents[is_child]], parent_ids).sum())


def _outermost(log: SpanLog, layer: str) -> int:
    """Spans of ``layer`` whose parent is not in ``layer`` (calls into the layer)."""
    if not len(log):
        return 0
    ids = np.frombuffer(log.name_id, dtype=np.int32)
    parents = np.frombuffer(log.parent, dtype=np.int32)
    in_layer = np.array([l == layer for l in log.layers], dtype=bool)
    mine = in_layer[ids]
    parent_in_layer = np.zeros(len(ids), dtype=bool)
    has_parent = parents >= 0
    parent_in_layer[has_parent] = in_layer[ids[parents[has_parent]]]
    return int((mine & ~parent_in_layer).sum())


def merge(summaries: Iterable[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            total[key] = total.get(key, 0) + value
    return total


def finish(summary: Dict[str, float], traced_wall_s: float) -> Dict[str, float]:
    """Add the ratios; ``traced_wall_s`` is the wall time the spans cover."""
    out = dict(summary)
    started = out.get("migration.started", 0)
    out["migration.completed_ratio"] = (
        out.get("migration.completed", 0) / started if started else 0.0
    )
    out["trace.coverage_ratio"] = out.pop("trace.self_s_total", 0.0) / traced_wall_s
    return out
