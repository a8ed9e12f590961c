"""Paused multicast members: the GL-heartbeat fan-out fix at fleet scale.

An assigned Local Controller only consults the Group Leader channel while
rejoining, so on deterministic networks it *pauses* its subscription (keeping
its fan-out slot) and recovers the missed heartbeat value from the channel
latch when its GM fails.  These tests pin the mechanism's contract:

* paused members receive nothing, and the latch replays exactly what the last
  delivered publish would have said;
* resuming restores the member's original fan-out position, so same-instant
  delivery order is indistinguishable from an uninterrupted subscription;
* the LC rejoin path survives a leader change that happened while paused.
"""

from __future__ import annotations

import pytest

from repro.hierarchy import SnoozeSystem
from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.local_controller import GL_HEARTBEAT_GROUP
from repro.hierarchy.system import SystemSpec
from repro.network.message import MessageType
from repro.network.multicast import MulticastRegistry
from repro.network.transport import Network, NetworkConfig
from repro.simulation.batch import DeadlineTable
from repro.simulation.engine import Simulator


@pytest.fixture()
def det_system() -> SnoozeSystem:
    """A started deployment on a deterministic (zero jitter/loss) network."""
    system = SnoozeSystem(
        SystemSpec(local_controllers=6, group_managers=2, entry_points=1),
        config=HierarchyConfig(
            seed=7, network=NetworkConfig(base_latency=0.001, jitter=0.0)
        ),
        seed=7,
    )
    system.start()
    return system


class TestGroupPauseResume:
    def _channel(self):
        sim = Simulator()
        network = Network(sim, NetworkConfig(base_latency=0.001, jitter=0.0))
        registry = MulticastRegistry(network)
        group = registry.group("chan")
        received = []
        for name in ("a", "b", "c"):
            network.register(name, lambda m, n=name: received.append((n, m.payload)))
            group.subscribe(name)
        return sim, group, received

    def test_paused_member_receives_nothing(self):
        sim, group, received = self._channel()
        group.pause("b")
        group.publish("a", MessageType.GL_HEARTBEAT, payload={"gl": "a"})
        sim.run(1.0)
        assert {n for n, _ in received} == {"c"}  # sender excluded, b paused

    def test_resume_restores_original_fanout_position(self):
        sim, group, received = self._channel()
        group.pause("a")
        group.publish("c", MessageType.GL_HEARTBEAT, payload=1)
        group.resume("a")
        group.publish("c", MessageType.GL_HEARTBEAT, payload=2)
        sim.run(1.0)
        # "a" resumed into its original slot: it precedes "b" again.
        assert [n for n, _ in received] == ["b", "a", "b"]

    def test_unsubscribe_clears_pause(self):
        _, group, _ = self._channel()
        group.pause("b")
        group.unsubscribe("b")
        assert not group.is_paused("b")
        group.subscribe("b")
        assert not group.is_paused("b")

    def test_pause_ignores_non_members(self):
        _, group, _ = self._channel()
        group.pause("ghost")
        assert not group.is_paused("ghost")

    def test_latch_replays_only_delivered_publishes(self):
        sim, group, _ = self._channel()
        group.publish("a", MessageType.GL_HEARTBEAT, payload={"gl": "old"})
        sim.run(0.5)
        group.publish("a", MessageType.GL_HEARTBEAT, payload={"gl": "new"})
        # The second publish has not been delivered yet (latency 1 ms), so a
        # catch-up read at this instant must still see the first value --
        # exactly what a subscribed member's handler would have seen.
        sender, payload = group.last_delivered(sim.now, 0.001)
        assert payload == {"gl": "old"}
        sim.run(0.6)  # run() takes an absolute time: past the second delivery
        sender, payload = group.last_delivered(sim.now, 0.001)
        assert payload == {"gl": "new"}

    def test_latch_empty_before_any_publish(self):
        _, group, _ = self._channel()
        assert group.last_delivered(10.0, 0.001) is None


class TestAssignedLcPausesGlChannel:
    def test_assigned_lcs_are_paused_on_deterministic_network(self, det_system):
        group = det_system.multicast.group(GL_HEARTBEAT_GROUP)
        assigned = [
            name
            for name, lc in det_system.local_controllers.items()
            if lc.assigned_gm is not None
        ]
        assert assigned, "expected LCs to be assigned after start"
        for name in assigned:
            assert group.is_paused(name)
            assert name in group  # still a member: fan-out slot retained

    def test_jittery_network_keeps_full_subscription(self, small_system):
        group = small_system.multicast.group(GL_HEARTBEAT_GROUP)
        for name, lc in small_system.local_controllers.items():
            if lc.assigned_gm is not None:
                assert not group.is_paused(name)

    def test_rejoin_after_leader_change_while_paused(self):
        """A GM dies after a leader change: the latch hands the LC the new GL."""
        system = SnoozeSystem(
            SystemSpec(local_controllers=9, group_managers=3, entry_points=1),
            config=HierarchyConfig(
                seed=11, network=NetworkConfig(base_latency=0.001, jitter=0.0)
            ),
            seed=11,
        )
        system.start()
        system.run(30.0)
        old_leader = system.current_leader()
        system.kill_group_leader()
        system.run(120.0)
        new_leader = system.current_leader()
        assert new_leader is not None and new_leader != old_leader
        # Kill a surviving *non-leader* GM that manages some LC, forcing that
        # LC through the latch catch-up path while a leader change already
        # happened during its pause.
        victim_gm = next(
            name
            for name, gm in system.group_managers.items()
            if gm.is_running and name != new_leader and gm.local_controllers
        )
        victim_lc = next(iter(system.group_managers[victim_gm].local_controllers))
        lc = system.local_controllers[victim_lc]
        assert system.multicast.group(GL_HEARTBEAT_GROUP).is_paused(victim_lc)
        system.kill_group_manager(victim_gm)
        rejoined = system.run_until(
            lambda: lc.assigned_gm is not None and lc.assigned_gm != victim_gm,
            timeout=240.0,
        )
        assert rejoined
        # The latch catch-up gave the LC a leader that actually exists now.
        assert lc.current_gl == system.current_leader()


class TestDeadlineSinksAndLeases:
    """Heartbeats as vectorized detector restarts (no per-member messages)."""

    def test_publish_rearms_sink_to_delivery_time_deadline(self):
        sim = Simulator()
        network = Network(sim, NetworkConfig(base_latency=0.001, jitter=0.0))
        registry = MulticastRegistry(network)
        group = registry.group("hb")
        table = DeadlineTable(sim)
        fired = []
        network.register("gm", lambda m: None)
        network.register("lc", lambda m: fired.append("delivered"))
        group.subscribe("lc")
        handle = table.arm(8.0, lambda: fired.append(("expired", sim.now)))
        group.pause("lc", deadline=handle)
        sim.run(until=2.0)
        group.publish("gm", MessageType.GM_HEARTBEAT, payload={"gm": "gm"})
        sim.run(until=9.9)
        # No message was delivered; the detector was re-armed to
        # publish (2.0) + latency (0.001) + timeout (8.0) = 10.001.
        assert fired == []
        sim.run(until=10.001)
        assert fired == [("expired", 10.001)]

    def test_disconnected_sink_is_skipped_like_its_dropped_delivery(self):
        sim = Simulator()
        network = Network(sim, NetworkConfig(base_latency=0.001, jitter=0.0))
        registry = MulticastRegistry(network)
        group = registry.group("hb")
        table = DeadlineTable(sim)
        fired = []
        network.register("gm", lambda m: None)
        network.register("lc", lambda m: None)
        group.subscribe("lc")
        handle = table.arm(8.0, lambda: fired.append(sim.now))
        group.pause("lc", deadline=handle)
        network.disconnect("lc")  # partitioned: deliveries would be dropped
        sim.run(until=2.0)
        group.publish("gm", MessageType.GM_HEARTBEAT, payload={"gm": "gm"})
        sim.run(until=20.0)
        # The original deadline (armed at 0.0) fired untouched at 8.0.
        assert fired == [8.0]

    def test_assigned_lc_holds_heartbeat_lease_and_sends_no_heartbeats(self, det_system):
        lc = next(
            lc
            for lc in det_system.local_controllers.values()
            if lc.assigned_gm is not None
        )
        assert lc._heartbeat.lease is not None
        gm = det_system.group_managers[lc.assigned_gm]
        # The GM's detector for this LC is re-armed by the lease: advance far
        # beyond the heartbeat timeout and the LC must still be a member,
        # with its leased detector armed the whole time.
        det_system.run(60.0)
        assert lc.name in gm.local_controllers
        handle = lc._heartbeat.lease.handle
        assert handle.armed

    def test_lease_stops_with_the_lc_so_the_gm_detects_the_failure(self, det_system):
        lc = next(
            lc
            for lc in det_system.local_controllers.values()
            if lc.assigned_gm is not None
        )
        gm_name = lc.assigned_gm
        det_system.kill_local_controller(lc.name)
        det_system.run(3 * det_system.config.heartbeat_timeout)
        gm = det_system.group_managers[gm_name]
        assert lc.name not in gm.local_controllers  # failure detected


def _det_system(coalesce: bool = True) -> SnoozeSystem:
    system = SnoozeSystem(
        SystemSpec(local_controllers=6, group_managers=2, entry_points=1),
        config=HierarchyConfig(
            seed=7,
            network=NetworkConfig(base_latency=0.001, jitter=0.0),
            coalesce_events=coalesce,
        ),
        seed=7,
    )
    system.start()
    return system


def _leased_entries(group) -> set:
    """``(table, index)`` entries of a tick group's lease columns.

    Reads the cached plan when there is one (a stale cache shows up here),
    else builds it the way the group's next tick would.
    """
    _callers, _phases, columns = group._plan or group._build_plan()
    return {(id(column.table), int(index)) for _, column, _ in columns for index in column.indices}


def _entry(handle) -> tuple:
    return (id(handle.table), handle.index)


class TestCachedFanOut:
    """Publish reads cached recipient lists and sink columns."""

    def _sinks(self, names=("a", "b", "c")):
        sim = Simulator()
        network = Network(sim, NetworkConfig(base_latency=0.001, jitter=0.0))
        group = MulticastRegistry(network).group("hb")
        table = DeadlineTable(sim)
        network.register("gm", lambda m: None)
        handles = {}
        for name in names:
            network.register(name, lambda m: None)
            group.subscribe(name)
            handles[name] = table.arm(8.0, lambda: None)
        return sim, network, group, table, handles

    def test_sink_stamps_follow_subscriber_order_not_pause_order(self):
        sim, _network, group, table, handles = self._sinks()
        for name in ("c", "a", "b"):
            group.pause(name, deadline=handles[name])
        group.publish("gm", MessageType.GM_HEARTBEAT)
        stamps = [int(table._order[handles[name].index]) for name in ("a", "b", "c")]
        assert stamps == sorted(stamps) and len(set(stamps)) == 3
        assert {float(table._deadlines[h.index]) for h in handles.values()} == {0.001 + 8.0}

    def test_sink_columns_are_rebuilt_only_on_membership_changes(self):
        sim, _network, group, table, handles = self._sinks()
        for name in ("a", "b", "c"):
            group.pause(name, deadline=handles[name])
        group.publish("gm", MessageType.GM_HEARTBEAT)
        columns = group._sink_columns
        group.publish("gm", MessageType.GM_HEARTBEAT)
        assert group._sink_columns is columns
        group.resume("b")
        assert group._sink_columns is None
        sim.run(until=1.0)
        group.publish("gm", MessageType.GM_HEARTBEAT)
        # b is a plain recipient again: its detector keeps the t=0 renewal.
        assert float(table._deadlines[handles["b"].index]) == 0.001 + 8.0
        assert float(table._deadlines[handles["a"].index]) == 1.0 + 0.001 + 8.0
        group.unsubscribe("a")
        group.publish("gm", MessageType.GM_HEARTBEAT)
        assert [c.indices.tolist() for c, _ in group._sink_columns] == [[handles["c"].index]]

    def test_recipient_cache_follows_subscribe_and_unsubscribe(self):
        sim = Simulator()
        network = Network(sim, NetworkConfig(base_latency=0.001, jitter=0.0))
        group = MulticastRegistry(network).group("chan")
        received = []
        for name in ("a", "b", "c", "d"):
            network.register(name, lambda m, n=name: received.append((n, m.payload)))
        group.subscribe("a")
        group.subscribe("b")
        assert group.publish("a", MessageType.GL_HEARTBEAT, payload=1) == 1
        group.subscribe("c")
        group.pause("b")
        assert group.publish("a", MessageType.GL_HEARTBEAT, payload=2) == 1
        group.resume("b")
        group.unsubscribe("c")
        group.subscribe("d")
        assert group.publish("a", MessageType.GL_HEARTBEAT, payload=3) == 2
        sim.run(until=1.0)
        assert received == [("b", 1), ("c", 2), ("b", 3), ("d", 3)]


class TestLeaseColumnInTheHierarchy:
    """The LC heartbeat tick group's lease column against the message path."""

    def _first_assigned(self, system):
        return next(lc for lc in system.local_controllers.values() if lc.assigned_gm is not None)

    def test_column_rebuilt_on_join_gm_loss_fail_recover_and_stop(self):
        system = _det_system()
        system.run(5.0)
        lc = self._first_assigned(system)
        first = lc._heartbeat.lease.handle
        assert _entry(first) in _leased_entries(lc._heartbeat._group)  # joined
        # GM loss: the LC falls back to its callback, then leases the new GM.
        old_gm = lc.assigned_gm
        system.kill_group_manager(old_gm)
        lost = system.run_until(lambda: lc.assigned_gm is None, timeout=60.0, step=0.01)
        assert lost and lc._heartbeat.lease is None
        assert _entry(first) not in _leased_entries(lc._heartbeat._group)
        assert system.run_until(lambda: lc.assigned_gm not in (None, old_gm), timeout=120.0)
        second = lc._heartbeat.lease.handle
        assert _entry(second) in _leased_entries(lc._heartbeat._group)
        # Fail: the heartbeat member stops and the lease is cleared.
        crashed = lc._heartbeat
        system.kill_local_controller(lc.name)
        assert not crashed.running and crashed.lease is None
        assert crashed._group._plan is None
        assert _entry(second) not in _leased_entries(crashed._group)
        # Recover: a fresh heartbeat member leases the GM it rejoins.
        system.recover_component(lc.name)
        assert lc._heartbeat is not crashed
        assert system.run_until(lambda: lc._heartbeat.lease is not None, timeout=120.0)
        third = lc._heartbeat.lease.handle
        assert _entry(third) in _leased_entries(lc._heartbeat._group)
        # stop(): the member leaves its group's plan entirely.
        member = lc._heartbeat
        system.run(system.config.lc_heartbeat_interval)
        lc.stop()
        assert member._group._plan is None
        assert _entry(third) not in _leased_entries(member._group)
        assert member not in member._group.members

    def _detection_times(self, coalesce: bool, cut: str):
        system = _det_system(coalesce)
        system.run(31.3)  # between heartbeat ticks
        lc = next(
            lc
            for lc in system.local_controllers.values()
            if lc.assigned_gm is not None and lc.assigned_gm != system.current_leader()
        ) if cut == "gm" else self._first_assigned(system)
        gm = lc.assigned_gm
        if coalesce:
            assert lc._heartbeat.lease is not None  # the lease path is engaged
        system.network.disconnect(gm if cut == "gm" else lc.name)
        system.run(3 * system.config.heartbeat_timeout)
        return [
            (record.timestamp, record.details.get("lc"))
            for record in system.event_log.events("lc_removed")
            if record.details["component"] == gm
        ]

    @pytest.mark.parametrize("cut", ["lc", "gm"])
    def test_disconnected_endpoint_is_detected_as_on_the_message_path(self, cut):
        leased = self._detection_times(True, cut)
        messages = self._detection_times(False, cut)
        assert leased, "the GM must detect the lost heartbeats"
        assert leased == messages
