"""Tests for the coalesced event machinery (repro.simulation.batch).

The contract under test everywhere: coalescing changes the *event count*,
never the simulated times, the firing order, or the observable behaviour.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.simulation.batch import (
    CoalescedTicker,
    DeadlineColumn,
    DeadlineTable,
    Lease,
    deadline_columns,
)
from repro.simulation.engine import SimulationError
from repro.simulation.timers import PeriodicTimer, Timeout


class TestCoalescedTicker:
    def test_members_fire_at_timer_equivalent_times(self, sim):
        ticker = CoalescedTicker(sim)
        coalesced_times, timer_times = [], []
        ticker.register(2.0, lambda: coalesced_times.append(sim.now))
        PeriodicTimer(sim, 2.0, lambda: timer_times.append(sim.now))
        sim.run(until=10.0)
        assert coalesced_times == timer_times == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_same_instant_registrations_share_one_group_and_fire_in_order(self, sim):
        ticker = CoalescedTicker(sim)
        fired = []
        for index in range(5):
            ticker.register(1.0, lambda index=index: fired.append(index))
        assert ticker.group_count() == 1
        sim.run(until=1.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_later_registration_gets_its_own_group(self, sim):
        ticker = CoalescedTicker(sim)
        fired = []
        ticker.register(2.0, lambda: fired.append(("grid", sim.now)))
        sim.run(until=1.0)
        ticker.register(2.0, lambda: fired.append(("offset", sim.now)))
        assert ticker.group_count() == 2
        sim.run(until=4.0)
        assert fired == [("grid", 2.0), ("offset", 3.0), ("grid", 4.0)]

    def test_phases_run_breadth_first(self, sim):
        ticker = CoalescedTicker(sim)
        order = []
        ticker.register(1.0, lambda: order.append("a1"), lambda: order.append("a2"))
        ticker.register(1.0, lambda: order.append("b1"), lambda: order.append("b2"))
        sim.run(until=1.0)
        assert order == ["a1", "b1", "a2", "b2"]

    def test_stopped_member_no_longer_fires(self, sim):
        ticker = CoalescedTicker(sim)
        fired = []
        keep = ticker.register(1.0, lambda: fired.append("keep"))
        drop = ticker.register(1.0, lambda: fired.append("drop"))
        sim.run(until=1.0)
        drop.stop()
        assert not drop.running and keep.running
        sim.run(until=2.0)
        assert fired == ["keep", "drop", "keep"]

    def test_empty_group_unwinds(self, sim):
        ticker = CoalescedTicker(sim)
        handle = ticker.register(1.0, lambda: None)
        handle.stop()
        sim.run(until=2.0)
        assert ticker.group_count() == 0
        assert ticker.member_count() == 0

    def test_invalid_registrations_rejected(self, sim):
        ticker = CoalescedTicker(sim)
        with pytest.raises(SimulationError):
            ticker.register(0.0, lambda: None)
        with pytest.raises(SimulationError):
            ticker.register(1.0)

    def test_shared_returns_one_instance_per_sim(self, sim):
        assert CoalescedTicker.shared(sim) is CoalescedTicker.shared(sim)

    def test_fired_count_tracks_ticks(self, sim):
        ticker = CoalescedTicker(sim)
        handle = ticker.register(1.0, lambda: None)
        sim.run(until=3.0)
        assert handle.fired_count == 3


class TestDeadlineTable:
    def test_expires_at_exactly_timeout_equivalent_time(self, sim):
        table = DeadlineTable(sim)
        fired = []
        table.arm(5.0, lambda: fired.append(("table", sim.now)))
        Timeout(sim, 5.0, lambda: fired.append(("timeout", sim.now)))
        sim.run(until=10.0)
        assert fired == [("table", 5.0), ("timeout", 5.0)]

    def test_restart_pushes_the_deadline_back(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(4.0, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        handle.restart()
        sim.run(until=10.0)
        assert fired == [6.0]

    def test_repeated_restarts_are_lazy_but_exact(self, sim):
        """The classic failure-detector pattern: heartbeats keep the deadline away."""
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(3.0, lambda: fired.append(sim.now))
        heartbeat = PeriodicTimer(sim, 1.0, handle.restart)
        sim.run(until=20.0)
        assert fired == []
        heartbeat.stop()
        sim.run(until=30.0)
        assert fired == [23.0]  # last restart at t=20 + 3s deadline

    def test_cancel_disarms(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(2.0, lambda: fired.append(sim.now))
        handle.cancel()
        assert not handle.armed
        sim.run(until=5.0)
        assert fired == []
        handle.restart()
        sim.run(until=10.0)
        assert fired == [7.0]

    def test_equal_deadlines_fire_in_restart_order(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handles = [
            table.arm(3.0, lambda name=name: fired.append(name)) for name in "abc"
        ]
        sim.run(until=1.0)
        # Restart in reverse order: expiry order must follow restarts, not arming.
        for name, handle in zip("cba", reversed(handles)):
            handle.restart()
        sim.run(until=10.0)
        assert fired == ["c", "b", "a"]

    def test_restart_with_new_duration(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(2.0, lambda: fired.append(sim.now))
        handle.restart(7.0)
        sim.run(until=10.0)
        assert fired == [7.0]
        with pytest.raises(SimulationError):
            handle.restart(0.0)

    def test_expiry_callback_can_rearm_other_entries(self, sim):
        table = DeadlineTable(sim)
        fired = []
        def fired_second():
            fired.append(("second", sim.now))

        table.arm(2.0, lambda: (fired.append(("first", sim.now)), second.restart(5.0)))
        second = table.arm(2.0, fired_second)
        sim.run(until=10.0)
        assert fired == [("first", 2.0), ("second", 7.0)]

    def test_release_recycles_entries_and_inerts_handles(self, sim):
        table = DeadlineTable(sim)
        handle = table.arm(2.0, lambda: None)
        table.release(handle)
        assert not handle.armed
        with pytest.raises(SimulationError):
            handle.restart()
        replacement = table.arm(1.0, lambda: None)
        assert replacement.armed
        sim.run(until=5.0)
        assert replacement.expired

    def test_release_recycles_entries_so_churn_does_not_grow_the_table(self, sim):
        """The fail/rejoin pattern: discard + re-arm must reuse one entry."""
        table = DeadlineTable(sim)
        for _ in range(500):
            handle = table.arm(5.0, lambda: None)
            handle.release()
        assert len(table) == 0
        assert len(table._durations) <= 32  # never grew past the initial block

    def test_grows_past_initial_capacity(self, sim):
        table = DeadlineTable(sim)
        handles = [table.arm(1000.0, lambda: None) for _ in range(100)]
        assert len(table) == 100
        assert all(handle.armed for handle in handles)
        assert table.next_deadline() == 1000.0

    def test_invalid_duration_rejected(self, sim):
        table = DeadlineTable(sim)
        with pytest.raises(SimulationError):
            table.arm(0.0, lambda: None)

    def test_shared_tables_are_named_singletons(self, sim):
        assert DeadlineTable.shared(sim, "a") is DeadlineTable.shared(sim, "a")
        assert DeadlineTable.shared(sim, "a") is not DeadlineTable.shared(sim, "b")

    def test_one_pending_event_for_many_armed_entries(self, sim):
        table = DeadlineTable(sim)
        for _ in range(50):
            table.arm(5.0, lambda: None)
        # 50 failure detectors, one scheduled simulator event.
        assert len(sim) == 1


class TestVectorizedRestarts:
    """Publish-time batch restarts: the heartbeat fan-out / lease fast paths."""

    def test_restart_handles_matches_per_entry_restarts(self, sim):
        table, mirror = DeadlineTable(sim), DeadlineTable(sim)
        fired, mirrored = [], []
        handles = [table.arm(5.0, lambda i=i: fired.append((i, sim.now))) for i in range(4)]
        twins = [mirror.arm(5.0, lambda i=i: mirrored.append((i, sim.now))) for i in range(4)]
        sim.run(until=2.0)
        # One vectorized call == four per-entry restarts with the clock at 2.0.
        table.restart_handles(handles, sim.now)
        for twin in twins:
            twin.restart()
        sim.run(until=20.0)
        assert fired == mirrored == [(i, 7.0) for i in range(4)]

    def test_restart_handles_sets_base_plus_duration(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handles = [table.arm(5.0, lambda i=i: fired.append(i)) for i in range(3)]
        sim.run(until=1.0)
        table.restart_handles(handles, 2.5)  # deadlines at 7.5, not 6.0
        sim.run(until=6.9)
        assert fired == []
        sim.run(until=7.5)
        assert fired == [0, 1, 2]

    def test_restart_handles_fires_in_sequence_order(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handles = [table.arm(4.0, lambda i=i: fired.append(i)) for i in range(4)]
        table.restart_handles(list(reversed(handles)), 1.0)
        sim.run(until=10.0)
        # Equal deadlines fire in restart order: the reversed sequence.
        assert fired == [3, 2, 1, 0]

    def test_restart_handles_skips_released_handles(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handles = [table.arm(4.0, lambda i=i: fired.append(i)) for i in range(3)]
        handles[1].release()
        recycled = table.arm(100.0, lambda: fired.append("recycled"))
        assert recycled.index == handles[1].index  # entry reused
        table.restart_handles(handles, 1.0)
        sim.run(until=10.0)
        # The stale handle neither fires nor disturbs the recycled entry.
        assert fired == [0, 2]
        assert recycled.armed

    def test_restart_later_is_a_future_based_restart(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(5.0, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        handle.restart_later(3.0)  # delivery-time restart: fires at 8.0
        sim.run(until=20.0)
        assert fired == [8.0]

    def test_restart_later_on_released_handle_is_a_noop(self, sim):
        table = DeadlineTable(sim)
        handle = table.arm(5.0, lambda: None)
        handle.release()
        handle.restart_later(1.0)  # must not raise, must not re-arm
        assert not handle.armed


def _endpoint(connected: bool = True) -> SimpleNamespace:
    """Anything with a ``connected`` flag gates a lease renewal."""
    return SimpleNamespace(connected=connected)


def _leased_column_indices(handle) -> list:
    """Entry indices in the tick group's cached lease columns (after a tick)."""
    _callers, _phases, columns = handle._group._plan
    return [int(i) for _delay, column, _pairs in columns for i in column.indices]


class TestLeaseColumns:
    """Tick-group heartbeat leases: one array write per table per tick."""

    def test_column_restart_matches_per_handle_restart_later(self, sim):
        table, mirror = DeadlineTable(sim), DeadlineTable(sim)
        fired, mirrored = [], []
        handles = [table.arm(5.0, lambda i=i: fired.append((i, sim.now))) for i in range(5)]
        twins = [mirror.arm(5.0, lambda i=i: mirrored.append((i, sim.now))) for i in range(5)]
        order = [3, 0, 4, 1, 2]
        sim.run(until=2.0)
        DeadlineColumn.of([handles[i] for i in order]).restart(2.001, [True] * 5)
        for i in order:
            twins[i].restart_later(2.001)
        np.testing.assert_array_equal(table._deadlines, mirror._deadlines)
        np.testing.assert_array_equal(table._order, mirror._order)
        sim.run(until=20.0)
        # Equal deadlines fire in restart (column) order, at base + duration.
        assert fired == mirrored == [(i, 2.001 + 5.0) for i in order]

    def test_column_restart_skips_entries_that_are_not_live(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handles = [table.arm(5.0, lambda i=i: fired.append((i, sim.now))) for i in range(3)]
        sim.run(until=2.0)
        DeadlineColumn.of(handles).restart(2.0, [True, False, True])
        sim.run(until=20.0)
        assert fired == [(1, 5.0), (0, 7.0), (2, 7.0)]

    def test_deadline_columns_split_by_table_and_keep_order(self, sim):
        first, second = DeadlineTable(sim), DeadlineTable(sim)
        a = [first.arm(5.0, lambda: None) for _ in range(3)]
        b = [second.arm(5.0, lambda: None) for _ in range(2)]
        entries = [(a[2], "a2"), (b[1], "b1"), (a[0], "a0"), (b[0], "b0"), (a[1], "a1")]
        columns = deadline_columns(entries)
        assert [column.table for column, _ in columns] == [first, second]
        assert [gates for _, gates in columns] == [["a2", "a0", "a1"], ["b1", "b0"]]
        assert columns[0][0].indices.tolist() == [a[2].index, a[0].index, a[1].index]
        assert len(columns[1][0]) == 2

    def test_leased_members_renew_like_per_member_restart_later(self, sim):
        """Stamps and deadlines equal those of per-member restart_later calls."""
        ticker = CoalescedTicker(sim)
        table, mirror = DeadlineTable(sim), DeadlineTable(sim)
        handles = [table.arm(8.0, lambda: None) for _ in range(5)]
        twins = [mirror.arm(8.0, lambda: None) for _ in range(5)]
        member_order = [3, 1, 4, 0, 2]  # members join in a different order
        unleased = 4
        called = []
        for i in member_order:
            member = ticker.register(2.0, lambda i=i: called.append(i))
            if i != unleased:
                member.set_lease(Lease(handles[i], _endpoint(), _endpoint(), 0.001))
        # The reference: every leased member re-arms its twin itself.
        for i in member_order:
            if i != unleased:
                ticker.register(2.0, lambda t=twins[i]: t.restart_later(sim.now + 0.001))
        sim.run(until=6.0)
        # Only the unleased member ran its callback; the others renewed.
        assert called == [unleased] * 3
        leased = [i for i in member_order if i != unleased]
        np.testing.assert_array_equal(
            table._deadlines[[handles[i].index for i in leased]],
            mirror._deadlines[[twins[i].index for i in leased]],
        )
        assert table._deadlines[handles[0].index] == 6.0 + 0.001 + 8.0
        assert table._deadlines[handles[unleased].index] == 8.0
        # Stamps follow member order, exactly as the per-member calls' do.
        stamps = table._order[[handles[i].index for i in leased]]
        twin_stamps = mirror._order[[twins[i].index for i in leased]]
        np.testing.assert_array_equal(stamps, twin_stamps)
        assert stamps.tolist() == sorted(stamps.tolist())

    def test_disconnected_sender_or_watcher_is_skipped(self, sim):
        ticker = CoalescedTicker(sim)
        table = DeadlineTable(sim)
        fired = []
        handles = [table.arm(8.0, lambda i=i: fired.append((i, sim.now))) for i in range(3)]
        sender_down, watcher_down = _endpoint(), _endpoint()
        gates = [(_endpoint(), _endpoint()), (sender_down, _endpoint()), (_endpoint(), watcher_down)]
        for handle, (sender, watcher) in zip(handles, gates):
            ticker.register(2.0, lambda: None).set_lease(Lease(handle, sender, watcher, 0.0))
        sim.run(until=3.0)  # renewed at 2.0 -> deadlines 10.0
        sender_down.connected = False
        watcher_down.connected = False
        sim.run(until=30.0)
        # Member 0 keeps renewing; 1 and 2 expire at their last renewal + 8.
        assert fired == [(1, 10.0), (2, 10.0)]
        assert handles[0].armed

    def test_fired_count_includes_lease_renewals(self, sim):
        ticker = CoalescedTicker(sim)
        table = DeadlineTable(sim)
        member = ticker.register(1.0, lambda: None)
        member.set_lease(Lease(table.arm(8.0, lambda: None), _endpoint(), _endpoint(), 0.0))
        sim.run(until=3.0)
        member.stop()
        sim.run(until=5.0)
        assert member.fired_count == 3

    def test_columns_are_cached_until_membership_changes(self, sim):
        ticker = CoalescedTicker(sim)
        table = DeadlineTable(sim)
        handles = [table.arm(8.0, lambda: None) for _ in range(3)]
        members = [ticker.register(2.0, lambda: None) for _ in range(3)]
        for member, handle in zip(members, handles):
            member.set_lease(Lease(handle, _endpoint(), _endpoint(), 0.0))
        # A same-instant registration joins the group: the plan is rebuilt.
        late = ticker.register(2.0, lambda: None)
        assert late._group is members[0]._group and late._group._plan is None
        sim.run(until=2.0)
        plan = members[0]._group._plan
        assert _leased_column_indices(late) == [h.index for h in handles]
        sim.run(until=4.0)
        assert members[0]._group._plan is plan  # unchanged membership: reused
        members[1].stop()
        sim.run(until=6.0)
        assert _leased_column_indices(late) == [handles[0].index, handles[2].index]
        members[0].set_lease(None)
        sim.run(until=8.0)
        assert _leased_column_indices(late) == [handles[2].index]
        callers, _phases, _columns = late._group._plan
        assert callers == [members[0], late]

    def test_released_handle_stays_inert_when_its_entry_is_recycled(self, sim):
        ticker = CoalescedTicker(sim)
        table = DeadlineTable(sim)
        fired = []
        stale = table.arm(8.0, lambda: fired.append("stale"))
        ticker.register(2.0, lambda: None).set_lease(Lease(stale, _endpoint(), _endpoint(), 0.0))
        sim.run(until=2.0)
        stale.release()  # the watcher forgets the peer
        recycled = table.arm(3.0, lambda: fired.append(("recycled", sim.now)))
        assert recycled.index == stale.index
        sim.run(until=10.0)
        # Renewals at 4, 6, 8 and 10 carried the stale generation: skipped.
        assert fired == [("recycled", 5.0)]
        assert not stale.armed
