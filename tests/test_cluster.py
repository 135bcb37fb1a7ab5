"""Transition-rule tests for the server state machine, driven by hand."""

import math

import pytest

from greenlb.cluster import Cluster, ClusterInvariantError, PowerModel, Request
from greenlb.events import EventKind
from greenlb.policy import PowerState

from helpers import assert_timeline_wellformed


def make_cluster(n=1, initial=PowerState.SLEEP, **power_kw):
    return Cluster(n, PowerModel(**power_kw), service_time=1.0, initial_state=initial)


def req(t, index=0):
    return Request(arrival_time=t, index=index)


class TestArrivalHandling:
    def test_sleeping_server_wakes_for_ten_seconds(self):
        c = make_cluster()
        out = c.on_request_assigned(0, req(3.0), 3.0)
        assert c.servers[0].power_state is PowerState.WAKEUP
        assert out == [evt for evt in out]
        (wakeup,) = out
        assert wakeup.kind is EventKind.WAKEUP_DONE and wakeup.time == 13.0
        (start,) = c.on_wakeup_done(0, 13.0)
        assert c.servers[0].power_state is PowerState.ON
        assert start.kind is EventKind.SERVICE_COMPLETE and start.time == 14.0

    def test_on_idle_server_starts_service_and_cancels_timeout(self):
        c = make_cluster(initial=PowerState.ON)
        (timeout,) = c.start(0.0)
        assert timeout.kind is EventKind.TIMEOUT and timeout.time == 10.0
        (complete,) = c.on_request_assigned(0, req(4.0), 4.0)
        assert complete.kind is EventKind.SERVICE_COMPLETE and complete.time == 5.0
        # the armed timeout is now stale and must be ignored when it fires
        assert c.on_timeout(0, 10.0, timeout.token) == []

    def test_on_busy_server_queues_only(self):
        c = make_cluster(initial=PowerState.ON)
        c.start(0.0)
        c.on_request_assigned(0, req(1.0, 0), 1.0)
        assert c.on_request_assigned(0, req(1.5, 1), 1.5) == []
        assert c.servers[0].queue_size == 2

    def test_arrival_during_suspend_wakes_after_suspend_completes(self):
        # suspend entered at 10; arrival at 14 must wait for the suspend to
        # finish (20), wake until 30, and only then begin service
        c = make_cluster(initial=PowerState.ON)
        (timeout,) = c.start(0.0)
        (suspend_done,) = c.on_timeout(0, 10.0, timeout.token)
        assert c.servers[0].power_state is PowerState.SUSPEND
        assert suspend_done.time == 20.0
        assert c.on_request_assigned(0, req(14.0), 14.0) == []
        assert c.servers[0].pending_arrival_during_suspend
        (wakeup_done,) = c.on_suspend_done(0, 20.0)
        assert c.servers[0].power_state is PowerState.WAKEUP
        assert wakeup_done.time == 30.0
        (complete,) = c.on_wakeup_done(0, 30.0)
        assert complete.time == 31.0

    def test_second_arrival_during_suspend_changes_nothing(self):
        c = make_cluster(initial=PowerState.ON)
        (timeout,) = c.start(0.0)
        c.on_timeout(0, 10.0, timeout.token)
        c.on_request_assigned(0, req(12.0, 0), 12.0)
        assert c.on_request_assigned(0, req(13.0, 1), 13.0) == []
        assert c.servers[0].queue_size == 2

    def test_arrival_during_wakeup_queues_without_restart(self):
        c = make_cluster()
        (wakeup,) = c.on_request_assigned(0, req(1.0, 0), 1.0)
        assert c.on_request_assigned(0, req(2.0, 1), 2.0) == []
        assert c.servers[0].power_state is PowerState.WAKEUP
        # the original wakeup completion still applies
        (complete,) = c.on_wakeup_done(0, wakeup.time)
        assert complete.time == wakeup.time + 1.0


class TestCompletionAndTimers:
    def test_completion_starts_next_queued_request(self):
        c = make_cluster(initial=PowerState.ON)
        c.start(0.0)
        first, second = req(0.5, 0), req(0.7, 1)
        c.on_request_assigned(0, first, 0.5)
        c.on_request_assigned(0, second, 0.7)
        (complete,) = c.on_service_complete(0, 1.5)
        assert first.completion == 1.5
        assert second.service_start == 1.5
        assert complete.time == 2.5

    def test_idle_chain_on_timeout_suspend_sleep(self):
        c = make_cluster(initial=PowerState.ON)
        c.start(0.0)
        c.on_request_assigned(0, req(0.5), 0.5)
        (timeout,) = c.on_service_complete(0, 1.5)
        assert timeout.kind is EventKind.TIMEOUT and timeout.time == 11.5
        (suspend_done,) = c.on_timeout(0, 11.5, timeout.token)
        assert suspend_done.time == 21.5
        assert c.on_suspend_done(0, 21.5) == []
        assert c.servers[0].power_state is PowerState.SLEEP
        # sleeping servers stay asleep with no arrivals: nothing is scheduled
        assert_timeline_wellformed(c.servers[0].timeline, c.power)

    def test_arrival_halfway_through_idle_window_cancels_timeout(self):
        c = make_cluster(initial=PowerState.ON)
        c.start(0.0)
        c.on_request_assigned(0, req(0.5), 0.5)
        (timeout,) = c.on_service_complete(0, 1.5)
        (complete,) = c.on_request_assigned(0, req(6.5, 1), 6.5)
        assert complete.time == 7.5  # service starts at the arrival
        assert c.on_timeout(0, timeout.time, timeout.token) == []
        assert c.servers[0].power_state is PowerState.ON

    def test_suspend_done_without_pending_goes_to_sleep(self):
        c = make_cluster(initial=PowerState.ON)
        (timeout,) = c.start(0.0)
        c.on_timeout(0, 10.0, timeout.token)
        c.on_suspend_done(0, 20.0)
        assert c.servers[0].power_state is PowerState.SLEEP

    def test_wakeup_done_with_empty_queue_arms_fresh_timeout(self):
        c = make_cluster()
        c.on_request_assigned(0, req(1.0), 1.0)
        c.servers[0].queue.clear()  # synthetic: queue drained by other means
        (timeout,) = c.on_wakeup_done(0, 11.0)
        assert timeout.kind is EventKind.TIMEOUT and timeout.time == 21.0
        assert c.servers[0].power_state is PowerState.ON

    def test_infinite_timeout_never_schedules(self):
        c = make_cluster(initial=PowerState.ON, timeout=math.inf)
        assert c.start(0.0) == []
        c.on_request_assigned(0, req(0.5), 0.5)
        assert c.on_service_complete(0, 1.5) == []
        assert c.servers[0].power_state is PowerState.ON


class TestPowerAndErrors:
    def test_power_per_state(self):
        c = make_cluster(initial=PowerState.ON)
        assert c.power.power_in(c.servers[0].power_state) == 200.0
        c.servers[0].power_state = PowerState.SLEEP
        assert c.power.power_in(c.servers[0].power_state) == 14.0
        c.servers[0].power_state = PowerState.SUSPEND
        assert c.power.power_in(c.servers[0].power_state) == 200.0
        c.servers[0].power_state = PowerState.WAKEUP
        assert c.power.power_in(c.servers[0].power_state) == 200.0

    def test_completion_while_idle_is_a_logic_error(self):
        c = make_cluster(initial=PowerState.ON)
        with pytest.raises(ClusterInvariantError):
            c.on_service_complete(0, 1.0)

    def test_mismatched_timer_state_is_a_logic_error(self):
        c = make_cluster()
        with pytest.raises(ClusterInvariantError):
            c.on_suspend_done(0, 1.0)
        with pytest.raises(ClusterInvariantError):
            c.on_wakeup_done(0, 1.0)
        with pytest.raises(ClusterInvariantError):
            c.on_timeout(0, 1.0, c.servers[0].timeout_token)

    def test_validation_of_construction(self):
        with pytest.raises(ValueError):
            Cluster(0, PowerModel(), 1.0)
        with pytest.raises(ValueError):
            Cluster(1, PowerModel(), 0.0)
        with pytest.raises(ValueError):
            Cluster(1, PowerModel(p_sleep=-1), 1.0)
        with pytest.raises(ValueError):
            Cluster(1, PowerModel(), 1.0, initial_state=PowerState.WAKEUP)

    def test_serving_requires_on(self):
        c = make_cluster()
        with pytest.raises(ClusterInvariantError):
            c._start_service(c.servers[0], req(0.0), 0.0)

    def test_timeline_records_full_chain(self):
        c = make_cluster()
        c.on_request_assigned(0, req(2.0), 2.0)
        c.on_wakeup_done(0, 12.0)
        (timeout,) = c.on_service_complete(0, 13.0)
        c.on_timeout(0, 23.0, timeout.token)
        c.on_suspend_done(0, 33.0)
        assert c.servers[0].timeline == [
            (0.0, PowerState.SLEEP),
            (2.0, PowerState.WAKEUP),
            (12.0, PowerState.ON),
            (23.0, PowerState.SUSPEND),
            (33.0, PowerState.SLEEP),
        ]
        assert_timeline_wellformed(c.servers[0].timeline, c.power)
