"""Shared test helpers."""

import heapq
import itertools

import numpy as np

from greenlb.cluster import Cluster, PowerModel, server_snapshot
from greenlb.engine import SimulationRecord, UniformBlocks, generate_interarrival
from greenlb.events import EventKind, Scheduled
from greenlb.policy import PowerState, select_server


def assert_timeline_wellformed(timeline, power: PowerModel):
    """Structural checks on a (enter_time, state) history.

    The history must start at t=0, be gapless with non-decreasing times, and
    honour the transition protocol: sleep only after a full-length suspend,
    on only after a full-length wakeup (or at t=0), suspend only from on,
    and wakeup only from sleep or suspend.
    """
    assert timeline[0][0] == 0.0
    times = [t for t, _ in timeline]
    assert times == sorted(times)
    for i in range(1, len(timeline)):
        (prev_t, prev_s), (t, s) = timeline[i - 1], timeline[i]
        assert s != prev_s, "state change events must change the state"
        duration = t - prev_t
        if s is PowerState.SLEEP:
            assert prev_s is PowerState.SUSPEND
            assert abs(duration - power.t_suspend) < 1e-9
        elif s is PowerState.ON:
            assert prev_s is PowerState.WAKEUP
            assert abs(duration - power.t_wakeup) < 1e-9
        elif s is PowerState.SUSPEND:
            assert prev_s is PowerState.ON
        else:
            assert prev_s in (PowerState.SLEEP, PowerState.SUSPEND)


def reference_simulate(config):
    """``simulate``'s result from the reference models, one event at a time.

    Every event, arrivals included, waits on one heap in (time, kind, seq)
    order and is handed to a :class:`Cluster` handler, whose ``Scheduled``
    items are pushed back.  Each arrival picks with :func:`select_server` on
    a fresh snapshot of every server.  The seed is split into the same two
    ``UniformBlocks`` substreams as in ``simulate``.  Policies that fail
    are not supported.
    """
    n, power = config.num_servers, config.power
    arrival_ss, policy_ss = np.random.SeedSequence(config.seed).spawn(2)
    arrival_rng = UniformBlocks(np.random.default_rng(arrival_ss))
    policy_rng = UniformBlocks(np.random.default_rng(policy_ss))
    cluster = Cluster(n, power, config.service_time, config.initial_state)
    handlers = {
        EventKind.SERVICE_COMPLETE: cluster.on_service_complete,
        EventKind.SUSPEND_DONE: cluster.on_suspend_done,
        EventKind.WAKEUP_DONE: cluster.on_wakeup_done,
    }
    max_req, max_vt = config.stop.max_requests, config.stop.max_virtual_time
    heap, seq = [], itertools.count()

    def push(scheduled):
        for kind, server, t, token in scheduled:
            heapq.heappush(heap, (t, kind, next(seq), server, token))

    def push_arrival(t):
        """Schedule an arrival at ``t`` unless injection has stopped; say which."""
        if (max_req is None or injected < max_req) and (max_vt is None or t <= max_vt):
            push([Scheduled(EventKind.ARRIVAL, -1, t)])
            return True
        return False

    counts = [0] * n
    injected = completed = 0
    push(cluster.start(0.0))
    arrival_pending = push_arrival(generate_interarrival(arrival_rng, config.arrival_rate))
    while heap:
        time, kind, _, sid, token = heapq.heappop(heap)
        if kind is EventKind.ARRIVAL:
            snaps = [server_snapshot(s.id, n, s.queue_size, s.power_state, power,
                                     config.design_params) for s in cluster.servers]
            target = select_server(config.policy, snaps, config.nd, policy_rng)
            injected += 1
            counts[target] += 1
            push(cluster.on_request_assigned(target, time))
            arrival_pending = push_arrival(
                time + generate_interarrival(arrival_rng, config.arrival_rate))
        elif kind is EventKind.TIMEOUT:
            push(cluster.on_timeout(sid, time, token))
        else:
            push(handlers[kind](sid, time))
            if kind is EventKind.SERVICE_COMPLETE:
                completed += 1
                if completed == injected and not arrival_pending and max_vt is None:
                    break
    return SimulationRecord(config=config, requests=cluster.requests,
                            timelines=cluster.timelines(),
                            horizon=max_vt if max_vt is not None else time,
                            assignment_counts=counts)
