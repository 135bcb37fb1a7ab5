"""Deterministic discrete-event loop driving the cluster under a policy.

Arrivals form a Poisson process; each arrival asks the policy for a target
(taking zero simulated time) and hands the request over.  Events are
dispatched in (time, kind, sequence) order, where the kind rank settles
server-internal transitions before a simultaneous arrival.

A server's policy value depends only on its own queue size and power state
(plus run constants), and every event changes the state of one server at
most.  So the loop keeps each server's value between arrivals and, at an
arrival, scores again only the servers whose events ran since the last one.
Scoring again is a lookup too: a run keeps one memo from (server id, queue
size, power state) to the policy value, so each such key builds one
:class:`ServerSnapshot` and evaluates the policy once per run.  That is exact
because the value reads nothing else but run constants; a failed evaluation
stores nothing and ends the run.  A policy with a ``random`` leaf is scored
on every server at every arrival, as its draws must be.  The pick equals
:func:`select_server` on snapshots of every server with the same RNG.

Two independent RNG substreams are derived from the run seed, one for
arrival times and one for policy randomness, so switching the tie-resolution
mode never perturbs the workload.  Both are drawn in blocks
(:class:`UniformBlocks`) that hand out the values of scalar draws in the same
order, so results are the same as with one ``Generator.random()`` per draw.
The policy substream feeds both the ``random`` leaves and the tie fractions.

The loop itself is flat.  It runs the power-state machine of
:mod:`greenlb.cluster` inline, over per-server lists of power state, queued
rows, the row in service, timeout token and timeline, so no handler is
called and no :class:`~greenlb.events.Scheduled` item is built per event.
:class:`~greenlb.cluster.Cluster` states the same five transition rules one
handler at a time; it is the reference step model the tests compare this
loop against.  Timer and completion events wait on a heap of ``(time, kind,
seq, server, token)`` tuples.  The next arrival waits in a local variable
instead, and runs once no heap event is due at or before its time: that
comparison is where an arrival ranks last at equal time.

No object is built per request.  An arrival appends its row straight to a
:class:`~greenlb.cluster.RequestLog`, three flat columns of arrival time,
assigned server and completion time, and the servers' queues hold row
indices.  The log is the record's ``requests``; it also reads as a sequence
of :class:`~greenlb.cluster.Request` objects built on demand.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cluster import ClusterInvariantError, PowerModel, Request, RequestLog, server_snapshot
from .events import EventKind
from .policy import (
    EvaluationError,
    NdResolution,
    PolicyExpr,
    PowerState,
    UndefinedDesignParamError,
    break_ties,
    draws_random,
    evaluate,
    parse_policy,
    select_server,  # the reference pick; still importable from this module
)

if TYPE_CHECKING:
    from .metrics import RunResult

__all__ = [
    "SimulationError",
    "StopCriterion",
    "SimConfig",
    "SimulationRecord",
    "UniformBlocks",
    "generate_interarrival",
    "simulate",
    "run",
]


log = logging.getLogger("greenlb")

_SERVICE_COMPLETE = int(EventKind.SERVICE_COMPLETE)
_SUSPEND_DONE = int(EventKind.SUSPEND_DONE)
_WAKEUP_DONE = int(EventKind.WAKEUP_DONE)
_TIMEOUT = int(EventKind.TIMEOUT)
_EVENT_NAMES = [kind.name.lower() for kind in sorted(EventKind)]  # trace names by kind
_BLOCK = 1024  # values fetched per refill of a UniformBlocks


class SimulationError(RuntimeError):
    """A run could not produce a result (bad config or a policy failure)."""


@dataclass(slots=True)
class StopCriterion:
    """When to stop injecting arrivals.

    ``max_requests`` caps the number of injected arrivals; ``max_virtual_time``
    stops injection once the next arrival would land past that time and fixes
    the metrics horizon.  Either may be set; in-flight requests are always
    drained so every injected request completes.
    """

    max_requests: int | None = None
    max_virtual_time: float | None = None

    def validate(self) -> None:
        if self.max_requests is None and self.max_virtual_time is None:
            raise ValueError("stop criterion needs max_requests or max_virtual_time")
        if self.max_requests is not None and self.max_requests < 0:
            raise ValueError("max_requests must be >= 0")
        if self.max_virtual_time is not None and not self.max_virtual_time > 0:
            raise ValueError("max_virtual_time must be positive")
        if self.max_requests == 0 and self.max_virtual_time is None:
            raise ValueError("max_requests 0 needs max_virtual_time to define the horizon")


@dataclass(slots=True)
class SimConfig:
    """Everything one run needs; same config + seed reproduces bit-identical results."""

    num_servers: int = 4
    arrival_rate: float = 1.0
    service_time: float = 1.0
    power: PowerModel = field(default_factory=PowerModel)
    policy: PolicyExpr = field(default_factory=lambda: parse_policy("-queueSize"))
    nd: NdResolution = NdResolution.RANDOM_FRACTION
    design_params: dict = field(default_factory=dict)
    stop: StopCriterion = field(default_factory=lambda: StopCriterion(max_requests=1500))
    warmup: float = 500.0
    seed: int = 1
    initial_state: PowerState = PowerState.SLEEP

    def validate(self) -> None:
        if self.num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if not self.arrival_rate > 0:
            raise ValueError("arrival_rate must be positive")
        if not self.service_time > 0:
            raise ValueError("service_time must be positive")
        if not self.warmup >= 0:  # false for NaN too
            raise ValueError("warmup must be non-negative")
        if self.initial_state not in (PowerState.SLEEP, PowerState.ON):
            raise ValueError("initial_state must be sleep or on")
        self.power.validate()
        self.stop.validate()


@dataclass(slots=True)
class SimulationRecord:
    """Raw outcome of one run, before metric aggregation."""

    config: SimConfig
    # all injected requests in arrival order, all completed: a RequestLog from
    # simulate, or a hand-made list of Request
    requests: Sequence[Request]
    timelines: list  # per server: [(enter_time, PowerState)]
    horizon: float  # end of the metrics window
    assignment_counts: list


def generate_interarrival(rng, rate: float = 1.0) -> float:
    """Draw an exponential interarrival gap by inverting the CDF.

    Returns -ln(1-u)/rate with u ~ U[0,1); u = 0 is redrawn so gaps are
    strictly positive and arrival times stay unique.
    """
    if not rate > 0:
        raise ValueError("rate must be positive")
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return -math.log1p(-u) / rate


class UniformBlocks:
    """U[0,1) draws from a numpy ``Generator``, fetched ``_BLOCK`` values at a time.

    ``random()`` returns what successive ``generator.random()`` calls would,
    in the same order, and ``take(n)`` the next ``n`` of them as a list:
    ``Generator.random(k)`` fills an array with the values of ``k`` scalar
    draws.  ``random`` is the C-level ``__next__`` of the value stream, so a
    draw costs no Python call outside a refill.
    """

    __slots__ = ("_values", "random")

    def __init__(self, generator: np.random.Generator):
        self._values = itertools.chain.from_iterable(
            iter(lambda: generator.random(_BLOCK).tolist(), None))
        self.random = self._values.__next__

    def take(self, n: int) -> list[float]:
        return list(itertools.islice(self._values, n))


def simulate(config: SimConfig, trace_path: str | Path | None = None) -> SimulationRecord:
    """Run the event loop to the stop criterion; optionally export a CSV trace."""
    config.validate()
    load = config.arrival_rate * config.service_time
    if load >= config.num_servers:
        log.warning("offered load %g >= %d servers: queues grow without bound",
                    load, config.num_servers)
    arrival_ss, policy_ss = np.random.SeedSequence(config.seed).spawn(2)
    arrival_rng = UniformBlocks(np.random.default_rng(arrival_ss))
    policy_rng = UniformBlocks(np.random.default_rng(policy_ss))

    n = config.num_servers
    rate, service_time = config.arrival_rate, config.service_time
    power, design_params = config.power, config.design_params
    t_suspend, t_wakeup, timeout = power.t_suspend, power.t_wakeup, power.timeout
    arms_timeouts = not math.isinf(timeout)
    interarrival = generate_interarrival
    ON, SUSPEND, SLEEP, WAKEUP = (PowerState.ON, PowerState.SUSPEND, PowerState.SLEEP,
                                  PowerState.WAKEUP)

    # Per-server state, indexed by server id (the fields of cluster.Server).
    # A server's queue size is len(queues[i]) + (busy[i] >= 0).  Servers that
    # start On and idle begin a timeout, which bumps their token.
    starts_on = config.initial_state is ON
    state = [config.initial_state] * n
    queues = [deque() for _ in range(n)]  # queued row indices, FIFO
    busy = [-1] * n  # the row in service, or -1
    tokens = [int(starts_on)] * n  # a timeout fires only if its token is still the server's
    timelines = [[(0.0, config.initial_state)] for _ in range(n)]
    requests = RequestLog()
    arrival_append, server_append = requests.arrival.append, requests.server.append
    completion = requests.completion
    completion_append = completion.append

    # Policy values per server, valid for every server not in ``dirty``.
    scores = [0.0] * n
    dirty = set(range(n))
    rescore_all = draws_random(config.policy)
    # Policy values by (server id, queue size, power state value); unused with ``random``.
    memo: dict[tuple[int, int, str], float] = {}
    fixed_fractions = ([i / n for i in range(n)]
                       if config.nd is NdResolution.FIXED_ORDER else None)

    def score(i: int) -> float:
        snapshot = server_snapshot(i, n, len(queues[i]) + (busy[i] >= 0), state[i], power,
                                   design_params)
        return evaluate(config.policy, snapshot, policy_rng)

    # injection bounds; inf where the stop criterion leaves one open
    inf, nan = math.inf, math.nan
    max_req, max_vt = config.stop.max_requests, config.stop.max_virtual_time
    request_cap = inf if max_req is None else max_req
    time_cap = inf if max_vt is None else max_vt

    # Heap entries are (time, kind, seq, server, token); this list is sorted, so a heap.
    heap = ([(timeout, _TIMEOUT, i, i, 1) for i in range(n)]
            if starts_on and arms_timeouts else [])
    seq = len(heap)
    # The next arrival's time, or inf once injection has stopped.
    t_arr = interarrival(arrival_rng, rate)
    if not (0 < request_cap and t_arr <= time_cap):
        t_arr = inf

    counts = [0] * n
    injected = completed = 0
    time = 0.0

    trace_file = open(trace_path, "w", newline="") if trace_path is not None else None
    trace = csv.writer(trace_file) if trace_file is not None else None
    if trace is not None:
        trace.writerow(["time", "server", "event", "power_state", "queue_size"])

    def trace_row(time: float, server_id: int, event: str) -> None:
        trace.writerow([repr(time), server_id, event, state[server_id].value,
                        len(queues[server_id]) + (busy[server_id] >= 0)])

    heappush, heappop = heapq.heappush, heapq.heappop
    dirty_add, memo_get = dirty.add, memo.get
    take = policy_rng.take
    try:
        while True:
            # An arrival ranks last at equal time (see EventKind): every heap
            # event at or before t_arr runs before it.
            if heap and heap[0][0] <= t_arr:
                time, kind, _, sid, token = heappop(heap)
                if kind == _SERVICE_COMPLETE:
                    row = busy[sid]
                    if row < 0:
                        raise ClusterInvariantError(f"server {sid}: completion while idle")
                    completion[row] = time
                    queue = queues[sid]
                    if queue:
                        if state[sid] is not ON:
                            raise ClusterInvariantError(f"server {sid}: serving while not on")
                        busy[sid] = queue.popleft()
                        heappush(heap, (time + service_time, _SERVICE_COMPLETE, seq, sid, 0))
                        seq += 1
                    else:
                        busy[sid] = -1
                        tokens[sid] = token = tokens[sid] + 1
                        if arms_timeouts:
                            heappush(heap, (time + timeout, _TIMEOUT, seq, sid, token))
                            seq += 1
                    completed += 1
                elif kind == _TIMEOUT:
                    if token != tokens[sid]:
                        continue  # cancelled by an arrival or a service start
                    if state[sid] is not ON or busy[sid] >= 0 or queues[sid]:
                        raise ClusterInvariantError(
                            f"server {sid}: timeout fired while not idle-on")
                    state[sid] = SUSPEND
                    timelines[sid].append((time, SUSPEND))
                    heappush(heap, (time + t_suspend, _SUSPEND_DONE, seq, sid, 0))
                    seq += 1
                elif kind == _SUSPEND_DONE:
                    if state[sid] is not SUSPEND:
                        raise ClusterInvariantError(
                            f"server {sid}: suspend-done while not suspending")
                    if queues[sid]:  # a request arrived meanwhile: wake straight away
                        state[sid] = WAKEUP
                        timelines[sid].append((time, WAKEUP))
                        heappush(heap, (time + t_wakeup, _WAKEUP_DONE, seq, sid, 0))
                        seq += 1
                    else:
                        state[sid] = SLEEP
                        timelines[sid].append((time, SLEEP))
                else:  # _WAKEUP_DONE
                    if state[sid] is not WAKEUP:
                        raise ClusterInvariantError(
                            f"server {sid}: wakeup-done while not waking")
                    state[sid] = ON
                    timelines[sid].append((time, ON))
                    queue = queues[sid]
                    if queue:
                        busy[sid] = queue.popleft()
                        heappush(heap, (time + service_time, _SERVICE_COMPLETE, seq, sid, 0))
                        seq += 1
                    else:
                        tokens[sid] = token = tokens[sid] + 1
                        if arms_timeouts:
                            heappush(heap, (time + timeout, _TIMEOUT, seq, sid, token))
                            seq += 1
                dirty_add(sid)
                if trace is not None:
                    trace_row(time, sid, _EVENT_NAMES[kind])
                # max_requests-only runs end at the last completion; leftover
                # timer events would only move servers towards sleep.
                if (kind == _SERVICE_COMPLETE and completed == injected
                        and t_arr == inf and max_vt is None):
                    break
            elif t_arr < inf:
                time = t_arr
                # Score the servers whose state changed, in ascending id, then
                # break ties.  A (server id, queue size, power state) seen
                # before in this run takes its value from ``memo``: a policy
                # without ``random`` reads nothing else but run constants.  A
                # failed evaluation stores nothing.
                try:
                    if rescore_all:
                        for i in range(n):
                            scores[i] = score(i)
                    else:
                        for i in (dirty if len(dirty) == 1 else sorted(dirty)):
                            # the state's value, so the lookup runs no Enum.__hash__
                            key = (i, len(queues[i]) + (busy[i] >= 0), state[i]._value_)
                            value = memo_get(key)
                            if value is None:
                                value = memo[key] = score(i)
                            scores[i] = value
                except (EvaluationError, UndefinedDesignParamError) as exc:
                    raise SimulationError(
                        f"policy evaluation failed for request {injected}: {exc}"
                    ) from exc
                dirty.clear()
                target = break_ties(scores, take(n) if fixed_fractions is None
                                    else fixed_fractions)
                row = injected
                injected += 1
                counts[target] += 1
                arrival_append(time)
                server_append(target)
                completion_append(nan)
                target_state = state[target]
                if target_state is ON:
                    if busy[target] < 0:
                        tokens[target] += 1  # cancel the armed idle timeout
                        busy[target] = row
                        heappush(heap, (time + service_time, _SERVICE_COMPLETE, seq, target, 0))
                        seq += 1
                    else:
                        queues[target].append(row)
                else:
                    queues[target].append(row)
                    if target_state is SLEEP:
                        state[target] = WAKEUP
                        timelines[target].append((time, WAKEUP))
                        heappush(heap, (time + t_wakeup, _WAKEUP_DONE, seq, target, 0))
                        seq += 1
                    # Suspend or Wakeup in progress: the request just queues
                dirty_add(target)
                if trace is not None:
                    trace_row(time, target, "arrival")
                t_arr = time + interarrival(arrival_rng, rate)
                if not (injected < request_cap and t_arr <= time_cap):
                    t_arr = inf
            else:
                break
    finally:
        if trace_file is not None:
            trace_file.close()

    return SimulationRecord(
        config=config,
        requests=requests,
        timelines=timelines,
        horizon=max_vt if max_vt is not None else time,
        assignment_counts=counts,
    )


def run(config: SimConfig, trace_path: str | Path | None = None) -> "RunResult":
    """Simulate and summarize: the one-call entry point for a single run."""
    from .metrics import summarize

    return summarize(simulate(config, trace_path=trace_path))
