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

The loop itself is flat: heap entries are ``(time, kind, seq, server,
token)`` tuples, each cluster handler is bound once per run, and the
:class:`Scheduled` tuples a handler returns are unpacked straight into heap
pushes.

No object is built per request.  The cluster's arrival handler appends the
request to a :class:`~greenlb.cluster.RequestLog`, three flat columns of
arrival time, assigned server and completion time, and the servers' queues
hold row indices.  The log is the record's ``requests``; it also reads as a
sequence of :class:`~greenlb.cluster.Request` objects built on demand.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cluster import Cluster, PowerModel, Request, server_snapshot
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
_TIMEOUT = int(EventKind.TIMEOUT)
_ARRIVAL = int(EventKind.ARRIVAL)
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

    cluster = Cluster(config.num_servers, config.power, config.service_time,
                      config.initial_state)
    servers = cluster.servers
    n = config.num_servers
    rate = config.arrival_rate
    power, design_params = config.power, config.design_params
    interarrival = generate_interarrival
    assign = cluster.on_request_assigned
    on_timeout = cluster.on_timeout
    # handlers indexed by kind, for the kinds before TIMEOUT (see EventKind)
    handlers = (cluster.on_service_complete, cluster.on_suspend_done,
                cluster.on_wakeup_done)

    # Policy values per server, valid for every server not in ``dirty``.
    scores = [0.0] * n
    dirty = set(range(n))
    rescore_all = draws_random(config.policy)
    # Policy values by (server id, queue size, power state value); unused with ``random``.
    memo: dict[tuple[int, int, str], float] = {}
    fixed_fractions = ([i / n for i in range(n)]
                       if config.nd is NdResolution.FIXED_ORDER else None)

    def score(i: int) -> float:
        s = servers[i]
        snapshot = server_snapshot(i, n, s.queue_size, s.power_state, power, design_params)
        return evaluate(config.policy, snapshot, policy_rng)

    # injection bounds; inf where the stop criterion leaves one open
    max_req, max_vt = config.stop.max_requests, config.stop.max_virtual_time
    request_cap = math.inf if max_req is None else max_req
    time_cap = math.inf if max_vt is None else max_vt

    heap: list[tuple] = [(t, kind, seq, server, token) for seq, (kind, server, t, token)
                         in enumerate(cluster.start(0.0))]
    heapq.heapify(heap)
    seq = len(heap)
    t0 = interarrival(arrival_rng, rate)
    arrival_pending = 0 < request_cap and t0 <= time_cap
    if arrival_pending:
        heapq.heappush(heap, (t0, _ARRIVAL, seq, -1, 0))
        seq += 1

    counts = [0] * n
    injected = completed = 0
    clock = 0.0

    trace_file = open(trace_path, "w", newline="") if trace_path is not None else None
    trace = csv.writer(trace_file) if trace_file is not None else None
    if trace is not None:
        trace.writerow(["time", "server", "event", "power_state", "queue_size"])

    def trace_row(time: float, server_id: int, event: str) -> None:
        s = servers[server_id]
        trace.writerow([repr(time), server_id, event, s.power_state.value, s.queue_size])

    heappush, heappop = heapq.heappush, heapq.heappop
    dirty_add, memo_get = dirty.add, memo.get
    take = policy_rng.take
    try:
        while heap:
            time, kind, _, sid, token = heappop(heap)
            clock = time
            if kind == _ARRIVAL:
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
                            s = servers[i]
                            # the state's value, so the lookup runs no Enum.__hash__
                            key = (i, s.queue_size, s.power_state._value_)
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
                injected += 1
                counts[target] += 1
                for k, server, t, tok in assign(target, time):
                    heappush(heap, (t, k, seq, server, tok))
                    seq += 1
                dirty_add(target)
                if trace is not None:
                    trace_row(time, target, "arrival")
                t_next = time + interarrival(arrival_rng, rate)
                arrival_pending = injected < request_cap and t_next <= time_cap
                if arrival_pending:
                    heappush(heap, (t_next, _ARRIVAL, seq, -1, 0))
                    seq += 1
                continue
            if kind == _TIMEOUT:
                if token != servers[sid].timeout_token:
                    continue  # cancelled by an arrival or a service start
                scheduled = on_timeout(sid, time, token)
            else:
                scheduled = handlers[kind](sid, time)
            for k, server, t, tok in scheduled:
                heappush(heap, (t, k, seq, server, tok))
                seq += 1
            dirty_add(sid)
            if trace is not None:
                trace_row(time, sid, kind.name.lower())
            if kind == _SERVICE_COMPLETE:
                completed += 1
                # max_requests-only runs end at the last completion; leftover
                # timer events would only move servers towards sleep.
                if completed == injected and not arrival_pending and max_vt is None:
                    break
    finally:
        if trace_file is not None:
            trace_file.close()

    horizon = max_vt if max_vt is not None else clock
    return SimulationRecord(
        config=config,
        requests=cluster.requests,
        timelines=cluster.timelines(),
        horizon=horizon,
        assignment_counts=counts,
    )


def run(config: SimConfig, trace_path: str | Path | None = None) -> "RunResult":
    """Simulate and summarize: the one-call entry point for a single run."""
    from .metrics import summarize

    return summarize(simulate(config, trace_path=trace_path))
