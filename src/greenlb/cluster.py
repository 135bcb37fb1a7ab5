"""Per-server dynamic state and the power-state transition rules.

Each server owns an unbounded FIFO queue, serves one request at a time
(deterministic service, no preemption), and moves through four power states:

* On: the only state in which requests are processed.  After the queue
  drains, the server stays On for a timeout window; an arrival inside the
  window cancels it.
* Suspend: entered when the timeout fires; runs for a fixed transition time
  and cannot be aborted.  An arrival during Suspend queues, and a server
  with a non-empty queue wakes immediately after the suspend finishes.
* Sleep: entered when a suspend finishes with an empty queue; the server
  stays asleep until a request arrives.
* Wakeup: the fixed-duration transition back to On, entered from Sleep on
  arrival or straight after a Suspend with a queued request.

Transitions are communicated to the event loop as :class:`Scheduled` items;
armed timeouts are cancelled lazily via a per-server token.

The cluster keeps the run's requests in a :class:`RequestLog`: one row per
arrival, appended when the request is assigned, with its completion time
written when its service ends.  Queues hold row indices, not objects.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Mapping

from .events import EventKind, Scheduled
from .policy import PowerState, ServerSnapshot

__all__ = [
    "ClusterInvariantError", "Request", "RequestLog", "PowerModel", "server_snapshot", "Server",
    "Cluster",
]


class ClusterInvariantError(RuntimeError):
    """An event fired against a server in a state it cannot be handled in."""


@dataclass(slots=True)
class Request:
    """One incoming request, from arrival to completion.

    A run records its requests as a :class:`RequestLog`, which builds these
    on demand; ``service_start`` is not recorded there and reads ``None``.
    """

    arrival_time: float
    index: int
    assigned_server: int | None = None
    service_start: float | None = None
    completion: float | None = None


class RequestLog(Sequence):
    """A run's requests as three columns, in arrival order.

    ``arrival`` and ``completion`` are ``array('d')`` of times and ``server``
    an ``array('l')`` of server ids.  NaN in ``completion`` means "not
    completed" and -1 in ``server`` "not assigned".  As a read-only sequence
    its items are :class:`Request` objects built on demand, with those
    markers read back as ``None``.
    """

    __slots__ = ("arrival", "server", "completion")

    def __init__(self, arrival=(), server=(), completion=()):
        self.arrival = array("d", arrival)
        self.server = array("l", server)
        self.completion = array("d", completion)

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> RequestLog:
        """The columns of a list of requests, in list order."""
        return cls([r.arrival_time for r in requests],
                   [-1 if r.assigned_server is None else r.assigned_server for r in requests],
                   [math.nan if r.completion is None else r.completion for r in requests])

    def append(self, arrival_time: float, server: int) -> None:
        """Add a request that arrived at ``arrival_time`` on ``server``, not yet completed."""
        self.arrival.append(arrival_time)
        self.server.append(server)
        self.completion.append(math.nan)

    def __len__(self) -> int:
        return len(self.arrival)

    def __getitem__(self, i):
        picked = range(len(self.arrival))[i]  # a list's index rules and errors
        if isinstance(picked, range):
            return [self._request(j) for j in picked]
        return self._request(picked)

    def __iter__(self) -> Iterator[Request]:
        return map(self._request, range(len(self.arrival)))

    def _request(self, index: int) -> Request:
        server, completion = self.server[index], self.completion[index]
        return Request(self.arrival[index], index, None if server < 0 else server,
                       completion=None if math.isnan(completion) else completion)


@dataclass(slots=True)
class PowerModel:
    """Per-state power draw, transition times, and the idle timeout."""

    p_on: float = 200.0
    p_suspend: float = 200.0
    p_wakeup: float = 200.0
    p_sleep: float = 14.0
    t_suspend: float = 10.0
    t_wakeup: float = 10.0
    timeout: float = 10.0  # may be math.inf: the server then never suspends

    def validate(self) -> None:
        for name in ("p_on", "p_suspend", "p_wakeup", "p_sleep", "t_suspend", "t_wakeup"):
            if not getattr(self, name) >= 0:  # false for NaN too
                raise ValueError(f"power model field {name} must be non-negative")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive (math.inf disables suspending)")

    def power_in(self, state: PowerState) -> float:
        if state is PowerState.SLEEP:
            return self.p_sleep
        if state is PowerState.ON:
            return self.p_on
        if state is PowerState.SUSPEND:
            return self.p_suspend
        return self.p_wakeup


def server_snapshot(
    server_id: int,
    num_servers: int,
    queue_size: int,
    power_state: PowerState,
    power: PowerModel,
    design_params: Mapping[str, float],
) -> ServerSnapshot:
    """What a policy sees of one server: its queue and state, and the run's constants."""
    return ServerSnapshot(
        id=server_id,
        num_servers=num_servers,
        queue_size=queue_size,
        power_state=power_state,
        power_on=power.p_on,
        power_sleep=power.p_sleep,
        power_suspend=power.p_suspend,
        power_wakeup=power.p_wakeup,
        time_wakeup=power.t_wakeup,
        time_suspend=power.t_suspend,
        timeout_time=power.timeout,
        design_params=design_params,
    )


@dataclass(slots=True)
class Server:
    """Full dynamic state of one server."""

    id: int
    power_state: PowerState
    queue: deque = field(default_factory=deque)  # request indices, FIFO
    in_service: int | None = None  # request index
    timeout_token: int = 0
    timeline: list = field(default_factory=list)  # [(enter_time, PowerState)]

    @property
    def queue_size(self) -> int:
        """Queued requests plus the one in service, if any."""
        return len(self.queue) + (1 if self.in_service is not None else 0)


class Cluster:
    """A set of homogeneous servers driven by the event loop."""

    def __init__(
        self,
        num_servers: int,
        power: PowerModel,
        service_time: float,
        initial_state: PowerState = PowerState.SLEEP,
    ):
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if service_time <= 0:
            raise ValueError("service_time must be positive")
        if initial_state not in (PowerState.SLEEP, PowerState.ON):
            raise ValueError("servers can only start asleep or on")
        power.validate()
        self.power = power
        self.service_time = service_time
        self.servers = [
            Server(i, initial_state, timeline=[(0.0, initial_state)])
            for i in range(num_servers)
        ]
        self.requests = RequestLog()

    def start(self, now: float = 0.0) -> list[Scheduled]:
        """Arm initial timers. Servers that start On and idle begin a timeout."""
        out: list[Scheduled] = []
        for server in self.servers:
            if server.power_state is PowerState.ON:
                out.extend(self._arm_timeout(server, now))
        return out

    # -- event handlers ------------------------------------------------

    def on_request_assigned(self, server_id: int, now: float) -> list[Scheduled]:
        """Log a request arriving now on its assigned server and react per power state."""
        server = self.servers[server_id]
        req = len(self.requests)
        self.requests.append(now, server_id)
        state = server.power_state
        if state is PowerState.ON:
            if server.in_service is None:
                server.timeout_token += 1  # cancel the armed idle timeout
                return [self._start_service(server, req, now)]
            server.queue.append(req)
            return []
        server.queue.append(req)
        if state is PowerState.SLEEP:
            self._set_state(server, PowerState.WAKEUP, now)
            return [Scheduled(EventKind.WAKEUP_DONE, server.id, now + self.power.t_wakeup)]
        return []  # Suspend or Wakeup in progress: the request just queues

    def on_service_complete(self, server_id: int, now: float) -> list[Scheduled]:
        """Finish the in-service request; serve the next one or go idle."""
        server = self.servers[server_id]
        if server.in_service is None:
            raise ClusterInvariantError(f"server {server_id}: completion while idle")
        self.requests.completion[server.in_service] = now
        server.in_service = None
        if server.queue:
            return [self._start_service(server, server.queue.popleft(), now)]
        return self._arm_timeout(server, now)

    def on_timeout(self, server_id: int, now: float, token: int) -> list[Scheduled]:
        """Idle window elapsed: begin suspending. Stale (cancelled) firings are no-ops."""
        server = self.servers[server_id]
        if token != server.timeout_token:
            return []
        if server.power_state is not PowerState.ON or server.in_service is not None or server.queue:
            raise ClusterInvariantError(f"server {server_id}: timeout fired while not idle-on")
        self._set_state(server, PowerState.SUSPEND, now)
        return [Scheduled(EventKind.SUSPEND_DONE, server.id, now + self.power.t_suspend)]

    def on_suspend_done(self, server_id: int, now: float) -> list[Scheduled]:
        """Suspend finished: sleep, or wake straight away if a request arrived meanwhile."""
        server = self.servers[server_id]
        if server.power_state is not PowerState.SUSPEND:
            raise ClusterInvariantError(f"server {server_id}: suspend-done while not suspending")
        if server.queue:  # nothing dequeues while suspending
            self._set_state(server, PowerState.WAKEUP, now)
            return [Scheduled(EventKind.WAKEUP_DONE, server.id, now + self.power.t_wakeup)]
        self._set_state(server, PowerState.SLEEP, now)
        return []

    def on_wakeup_done(self, server_id: int, now: float) -> list[Scheduled]:
        """Wakeup finished: serve the queue head, or idle with a fresh timeout."""
        server = self.servers[server_id]
        if server.power_state is not PowerState.WAKEUP:
            raise ClusterInvariantError(f"server {server_id}: wakeup-done while not waking")
        self._set_state(server, PowerState.ON, now)
        if server.queue:
            return [self._start_service(server, server.queue.popleft(), now)]
        return self._arm_timeout(server, now)

    # -- queries ---------------------------------------------------------

    def timelines(self) -> list[list[tuple[float, PowerState]]]:
        """Per-server state history as (enter_time, state) segments from t=0."""
        return [list(server.timeline) for server in self.servers]

    # -- internals -------------------------------------------------------

    def _start_service(self, server: Server, req: int, now: float) -> Scheduled:
        if server.power_state is not PowerState.ON:
            raise ClusterInvariantError(f"server {server.id}: serving while not on")
        server.in_service = req
        return Scheduled(EventKind.SERVICE_COMPLETE, server.id, now + self.service_time)

    def _arm_timeout(self, server: Server, now: float) -> list[Scheduled]:
        server.timeout_token += 1
        if math.isinf(self.power.timeout):
            return []
        return [
            Scheduled(EventKind.TIMEOUT, server.id, now + self.power.timeout,
                      token=server.timeout_token)
        ]

    def _set_state(self, server: Server, state: PowerState, now: float) -> None:
        server.power_state = state
        server.timeline.append((now, state))
