"""Per-server dynamic state and the power-state transition rules.

Each server owns an unbounded FIFO queue, serves one request at a time
(deterministic service, no preemption), and moves through four power states:

* On: the only state in which requests are processed.  After the queue
  drains, the server stays On for a timeout window; an arrival inside the
  window cancels it.
* Suspend: entered when the timeout fires; runs for a fixed transition time
  and cannot be aborted.  An arrival during Suspend is remembered and the
  server wakes immediately after the suspend finishes.
* Sleep: entered when a suspend finishes with no pending arrival; the server
  stays asleep until a request arrives.
* Wakeup: the fixed-duration transition back to On, entered from Sleep on
  arrival or straight after a Suspend with a pending arrival.

Transitions are communicated to the event loop as :class:`Scheduled` items;
armed timeouts are cancelled lazily via a per-server token.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .events import EventKind, Scheduled
from .policy import PowerState

__all__ = ["ClusterInvariantError", "Request", "PowerModel", "Server", "Cluster"]


class ClusterInvariantError(RuntimeError):
    """An event fired against a server in a state it cannot be handled in."""


@dataclass(slots=True)
class Request:
    """One incoming request, from arrival to completion."""

    arrival_time: float
    index: int
    assigned_server: int | None = None
    service_start: float | None = None
    completion: float | None = None


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
            if getattr(self, name) < 0:
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


@dataclass(slots=True)
class Server:
    """Full dynamic state of one server."""

    id: int
    power_state: PowerState
    queue: deque = field(default_factory=deque)
    in_service: Request | None = None
    pending_arrival_during_suspend: bool = False
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

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def start(self, now: float = 0.0) -> list[Scheduled]:
        """Arm initial timers. Servers that start On and idle begin a timeout."""
        out: list[Scheduled] = []
        for server in self.servers:
            if server.power_state is PowerState.ON:
                out.extend(self._arm_timeout(server, now))
        return out

    # -- event handlers ------------------------------------------------

    def on_request_assigned(self, server_id: int, req: Request, now: float) -> list[Scheduled]:
        """Accept a request on its assigned server and react per power state."""
        server = self.servers[server_id]
        req.assigned_server = server_id
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
        if state is PowerState.SUSPEND:
            server.pending_arrival_during_suspend = True
        return []  # Wakeup in progress: the request just queues

    def on_service_complete(self, server_id: int, now: float) -> list[Scheduled]:
        """Finish the in-service request; serve the next one or go idle."""
        server = self.servers[server_id]
        if server.in_service is None:
            raise ClusterInvariantError(f"server {server_id}: completion while idle")
        server.in_service.completion = now
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
        if server.pending_arrival_during_suspend != bool(server.queue):
            raise ClusterInvariantError(
                f"server {server_id}: pending-arrival flag out of sync with queue"
            )
        if server.pending_arrival_during_suspend:
            server.pending_arrival_during_suspend = False
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

    def _start_service(self, server: Server, req: Request, now: float) -> Scheduled:
        if server.power_state is not PowerState.ON:
            raise ClusterInvariantError(f"server {server.id}: serving while not on")
        server.in_service = req
        req.service_start = now
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
