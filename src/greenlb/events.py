"""Simulation event vocabulary shared by the event loop and the cluster model."""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = ["EventKind", "Scheduled"]


class EventKind(enum.IntEnum):
    """Event kinds; the numeric value is the tie-break priority at equal time.

    Internal state settles before a new request observes it, so timer and
    completion events dispatch ahead of an arrival at the same instant.
    """

    SERVICE_COMPLETE = 0
    SUSPEND_DONE = 1
    WAKEUP_DONE = 2
    TIMEOUT = 3
    ARRIVAL = 4


class Scheduled(NamedTuple):
    """A transition the cluster asks the event loop to enqueue.

    A plain tuple, so the loop unpacks it straight into a heap entry.
    """

    kind: EventKind
    server: int
    time: float
    token: int = 0  # stale-timeout guard; meaningful for TIMEOUT only
