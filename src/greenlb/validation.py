"""Cross-checking machinery: ratio distance, trace replay, analytic queueing.

Three independent ways to corroborate simulator output:

* :func:`delta` -- the symmetric, scale-invariant ratio distance used to
  compare two result tables design by design.  It is not a metric: the
  triangle inequality fails.
* :func:`replay_oracle` -- a straight-line trace interpreter that recomputes
  per-request latencies and the power integral from an explicit arrival list
  and fixed assignments.  It shares no code with the event-queue engine: it
  walks each server's own arrival sequence and does interval arithmetic on
  the idle gaps, so agreement between the two is meaningful evidence.
* :func:`md1_mean_latency` -- the Pollaczek-Khinchine mean sojourn time for a
  single queue with deterministic service, for always-on configurations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from .cluster import PowerModel
from .policy import PowerState

__all__ = [
    "DELTA_THRESHOLDS",
    "delta",
    "md1_mean_latency",
    "ReplayResult",
    "replay_oracle",
    "DesignComparison",
    "ComparisonReport",
    "aggregate_designs",
    "compare_tables",
]

DELTA_THRESHOLDS = (0.06, 0.11, 0.13, 0.2, 0.3)


def delta(v1: float, v2: float) -> float:
    """Ratio distance max(v1/v2, v2/v1) - 1 for positive values.

    Symmetric, zero iff equal, and invariant under common scaling; the
    triangle inequality does not hold, so it is not a metric.
    """
    if not (v1 > 0 and v2 > 0):
        raise ValueError(f"delta is defined for positive values, got ({v1}, {v2})")
    return max(v1 / v2, v2 / v1) - 1.0


def md1_mean_latency(arrival_rate: float, service_time: float) -> float:
    """Mean sojourn time of a single always-on queue with deterministic service.

    Pollaczek-Khinchine with zero service variance:
    ``s + rho*s / (2*(1-rho))`` where ``rho = arrival_rate * service_time``.
    """
    if not arrival_rate > 0 or not service_time > 0:
        raise ValueError("arrival_rate and service_time must be positive")
    rho = arrival_rate * service_time
    if rho >= 1:
        raise ValueError(f"queue is unstable: utilisation {rho} >= 1")
    return service_time + rho * service_time / (2.0 * (1.0 - rho))


@dataclass(slots=True)
class ReplayResult:
    """Outcome of replaying a fixed trace."""

    latencies: list  # per request, in arrival order
    power_integral_j: float  # cluster energy over [0, horizon]
    timelines: list  # per server: [(enter_time, PowerState)]
    horizon: float


def replay_oracle(
    arrivals: Sequence[float],
    assignments: Sequence[int],
    num_servers: int,
    power: PowerModel,
    service_time: float,
    initial_state: PowerState = PowerState.SLEEP,
    horizon: float | None = None,
) -> ReplayResult:
    """Recompute latencies and the power integral for an explicit trace.

    ``arrivals`` must be strictly increasing and ``assignments[i]`` names the
    server that received the i-th request.  Boundary conventions match the
    engine's simultaneous-event order: an arrival landing exactly when an
    idle window ends finds the server already suspending, and one landing
    exactly when a suspend ends finds it asleep.
    """
    if len(arrivals) != len(assignments):
        raise ValueError("arrivals and assignments differ in length")
    for i in range(1, len(arrivals)):
        if not arrivals[i] > arrivals[i - 1]:
            raise ValueError("arrival times must be strictly increasing")
    for sid in assignments:
        if not 0 <= sid < num_servers:
            raise ValueError(f"assignment to unknown server {sid}")
    power.validate()
    if initial_state not in (PowerState.SLEEP, PowerState.ON):
        raise ValueError("servers can only start asleep or on")

    per_server: list[list[int]] = [[] for _ in range(num_servers)]
    for index, sid in enumerate(assignments):
        per_server[sid].append(index)

    latencies: list[float | None] = [None] * len(arrivals)
    timelines = []
    last_completion = 0.0
    for sid in range(num_servers):
        timeline, completions = _replay_server(
            [arrivals[i] for i in per_server[sid]], power, service_time, initial_state
        )
        timelines.append(timeline)
        for index, completion in zip(per_server[sid], completions):
            latencies[index] = completion - arrivals[index]
            last_completion = max(last_completion, completion)

    if horizon is None:
        if not arrivals:
            raise ValueError("an empty trace needs an explicit horizon")
        horizon = last_completion

    integral = 0.0
    for timeline in timelines:
        for i, (seg_start, state) in enumerate(timeline):
            seg_end = timeline[i + 1][0] if i + 1 < len(timeline) else horizon
            width = min(seg_end, horizon) - max(seg_start, 0.0)
            if width > 0:
                integral += width * power.power_in(state)

    return ReplayResult(
        latencies=latencies,
        power_integral_j=integral,
        timelines=timelines,
        horizon=horizon,
    )


def _replay_server(
    arrivals: Sequence[float],
    power: PowerModel,
    service_time: float,
    initial_state: PowerState,
) -> tuple[list[tuple[float, PowerState]], list[float]]:
    """Walk one server's arrival sequence, emitting its timeline and completions.

    The state between requests is a function of the idle gap alone: on for
    the timeout window, then a fixed suspend, then asleep until the next
    arrival.  Sums are accumulated stepwise so timestamps are bit-identical
    to the engine's event times.
    """
    timeout, t_sd, t_wu = power.timeout, power.t_suspend, power.t_wakeup
    timeline: list[tuple[float, PowerState]] = [(0.0, initial_state)]
    completions: list[float] = []
    prev_completion: float | None = None

    for a in arrivals:
        if prev_completion is not None and a < prev_completion:
            start = prev_completion  # queued behind unfinished work
        elif prev_completion is None and initial_state is PowerState.SLEEP:
            timeline.append((a, PowerState.WAKEUP))
            start = a + t_wu
            timeline.append((start, PowerState.ON))
        else:
            idle_at = prev_completion if prev_completion is not None else 0.0
            if math.isinf(timeout) or a < idle_at + timeout:
                start = a  # arrival inside the idle window: still on
            else:
                suspend_start = idle_at + timeout
                suspend_end = suspend_start + t_sd
                timeline.append((suspend_start, PowerState.SUSPEND))
                if a < suspend_end:
                    wake_start = suspend_end  # suspend must finish first
                else:
                    timeline.append((suspend_end, PowerState.SLEEP))
                    wake_start = a
                timeline.append((wake_start, PowerState.WAKEUP))
                start = wake_start + t_wu
                timeline.append((start, PowerState.ON))
        completion = start + service_time
        completions.append(completion)
        prev_completion = completion

    # Tail: after the last completion the usual idle chain runs out; segments
    # past the caller's horizon are clipped at integration time.
    if prev_completion is not None and not math.isinf(timeout):
        suspend_start = prev_completion + timeout
        timeline.append((suspend_start, PowerState.SUSPEND))
        timeline.append((suspend_start + t_sd, PowerState.SLEEP))
    elif prev_completion is None and initial_state is PowerState.ON and not math.isinf(timeout):
        timeline.append((timeout, PowerState.SUSPEND))
        timeline.append((timeout + t_sd, PowerState.SLEEP))
    return timeline, completions


# --- Result-table comparison -------------------------------------------

@dataclass(slots=True)
class DesignComparison:
    q: float
    timeout: float
    nd: str
    latency_a: float
    latency_b: float
    delta_latency: float
    power_a: float
    power_b: float
    delta_power: float


@dataclass(slots=True)
class ComparisonReport:
    """Per-design ratio distances between two result tables."""

    designs: list[DesignComparison]
    fraction_below: dict  # {"latency": {threshold: fraction}, "power": {...}}

    def to_dict(self) -> dict:
        return {
            "num_designs": len(self.designs),
            "fraction_below": {
                metric: {str(thr): frac for thr, frac in by_thr.items()}
                for metric, by_thr in self.fraction_below.items()
            },
            "designs": [asdict(d) for d in self.designs],
        }


_REQUIRED_COLUMNS = ("q", "timeout", "nd", "avg_latency_s", "total_power_w")


def aggregate_designs(rows: Iterable[Mapping]) -> dict:
    """Mean latency and total power per design, replications pooled.

    Every row needs the columns q, timeout, nd, avg_latency_s and
    total_power_w, or ValueError names the first one missing.  Rows with an
    error are skipped.  Maps ``(q, timeout, nd)`` to
    ``(mean avg_latency_s, mean total_power_w)``.
    """
    sums: dict[tuple, list[float]] = {}
    for row in rows:
        for column in _REQUIRED_COLUMNS:
            if column not in row:
                raise ValueError(f"results file lacks required column '{column}'")
        if row.get("error"):
            continue
        key = (float(row["q"]), float(row["timeout"]), row["nd"])
        acc = sums.setdefault(key, [0.0, 0.0, 0])
        acc[0] += float(row["avg_latency_s"])
        acc[1] += float(row["total_power_w"])
        acc[2] += 1
    return {key: (al / n, ap / n) for key, (al, ap, n) in sums.items()}


def compare_tables(rows_a: Iterable[Mapping], rows_b: Iterable[Mapping]) -> ComparisonReport:
    """Compare two sweep result tables keyed by design coordinates.

    Rows are dicts with at least q, timeout, nd, avg_latency_s and
    total_power_w; replications of the same design are averaged first.
    Designs present in only one table are ignored.
    """
    agg_a = aggregate_designs(rows_a)
    agg_b = aggregate_designs(rows_b)
    common = sorted(set(agg_a) & set(agg_b))
    if not common:
        raise ValueError("the two tables share no designs")
    designs = []
    for key in common:
        q, timeout, nd = key
        al_a, ap_a = agg_a[key]
        al_b, ap_b = agg_b[key]
        designs.append(
            DesignComparison(
                q=q,
                timeout=timeout,
                nd=nd,
                latency_a=al_a,
                latency_b=al_b,
                delta_latency=delta(al_a, al_b),
                power_a=ap_a,
                power_b=ap_b,
                delta_power=delta(ap_a, ap_b),
            )
        )
    fraction_below = {
        "latency": {
            thr: sum(1 for d in designs if d.delta_latency < thr) / len(designs)
            for thr in DELTA_THRESHOLDS
        },
        "power": {
            thr: sum(1 for d in designs if d.delta_power < thr) / len(designs)
            for thr in DELTA_THRESHOLDS
        },
    }
    return ComparisonReport(designs=designs, fraction_below=fraction_below)
