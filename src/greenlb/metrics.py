"""Run metrics: average latency, average power, and batch-means intervals.

Both headline numbers are long-run averages approximated over a finite
window ``[warmup, horizon]``:

* average latency: mean completion-minus-arrival time over requests that
  arrive after the warm-up cut;
* average power: time integral of the per-state power draw over the window,
  reported per server and as the cluster total.

Confidence intervals come from the batch means method, Student-t at 95%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import stats

from .cluster import PowerModel, Request
from .policy import PowerState

__all__ = [
    "MetricsError",
    "EmptySampleError",
    "InsufficientDataError",
    "AveragePower",
    "RunResult",
    "compute_al",
    "state_durations",
    "state_fractions",
    "compute_ap",
    "batch_means",
    "summarize",
    "csv_header",
    "csv_row",
]

STATE_ORDER = (PowerState.ON, PowerState.SUSPEND, PowerState.SLEEP, PowerState.WAKEUP)


class MetricsError(ValueError):
    """A metric could not be computed from the given window or data."""


class EmptySampleError(MetricsError):
    """No post-warmup completions to average."""


class InsufficientDataError(MetricsError):
    """Too few samples for the requested number of batches."""


def _latencies(requests: Sequence[Request], warmup: float) -> list[float]:
    """Latencies of the completed requests arriving at or after the warm-up cut."""
    return [
        req.completion - req.arrival_time
        for req in requests
        if req.arrival_time >= warmup and req.completion is not None
    ]


def compute_al(requests: Sequence[Request], warmup: float) -> float:
    """Average latency over requests arriving at or after the warm-up cut."""
    latencies = _latencies(requests, warmup)
    if not latencies:
        raise EmptySampleError("no completed requests arrived after the warm-up cut")
    return float(np.mean(latencies))


def state_durations(
    timeline: Sequence[tuple[float, PowerState]], start: float, end: float
) -> dict[PowerState, float]:
    """Seconds spent in each state within [start, end].

    The timeline is a gapless (enter_time, state) list from t=0; the final
    state extends indefinitely.
    """
    if end <= start:
        raise MetricsError(f"empty window: [{start}, {end}]")
    durations = {state: 0.0 for state in STATE_ORDER}
    for i, (seg_start, state) in enumerate(timeline):
        seg_end = timeline[i + 1][0] if i + 1 < len(timeline) else end
        overlap = min(seg_end, end) - max(seg_start, start)
        if overlap > 0:
            durations[state] += overlap
    return durations


def state_fractions(
    timeline: Sequence[tuple[float, PowerState]], start: float, end: float
) -> dict[PowerState, float]:
    """Share of [start, end] spent in each state; the shares sum to 1."""
    width = end - start
    return {s: d / width for s, d in state_durations(timeline, start, end).items()}


class AveragePower(NamedTuple):
    total_w: float
    per_server_w: float


def compute_ap(
    timelines: Sequence[Sequence[tuple[float, PowerState]]],
    power: PowerModel,
    warmup: float,
    horizon: float,
) -> AveragePower:
    """Time-averaged power over [warmup, horizon], total and per server."""
    if horizon <= warmup:
        raise MetricsError(f"empty power window: horizon {horizon} <= warmup {warmup}")
    energy = 0.0
    for timeline in timelines:
        for state, duration in state_durations(timeline, warmup, horizon).items():
            energy += duration * power.power_in(state)
    total = energy / (horizon - warmup)
    return AveragePower(total_w=total, per_server_w=total / len(timelines))


def batch_means(samples: Sequence[float], num_batches: int = 20) -> tuple[float, float]:
    """Grand mean and 95% Student-t half-width from equal-size batches.

    Splits the series into ``num_batches`` consecutive batches of
    ``len(samples) // num_batches`` items (trailing remainder dropped).
    Raises :class:`InsufficientDataError` instead of returning NaN.
    """
    if num_batches < 2:
        raise InsufficientDataError("batch means needs at least 2 batches")
    arr = np.asarray(samples, dtype=float)
    batch_size = arr.size // num_batches
    if batch_size < 1:
        raise InsufficientDataError(
            f"{arr.size} samples cannot fill {num_batches} batches"
        )
    means = arr[: num_batches * batch_size].reshape(num_batches, batch_size).mean(axis=1)
    grand = float(means.mean())
    t = float(stats.t.ppf(0.975, num_batches - 1))
    halfwidth = t * float(means.std(ddof=1)) / math.sqrt(num_batches)
    return grand, halfwidth


def _power_window_means(
    timelines, power: PowerModel, warmup: float, horizon: float, num_batches: int
) -> np.ndarray:
    """Cluster power averaged over each of ``num_batches`` equal time windows."""
    edges = np.linspace(warmup, horizon, num_batches + 1)
    return np.array([
        compute_ap(timelines, power, float(edges[b]), float(edges[b + 1])).total_w
        for b in range(num_batches)
    ])


@dataclass(slots=True)
class RunResult:
    """Summary of one run over its metrics window.

    ``avg_latency_s`` is NaN when no request arrived after the warm-up cut
    (e.g. a deliberate zero-arrival run); confidence half-widths are None
    when the run is too short for the configured batch count.  The CI
    half-width for power is on the per-server average; multiply by
    ``num_servers`` for the cluster total.
    """

    avg_latency_s: float
    latency_ci_halfwidth: float | None
    avg_power_per_server_w: float
    total_power_w: float
    power_ci_halfwidth: float | None
    per_state_time_fraction: list[dict[str, float]]
    per_server_assignment_count: list[int]
    requests_completed: int
    virtual_time_simulated: float
    warmup_s: float
    num_servers: int

    def to_dict(self) -> dict:
        return {
            "avg_latency_s": _none_if_nan(self.avg_latency_s),
            "latency_ci_halfwidth": self.latency_ci_halfwidth,
            "avg_power_per_server_w": self.avg_power_per_server_w,
            "total_power_w": self.total_power_w,
            "power_ci_halfwidth": self.power_ci_halfwidth,
            "per_state_time_fraction": self.per_state_time_fraction,
            "per_server_assignment_count": self.per_server_assignment_count,
            "requests_completed": self.requests_completed,
            "virtual_time_simulated": self.virtual_time_simulated,
            "warmup_s": self.warmup_s,
            "num_servers": self.num_servers,
            "estimator": "finite-window batch-means approximation of the long-run averages",
        }


def _none_if_nan(x: float):
    return None if math.isnan(x) else x


def summarize(record) -> RunResult:
    """Build a :class:`RunResult` from a raw simulation record."""
    config = record.config
    warmup, horizon = config.warmup, record.horizon
    if horizon <= warmup:
        raise MetricsError(
            f"metrics window is empty: horizon {horizon} <= warmup {warmup}; "
            "lower the warmup or extend the run"
        )

    latencies = _latencies(record.requests, warmup)
    if latencies:
        avg_latency = float(np.mean(latencies))
        try:
            _, latency_ci = batch_means(latencies, config.num_batches)
        except InsufficientDataError:
            latency_ci = None
    else:
        avg_latency = math.nan
        latency_ci = None

    ap = compute_ap(record.timelines, config.power, warmup, horizon)
    window_means = _power_window_means(
        record.timelines, config.power, warmup, horizon, config.num_batches
    )
    per_server_means = window_means / config.num_servers
    t = float(stats.t.ppf(0.975, config.num_batches - 1))
    power_ci = t * float(per_server_means.std(ddof=1)) / math.sqrt(config.num_batches)

    fractions = [
        {state.value: frac for state, frac in state_fractions(tl, warmup, horizon).items()}
        for tl in record.timelines
    ]
    completed = sum(1 for req in record.requests if req.completion is not None)
    return RunResult(
        avg_latency_s=avg_latency,
        latency_ci_halfwidth=latency_ci,
        avg_power_per_server_w=ap.per_server_w,
        total_power_w=ap.total_w,
        power_ci_halfwidth=power_ci,
        per_state_time_fraction=fractions,
        per_server_assignment_count=list(record.assignment_counts),
        requests_completed=completed,
        virtual_time_simulated=horizon,
        warmup_s=warmup,
        num_servers=config.num_servers,
    )


def csv_header() -> list[str]:
    """Column names for one result row (sweep rows prepend design coordinates)."""
    return [
        "avg_latency_s",
        "latency_ci",
        "avg_power_per_server_w",
        "total_power_w",
        "power_ci",
        "requests_completed",
        "virtual_time_s",
        "frac_on",
        "frac_suspend",
        "frac_sleep",
        "frac_wakeup",
        "assignments",
    ]


def csv_row(result: RunResult) -> list[str]:
    """Flatten a result for CSV output; fractions are cluster means."""
    mean_frac = {
        state.value: sum(f[state.value] for f in result.per_state_time_fraction)
        / result.num_servers
        for state in STATE_ORDER
    }
    return [
        repr(result.avg_latency_s),
        "" if result.latency_ci_halfwidth is None else repr(result.latency_ci_halfwidth),
        repr(result.avg_power_per_server_w),
        repr(result.total_power_w),
        "" if result.power_ci_halfwidth is None else repr(result.power_ci_halfwidth),
        str(result.requests_completed),
        repr(result.virtual_time_simulated),
        repr(mean_frac["on"]),
        repr(mean_frac["suspend"]),
        repr(mean_frac["sleep"]),
        repr(mean_frac["wakeup"]),
        ";".join(str(c) for c in result.per_server_assignment_count),
    ]
