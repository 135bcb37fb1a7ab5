"""Run metrics: average latency, average power, and batch-means intervals.

Both headline numbers are long-run averages approximated over a finite
window ``[warmup, horizon]``:

* average latency: mean completion-minus-arrival time over requests that
  arrive after the warm-up cut, taken by array arithmetic on the columns of
  the run's :class:`~greenlb.cluster.RequestLog` (a hand-made list of
  requests is turned into those columns first);
* average power: time integral of the per-state power draw over the window,
  reported per server and as the cluster total.

The time-in-state integral is one walk over each timeline against sorted
window edges (:func:`window_durations`); the metrics window, the power batch
windows and the state fractions are all read from such walks.

Confidence intervals come from the batch means method over :data:`BATCHES`
batches, Student-t at 95%: the latency CI over 20 equal-size batches of
latencies, the power CI over 20 equal time windows.  The batch count is part
of the estimator, as the 95% level is, so its t quantile is one constant.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cluster import PowerModel, Request, RequestLog
from .policy import PowerState

__all__ = [
    "MetricsError",
    "EmptySampleError",
    "InsufficientDataError",
    "AveragePower",
    "RunResult",
    "compute_al",
    "window_durations",
    "compute_ap",
    "batch_means",
    "summarize",
    "csv_header",
    "csv_row",
]

STATE_ORDER = (PowerState.ON, PowerState.SUSPEND, PowerState.SLEEP, PowerState.WAKEUP)
Timeline = Sequence[tuple[float, PowerState]]  # gapless (enter_time, state) from t=0

BATCHES = 20
# the 0.975 quantile of Student's t at BATCHES - 1 = 19 degrees of freedom:
# scipy.stats.t.ppf(0.975, 19), the same float as scipy.special.stdtrit(19, 0.975)
T_QUANTILE = 2.0930240544083087


class MetricsError(ValueError):
    """A metric could not be computed from the given window or data."""


class EmptySampleError(MetricsError):
    """No post-warmup completions to average."""


class InsufficientDataError(MetricsError):
    """Too few samples to fill the batches."""


def _latencies(requests: Sequence[Request], warmup: float) -> tuple[np.ndarray, int]:
    """Latencies of the completed requests arriving at or after the warm-up cut,
    in arrival order, and the number of completed requests."""
    log = requests if isinstance(requests, RequestLog) else RequestLog.from_requests(requests)
    arrival = np.frombuffer(log.arrival)
    completion = np.frombuffer(log.completion)
    completed = ~np.isnan(completion)
    keep = completed & (arrival >= warmup)
    return completion[keep] - arrival[keep], int(np.count_nonzero(completed))


def compute_al(requests: Sequence[Request], warmup: float) -> float:
    """Average latency over requests arriving at or after the warm-up cut."""
    latencies, _ = _latencies(requests, warmup)
    if not latencies.size:
        raise EmptySampleError("no completed requests arrived after the warm-up cut")
    return float(np.mean(latencies))


def window_durations(
    timeline: Timeline, edges: Sequence[float]
) -> list[dict[PowerState, float]]:
    """Seconds spent in each state within each window [edges[k], edges[k+1]].

    ``edges`` is sorted; the final state extends indefinitely and an empty
    window gets zeros.  One pass over the segments with a pointer into the
    edges: each window adds the same overlaps, in the same order, as a walk
    over that window alone.
    """
    windows = [dict.fromkeys(STATE_ORDER, 0.0) for _ in edges[1:]]
    first = 0  # windows before it end at or before the current segment's start
    for i, (seg_start, state) in enumerate(timeline):
        seg_end = timeline[i + 1][0] if i + 1 < len(timeline) else math.inf
        while first < len(windows) and edges[first + 1] <= seg_start:
            first += 1
        k = first
        while k < len(windows) and edges[k] < seg_end:
            overlap = min(seg_end, edges[k + 1]) - max(seg_start, edges[k])
            if overlap > 0:
                windows[k][state] += overlap
            k += 1
    return windows


class AveragePower(NamedTuple):
    total_w: float
    per_server_w: float


def _average_power(durations, power: PowerModel, start: float, end: float) -> AveragePower:
    """Power averaged over [start, end], from each server's seconds per state in it."""
    if end <= start:
        raise MetricsError(f"empty power window: horizon {end} <= warmup {start}")
    energy = 0.0
    for server in durations:
        for state, seconds in server.items():
            energy += seconds * power.power_in(state)
    total = energy / (end - start)
    return AveragePower(total_w=total, per_server_w=total / len(durations))


def compute_ap(
    timelines: Sequence[Timeline], power: PowerModel, warmup: float, horizon: float
) -> AveragePower:
    """Time-averaged power over [warmup, horizon], total and per server."""
    durations = [window_durations(tl, (warmup, horizon))[0] for tl in timelines]
    return _average_power(durations, power, warmup, horizon)


def batch_means(samples: Sequence[float]) -> tuple[float, float]:
    """Grand mean and 95% Student-t half-width from :data:`BATCHES` equal-size batches.

    Splits the series into consecutive batches of ``len(samples) // BATCHES``
    items (trailing remainder dropped).
    Raises :class:`InsufficientDataError` instead of returning NaN.
    """
    arr = np.asarray(samples, dtype=float)
    batch_size = arr.size // BATCHES
    if batch_size < 1:
        raise InsufficientDataError(f"{arr.size} samples cannot fill {BATCHES} batches")
    means = arr[: BATCHES * batch_size].reshape(BATCHES, batch_size).mean(axis=1)
    return float(means.mean()), _t_halfwidth(means)


def _t_halfwidth(means: np.ndarray) -> float:
    """95% Student-t half-width of the mean of :data:`BATCHES` batch means."""
    return T_QUANTILE * float(means.std(ddof=1)) / math.sqrt(BATCHES)


@dataclass(slots=True)
class RunResult:
    """Summary of one run over its metrics window.

    ``avg_latency_s`` is NaN when no request arrived after the warm-up cut
    (e.g. a deliberate zero-arrival run); the latency CI half-width is None
    when the run is too short for 20 batches (fewer than 20 post-warm-up
    latencies).  The CI half-width for power is on the per-server average;
    multiply by ``num_servers`` for the cluster total.
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
        """The JSON form: the fields in order, NaN latency as None, plus the estimator note."""
        out = asdict(self)
        if math.isnan(self.avg_latency_s):
            out["avg_latency_s"] = None
        out["estimator"] = "finite-window batch-means approximation of the long-run averages"
        return out


def summarize(record) -> RunResult:
    """Build a :class:`RunResult` from a raw simulation record."""
    config = record.config
    warmup, horizon = config.warmup, record.horizon
    if horizon <= warmup:
        raise MetricsError(
            f"metrics window is empty: horizon {horizon} <= warmup {warmup}; "
            "lower the warmup or extend the run"
        )

    latencies, completed = _latencies(record.requests, warmup)
    if latencies.size:
        avg_latency = float(np.mean(latencies))
        try:
            _, latency_ci = batch_means(latencies)
        except InsufficientDataError:
            latency_ci = None
    else:
        avg_latency = math.nan
        latency_ci = None

    # two walks per timeline: the metrics window, then the power batch windows
    durations = [window_durations(tl, (warmup, horizon))[0] for tl in record.timelines]
    ap = _average_power(durations, config.power, warmup, horizon)
    edges = np.linspace(warmup, horizon, BATCHES + 1).tolist()
    batches = [window_durations(tl, edges) for tl in record.timelines]
    window_means = np.array([
        _average_power([b[k] for b in batches], config.power, edges[k], edges[k + 1]).total_w
        for k in range(BATCHES)
    ])
    power_ci = _t_halfwidth(window_means / config.num_servers)

    width = horizon - warmup
    fractions = [{s.value: seconds / width for s, seconds in d.items()} for d in durations]
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


def _optional(halfwidth: float | None) -> str:
    return "" if halfwidth is None else repr(halfwidth)


def _mean_fraction(state: str, result: RunResult) -> str:
    return repr(sum(f[state] for f in result.per_state_time_fraction) / result.num_servers)


# One result row, in column order: (name, formatter).  Fractions are cluster means.
_CSV_COLUMNS: tuple[tuple[str, Callable[[RunResult], str]], ...] = (
    ("avg_latency_s", lambda r: repr(r.avg_latency_s)),
    ("latency_ci", lambda r: _optional(r.latency_ci_halfwidth)),
    ("avg_power_per_server_w", lambda r: repr(r.avg_power_per_server_w)),
    ("total_power_w", lambda r: repr(r.total_power_w)),
    ("power_ci", lambda r: _optional(r.power_ci_halfwidth)),
    ("requests_completed", lambda r: str(r.requests_completed)),
    ("virtual_time_s", lambda r: repr(r.virtual_time_simulated)),
    *((f"frac_{s.value}", partial(_mean_fraction, s.value)) for s in STATE_ORDER),
    ("assignments", lambda r: ";".join(map(str, r.per_server_assignment_count))),
)


def csv_header() -> list[str]:
    """Column names for one result row (sweep rows prepend design coordinates)."""
    return [name for name, _ in _CSV_COLUMNS]


def csv_row(result: RunResult) -> list[str]:
    """Flatten a result for CSV output, one string per :func:`csv_header` column."""
    return [column(result) for _, column in _CSV_COLUMNS]
