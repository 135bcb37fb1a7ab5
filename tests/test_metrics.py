"""Metric-math tests: latency averaging, power integration, batch means."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from greenlb import metrics
from greenlb.cluster import PowerModel, Request, RequestLog
from greenlb.design import results_csv_header
from greenlb.engine import SimConfig, StopCriterion, simulate
from greenlb.metrics import (
    summarize,
    EmptySampleError,
    InsufficientDataError,
    MetricsError,
    batch_means,
    compute_al,
    compute_ap,
    csv_header,
    csv_row,
    window_durations,
)
from greenlb.policy import PowerState, parse_policy


def req(arrival, completion, index=0):
    return Request(arrival_time=arrival, index=index, completion=completion)


class TestAverageLatency:
    def test_single_request_pure_service(self):
        assert compute_al([req(0.5, 1.5)], warmup=0.0) == 1.0

    def test_single_request_with_wakeup(self):
        # 10 s wakeup plus 1 s service
        assert compute_al([req(2.0, 13.0)], warmup=0.0) == 11.0

    def test_fifo_pair(self):
        # arrivals 0 and 0.5 on one busy server: latencies 1.0 and 1.5
        requests = [req(0.0, 1.0, 0), req(0.5, 2.0, 1)]
        assert compute_al(requests, warmup=0.0) == 1.25

    def test_warmup_filters_on_arrival_time(self):
        requests = [req(1.0, 2.0, 0), req(11.0, 12.5, 1)]
        assert compute_al(requests, warmup=10.0) == 1.5

    def test_empty_sample_is_an_error(self):
        with pytest.raises(EmptySampleError):
            compute_al([req(1.0, 2.0)], warmup=10.0)


SLEEP_ONLY = [(0.0, PowerState.SLEEP)]


class TestAveragePower:
    def test_all_sleeping(self):
        ap = compute_ap([SLEEP_ONLY] * 4, PowerModel(), warmup=0.0, horizon=100.0)
        assert ap.per_server_w == 14.0
        assert ap.total_w == 56.0

    def test_half_on_half_sleep(self):
        timeline = [(0.0, PowerState.ON), (5.0, PowerState.SLEEP)]
        ap = compute_ap([timeline], PowerModel(), warmup=0.0, horizon=10.0)
        assert ap.per_server_w == pytest.approx(107.0)

    def test_idle_forever_limit(self):
        for horizon in (10.0, 1e4, 1e8):
            ap = compute_ap([SLEEP_ONLY], PowerModel(), warmup=0.0, horizon=horizon)
            assert ap.per_server_w == 14.0

    def test_window_clipping(self):
        timeline = [(0.0, PowerState.ON), (5.0, PowerState.SLEEP), (8.0, PowerState.WAKEUP)]
        ap = compute_ap([timeline], PowerModel(), warmup=4.0, horizon=6.0)
        # [4,5] on at 200 plus [5,6] sleep at 14
        assert ap.per_server_w == pytest.approx((200.0 + 14.0) / 2)

    def test_empty_window_is_an_error(self):
        with pytest.raises(MetricsError):
            compute_ap([SLEEP_ONLY], PowerModel(), warmup=5.0, horizon=5.0)

    def test_fractions_sum_to_one(self):
        timeline = [(0.0, PowerState.ON), (5.0, PowerState.SUSPEND),
                    (15.0, PowerState.SLEEP), (40.0, PowerState.WAKEUP),
                    (50.0, PowerState.ON)]
        fracs = {s: d / 60.0 for s, d in window_durations(timeline, (0.0, 60.0))[0].items()}
        assert sum(fracs.values()) == pytest.approx(1.0)
        assert fracs[PowerState.SLEEP] == pytest.approx(25 / 60)


def walk_one_window(timeline, start, end):
    """Reference: the single-window loop ``window_durations`` replaced, one
    full pass over the timeline per window.  It has no empty-window guard, so
    an empty window gets zeros here too."""
    durations = {state: 0.0 for state in metrics.STATE_ORDER}
    for i, (seg_start, state) in enumerate(timeline):
        seg_end = timeline[i + 1][0] if i + 1 < len(timeline) else end
        overlap = min(seg_end, end) - max(seg_start, start)
        if overlap > 0:
            durations[state] += overlap
    return durations


# Transition times on a coarse grid repeat (zero-length segments) and edges
# drawn from the same grid land on segment starts and on each other (equal
# edges); edges run from before t=0 to past the last transition.
GRID = st.integers(min_value=-4, max_value=48).map(lambda i: i * 0.25)
TIMES = st.one_of(GRID.filter(lambda t: t >= 0), st.floats(0.0, 12.0))
EDGES = st.one_of(GRID, st.floats(-1.0, 14.0))


@st.composite
def timelines(draw):
    times = sorted(draw(st.lists(TIMES, max_size=12)))
    states = draw(st.lists(st.sampled_from(metrics.STATE_ORDER),
                           min_size=len(times) + 1, max_size=len(times) + 1))
    return list(zip([0.0, *times], states))


SLEEP_THEN_ON = [(0.0, PowerState.SLEEP), (3.0, PowerState.WAKEUP),
                 (3.0, PowerState.ON), (8.0, PowerState.SUSPEND)]


class TestWindowDurations:
    @given(timelines(), st.lists(EDGES, min_size=2, max_size=12).map(sorted))
    @example(SLEEP_THEN_ON, [0.0, 1.0, 2.0])  # windows before the first transition
    @example(SLEEP_THEN_ON, [3.0, 3.0, 5.0, 8.0])  # edges on segment starts, equal edges
    @example(SLEEP_THEN_ON, [9.0, 10.0, 12.5])  # windows after the last transition
    @example(SLEEP_THEN_ON, [-2.0, -1.0, 20.0])  # a window before t=0
    @example([(0.0, PowerState.ON)], [0.0, 1e-300, 5.0])
    def test_each_window_equals_a_walk_over_it_alone(self, timeline, edges):
        windows = window_durations(timeline, edges)
        assert len(windows) == len(edges) - 1
        for k, got in enumerate(windows):
            assert repr(got) == repr(walk_one_window(timeline, edges[k], edges[k + 1]))

    def test_empty_window_gets_zeros(self):
        windows = window_durations(SLEEP_THEN_ON, [3.0, 3.0])
        assert windows == [{state: 0.0 for state in metrics.STATE_ORDER}]


class TestBatchMeans:
    def test_constant_series(self):
        mean, hw = batch_means([3.0] * 100)
        assert mean == 3.0
        assert hw == 0.0

    def test_alternating_series_with_even_batches(self):
        mean, hw = batch_means([0.0, 2.0] * 20)
        assert mean == 1.0
        assert hw == 0.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            batch_means([1.0] * 5)

    def test_remainder_is_dropped(self):
        mean, _ = batch_means([1.0] * 40 + [100.0])
        assert mean == 1.0

    def test_iid_exponential_coverage(self):
        # 95% t-intervals over 20 batches of 5000 iid exp(1) samples should
        # cover the true mean in >= 90 of 100 seeded replications
        rng = np.random.default_rng(123)
        covered = 0
        for _ in range(100):
            samples = rng.exponential(1.0, 100_000)
            mean, hw = batch_means(samples)
            if abs(mean - 1.0) <= hw:
                covered += 1
        assert covered >= 90


class TestStudentTQuantile:
    def test_t_quantile_is_stats_t_ppf(self):
        # the literal must be the very float scipy.stats.t.ppf returns, so CI
        # half-widths keep their repr
        assert repr(metrics.T_QUANTILE) == repr(float(stats.t.ppf(0.975, metrics.BATCHES - 1)))

    def test_import_loads_no_scipy(self):
        # a fresh interpreter: this pytest process has scipy loaded already
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "import greenlb, greenlb.config, greenlb.cli\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestSummarize:
    def run_record(self, **kw):
        defaults = dict(
            num_servers=4,
            policy=parse_policy('-queueSize - dspace("q") * (1 - stateOn)'),
            design_params={"q": 5.0},
            stop=StopCriterion(max_requests=300),
            warmup=20.0,
            seed=5,
        )
        defaults.update(kw)
        return simulate(SimConfig(**defaults))

    def test_result_invariants(self):
        record = self.run_record()
        result = summarize(record)
        assert result.avg_latency_s >= record.config.service_time
        assert 14.0 <= result.avg_power_per_server_w <= 200.0
        assert result.total_power_w == pytest.approx(4 * result.avg_power_per_server_w)
        for fracs in result.per_state_time_fraction:
            assert sum(fracs.values()) == pytest.approx(1.0)
        assert result.requests_completed == 300
        assert sum(result.per_server_assignment_count) == 300

    def test_fraction_power_dot_product_matches_ap(self):
        record = self.run_record()
        result = summarize(record)
        power = record.config.power
        watts = {"on": power.p_on, "suspend": power.p_suspend,
                 "sleep": power.p_sleep, "wakeup": power.p_wakeup}
        per_server = [
            sum(frac * watts[state] for state, frac in fracs.items())
            for fracs in result.per_state_time_fraction
        ]
        assert np.mean(per_server) == pytest.approx(result.avg_power_per_server_w, abs=1e-9)

    def test_al_matches_trace_recomputation(self):
        record = self.run_record()
        result = summarize(record)
        warmup = record.config.warmup
        latencies = [r.completion - r.arrival_time
                     for r in record.requests if r.arrival_time >= warmup]
        assert result.avg_latency_s == pytest.approx(np.mean(latencies))

    def test_compute_al_equals_summarized_latency(self):
        record = self.run_record()
        assert compute_al(record.requests, record.config.warmup) == \
            summarize(record).avg_latency_s

    def test_zero_arrival_run_reports_nan_latency(self):
        record = self.run_record(stop=StopCriterion(max_requests=0, max_virtual_time=200.0),
                                 warmup=50.0)
        result = summarize(record)
        assert math.isnan(result.avg_latency_s)
        assert result.avg_power_per_server_w == 14.0
        assert result.power_ci_halfwidth == 0.0
        assert result.to_dict()["avg_latency_s"] is None

    def test_window_error_when_horizon_before_warmup(self):
        record = self.run_record(stop=StopCriterion(max_requests=3), warmup=500.0)
        with pytest.raises(MetricsError):
            summarize(record)

    def test_ap_equals_compute_ap_bit_for_bit(self):
        record = self.run_record(power=PowerModel(timeout=1.0))
        result = summarize(record)
        ap = compute_ap(record.timelines, record.config.power, record.config.warmup,
                        record.horizon)
        assert (result.total_power_w, result.avg_power_per_server_w) == ap

    def test_power_ci_is_the_t_halfwidth_of_single_window_powers(self):
        record = self.run_record(power=PowerModel(timeout=1.0))
        config = record.config
        edges = np.linspace(config.warmup, record.horizon, metrics.BATCHES + 1)
        window_power = [
            compute_ap(record.timelines, config.power, float(edges[k]), float(edges[k + 1]))
            .total_w / config.num_servers
            for k in range(metrics.BATCHES)
        ]
        assert summarize(record).power_ci_halfwidth == \
            metrics._t_halfwidth(np.array(window_power))

    def test_zero_width_batch_window_is_an_error(self):
        # the horizon is one ulp past the warm-up, so linspace repeats an edge
        record = self.run_record(
            stop=StopCriterion(max_requests=10**6, max_virtual_time=math.nextafter(500, math.inf)),
            warmup=500.0)
        with pytest.raises(MetricsError, match="empty power window"):
            summarize(record)

    def test_walks_each_timeline_twice(self, monkeypatch):
        calls = []

        def counted(timeline, edges):
            calls.append(len(edges) - 1)
            return window_durations(timeline, edges)

        monkeypatch.setattr(metrics, "window_durations", counted)
        summarize(self.run_record())
        # the metrics window once, the 20 power batch windows once
        assert sorted(calls) == [1] * 4 + [20] * 4

    def test_csv_row_matches_header(self):
        result = summarize(self.run_record())
        assert len(csv_row(result)) == len(csv_header())
        # the sweep header is the one README's "Output schemas" documents
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Output schemas")[1].split("```text\n")[1].split("```")[0]
        assert results_csv_header() == "".join(block.split()).split(",")
        assert list(result.to_dict()) == [
            "avg_latency_s", "latency_ci_halfwidth", "avg_power_per_server_w",
            "total_power_w", "power_ci_halfwidth", "per_state_time_fraction",
            "per_server_assignment_count", "requests_completed", "virtual_time_simulated",
            "warmup_s", "num_servers", "estimator",
        ]
        zero = summarize(self.run_record(
            stop=StopCriterion(max_requests=0, max_virtual_time=200.0), warmup=50.0))
        assert csv_row(zero) == ["nan", "", "14.0", "56.0", "0.0", "0", "200.0",
                                 "0.0", "0.0", "1.0", "0.0", "0;0;0;0"]


def loop_latencies(requests, warmup):
    """The per-request loop the columnar latency path replaced, as the reference."""
    return [r.completion - r.arrival_time for r in requests
            if r.arrival_time >= warmup and r.completion is not None]


class TestRequestLog:
    def record(self):
        return simulate(SimConfig(
            num_servers=4, policy=parse_policy('-queueSize - dspace("q") * (1 - stateOn)'),
            design_params={"q": 5.0}, power=PowerModel(timeout=1.0),
            stop=StopCriterion(max_requests=2000), warmup=100.0, seed=7))

    def test_summarize_of_the_log_equals_summarize_of_a_hand_made_list(self):
        record = self.record()
        log = record.requests
        hand_made = [Request(arrival_time=a, index=i, assigned_server=s, completion=c)
                     for i, (a, s, c) in enumerate(zip(log.arrival, log.server, log.completion))]
        result = summarize(record)
        assert repr(result) == repr(summarize(replace(record, requests=hand_made)))
        reference = loop_latencies(hand_made, record.config.warmup)
        assert result.avg_latency_s == float(np.mean(reference))
        assert result.latency_ci_halfwidth == batch_means(reference)[1]
        assert result.requests_completed == 2000

    def test_incomplete_requests_are_left_out(self):
        requests = [req(0.0, 1.0, 0), req(5.0, None, 1), req(6.0, 8.5, 2), req(7.0, None, 3)]
        assert compute_al(requests, warmup=0.0) == \
            float(np.mean(loop_latencies(requests, 0.0))) == 1.75
        assert list(RequestLog.from_requests(requests)) == requests

    def test_items_are_built_from_the_columns(self):
        record = self.record()
        log = record.requests
        assert [(r.arrival_time, r.assigned_server, r.completion, r.service_start)
                for r in log] == [(a, s, c, None) for a, s, c
                                  in zip(log.arrival, log.server, log.completion)]
        assert [r.index for r in log] == list(range(2000))

    def test_markers_read_back_as_none(self):
        log = RequestLog([0.5, 1.0, 2.0], [0, 1, -1], [1.5, math.nan, math.nan])
        assert log[0] == Request(0.5, 0, assigned_server=0, completion=1.5)
        assert log[1] == Request(1.0, 1, assigned_server=1, completion=None)
        assert log[2] == Request(2.0, 2, assigned_server=None, completion=None)

    def test_behaves_like_a_list(self):
        log = RequestLog([0.5, 1.0, 2.0], [0, 1, -1], [1.5, math.nan, math.nan])
        as_list = [log[0], log[1], log[2]]
        assert len(log) == 3 and list(log) == as_list
        assert log[-1] == as_list[-1] and log[-3] == as_list[-3]
        assert log[-1].index == 2
        assert log[1:] == as_list[1:] and log[::-2] == as_list[::-2]
        for bad in (3, -4):
            with pytest.raises(IndexError):
                log[bad]
        assert len(RequestLog()) == 0 and list(RequestLog()) == []

