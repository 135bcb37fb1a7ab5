"""Metric-math tests: latency averaging, power integration, batch means."""

import math

import numpy as np
import pytest

from greenlb.cluster import PowerModel, Request
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
    state_fractions,
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
        fracs = state_fractions(timeline, 0.0, 60.0)
        assert sum(fracs.values()) == pytest.approx(1.0)
        assert fracs[PowerState.SLEEP] == pytest.approx(25 / 60)


class TestBatchMeans:
    def test_constant_series(self):
        mean, hw = batch_means([3.0] * 100, num_batches=20)
        assert mean == 3.0
        assert hw == 0.0

    def test_alternating_series_with_even_batches(self):
        mean, hw = batch_means([0.0, 2.0] * 20, num_batches=20)
        assert mean == 1.0
        assert hw == 0.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            batch_means([1.0] * 5, num_batches=20)
        with pytest.raises(InsufficientDataError):
            batch_means([1.0] * 100, num_batches=1)

    def test_remainder_is_dropped(self):
        mean, _ = batch_means([1.0] * 40 + [100.0], num_batches=20)
        assert mean == 1.0

    def test_iid_exponential_coverage(self):
        # 95% t-intervals over 20 batches of 5000 iid exp(1) samples should
        # cover the true mean in >= 90 of 100 seeded replications
        rng = np.random.default_rng(123)
        covered = 0
        for _ in range(100):
            samples = rng.exponential(1.0, 100_000)
            mean, hw = batch_means(samples, num_batches=20)
            if abs(mean - 1.0) <= hw:
                covered += 1
        assert covered >= 90


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

    def test_csv_row_matches_header(self):
        result = summarize(self.run_record())
        assert len(csv_row(result)) == len(csv_header())
