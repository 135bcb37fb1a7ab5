"""Cross-checks: ratio distance, trace replay vs engine, analytic queueing."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenlb.cluster import PowerModel
from greenlb.engine import SimConfig, StopCriterion, simulate
from greenlb.metrics import compute_ap
from greenlb.policy import PowerState, parse_policy
from greenlb.validation import (
    compare_tables,
    delta,
    md1_mean_latency,
    replay_oracle,
)

from helpers import assert_timeline_wellformed

POSITIVE = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestDelta:
    def test_identity(self):
        for v in (0.1, 1.0, 37.5):
            assert delta(v, v) == 0.0

    def test_simple_ratio(self):
        assert delta(1.0, 2.0) == 1.0
        assert delta(2.0, 1.0) == 1.0

    @given(POSITIVE, POSITIVE)
    def test_symmetry(self, v1, v2):
        assert delta(v1, v2) == delta(v2, v1)

    @given(POSITIVE, POSITIVE, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, v1, v2, a):
        assert delta(a * v1, a * v2) == pytest.approx(delta(v1, v2), rel=1e-9)

    @given(POSITIVE, POSITIVE)
    def test_non_negative(self, v1, v2):
        assert delta(v1, v2) >= 0.0

    def test_triangle_inequality_fails(self):
        # pinned counterexample: the distance is not a metric
        assert delta(1.0, 2.0) + delta(2.0, 3.0) < delta(1.0, 3.0)

    def test_rejects_non_positive(self):
        for bad in ((0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)):
            with pytest.raises(ValueError):
                delta(*bad)


class TestMd1:
    def test_no_queueing_limit(self):
        assert md1_mean_latency(1e-9, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_half_load(self):
        assert md1_mean_latency(0.5, 1.0) == pytest.approx(1.5)

    def test_heavy_load(self):
        assert md1_mean_latency(0.8, 1.0) == pytest.approx(3.0)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            md1_mean_latency(1.0, 1.0)
        with pytest.raises(ValueError):
            md1_mean_latency(0.0, 1.0)

    @pytest.mark.parametrize("rate", [0.3, 0.8])
    def test_always_on_simulation_matches_formula(self, rate):
        # the third stated load (0.5) is pinned in the acceptance suite
        from greenlb.metrics import summarize

        cfg = SimConfig(
            num_servers=1,
            arrival_rate=rate,
            service_time=1.0,
            power=PowerModel(timeout=math.inf),
            policy=parse_policy("0"),
            stop=StopCriterion(max_requests=1_000_000),
            warmup=500.0,
            seed=313,
            initial_state=PowerState.ON,
        )
        result = summarize(simulate(cfg))
        expected = md1_mean_latency(rate, 1.0)
        assert result.avg_latency_s == pytest.approx(expected, rel=0.02)


# Assignment fixture with the documented default constants (10 s transitions,
# service 1 s, timeout 10 s, cold start).  Latencies below were derived by
# hand from the transition rules before the oracle existed.
TRACE = [
    (0.87, 3), (0.91, 0), (1.46, 3), (2.03, 2), (3.54, 0),
    (4.68, 2), (5.42, 0), (5.52, 3), (5.66, 2), (7.26, 2),
    (9.61, 1), (10.34, 0), (12.01, 3), (13.04, 1), (13.52, 1),
]
TRACE_LATENCIES = [
    11.0, 11.0, 11.41, 11.0, 9.37,
    9.35, 8.49, 8.35, 9.37, 8.77,
    11.0, 4.57, 2.86, 8.57, 9.09,
]


class TestReplayOracle:
    def test_illustrative_trace_end_to_end(self):
        arrivals = [t for t, _ in TRACE]
        assignments = [s for _, s in TRACE]
        result = replay_oracle(arrivals, assignments, num_servers=4,
                               power=PowerModel(), service_time=1.0)
        assert result.latencies == pytest.approx(TRACE_LATENCIES, abs=1e-9)
        for timeline in result.timelines:
            assert_timeline_wellformed(timeline, PowerModel())

    def test_empty_trace_sleeps_throughout(self):
        result = replay_oracle([], [], num_servers=4, power=PowerModel(),
                               service_time=1.0, horizon=100.0)
        assert result.latencies == []
        assert result.power_integral_j == pytest.approx(4 * 14.0 * 100.0)

    def test_empty_trace_needs_horizon(self):
        with pytest.raises(ValueError):
            replay_oracle([], [], num_servers=1, power=PowerModel(), service_time=1.0)

    def test_inconsistent_traces_rejected(self):
        with pytest.raises(ValueError):
            replay_oracle([1.0], [], 1, PowerModel(), 1.0)
        with pytest.raises(ValueError):
            replay_oracle([1.0, 1.0], [0, 0], 1, PowerModel(), 1.0)
        with pytest.raises(ValueError):
            replay_oracle([1.0], [3], 2, PowerModel(), 1.0)

    def test_arrival_exactly_at_timeout_finds_suspending_server(self):
        # idle from 1.0, timeout 10: an arrival at exactly 11.0 waits for the
        # full suspend (21.0) and wakeup (31.0) before its 1 s of service
        result = replay_oracle([0.0, 11.0], [0, 0], 1, PowerModel(),
                               service_time=1.0, initial_state=PowerState.ON)
        assert result.latencies[1] == pytest.approx(21.0, abs=1e-9)

    def test_arrival_exactly_at_suspend_end_finds_sleeping_server(self):
        result = replay_oracle([0.0, 21.0], [0, 0], 1, PowerModel(),
                               service_time=1.0, initial_state=PowerState.ON)
        # wakeup starts at the arrival itself
        assert result.latencies[1] == pytest.approx(11.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_engine_agreement_on_random_traces(self, seed):
        cfg = SimConfig(
            num_servers=4,
            policy=parse_policy('-queueSize - dspace("q") * (1 - stateOn)'),
            design_params={"q": 5.0},
            stop=StopCriterion(max_requests=50),
            warmup=0.0,
            seed=seed,
        )
        record = simulate(cfg)
        arrivals = record.requests.arrival
        assignments = record.requests.server
        oracle = replay_oracle(arrivals, assignments, cfg.num_servers, cfg.power,
                               cfg.service_time, cfg.initial_state)
        engine_lat = [c - a for a, c in zip(arrivals, record.requests.completion)]
        assert oracle.latencies == engine_lat  # bit-identical
        assert oracle.horizon == record.horizon
        engine_ap = compute_ap(record.timelines, cfg.power, 0.0, record.horizon)
        engine_integral = engine_ap.total_w * record.horizon
        assert abs(engine_integral - oracle.power_integral_j) <= 1e-9 * max(
            1.0, abs(engine_integral)
        )


def rows(designs, al, ap):
    return [
        {"q": str(q), "timeout": str(to), "nd": nd,
         "avg_latency_s": repr(al[i]), "total_power_w": repr(ap[i]), "error": ""}
        for i, (q, to, nd) in enumerate(designs)
    ]


class TestCompareTables:
    DESIGNS = [(1, 10.0, "random"), (5, 10.0, "random"), (5, 10.0, "fixed_order")]

    def test_identical_tables_have_zero_distance(self):
        a = rows(self.DESIGNS, [1.0, 2.0, 3.0], [100.0, 90.0, 80.0])
        report = compare_tables(a, list(a))
        assert all(d.delta_latency == 0.0 and d.delta_power == 0.0 for d in report.designs)
        assert all(frac == 1.0 for frac in report.fraction_below["latency"].values())

    def test_replications_average_before_comparison(self):
        a = rows(self.DESIGNS[:1] * 2, [1.0, 3.0], [100.0, 100.0])
        b = rows(self.DESIGNS[:1], [2.0], [100.0])
        report = compare_tables(a, b)
        assert report.designs[0].delta_latency == 0.0

    def test_threshold_fractions(self):
        a = rows(self.DESIGNS, [1.0, 1.0, 1.0], [100.0, 100.0, 100.0])
        b = rows(self.DESIGNS, [1.05, 1.12, 1.5], [100.0, 100.0, 100.0])
        report = compare_tables(a, b)
        below = report.fraction_below["latency"]
        assert below[0.06] == pytest.approx(1 / 3)
        assert below[0.13] == pytest.approx(2 / 3)
        assert below[0.3] == pytest.approx(2 / 3)
        assert report.fraction_below["power"][0.06] == 1.0

    def test_error_rows_are_skipped(self):
        a = rows(self.DESIGNS, [1.0, 2.0, 3.0], [100.0, 90.0, 80.0])
        b = [dict(r) for r in a]
        b[1]["error"] = "boom"
        report = compare_tables(a, b)
        assert len(report.designs) == 2

    def test_disjoint_tables_rejected(self):
        a = rows(self.DESIGNS[:1], [1.0], [100.0])
        b = rows(self.DESIGNS[2:], [1.0], [100.0])
        with pytest.raises(ValueError):
            compare_tables(a, b)
