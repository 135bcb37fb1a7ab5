"""Design-space enumeration and sweep determinism tests."""

import io
import math

import pytest

from greenlb.design import (
    DEFAULT_Q_VALUES,
    DEFAULT_TIMEOUT_VALUES,
    Design,
    DesignSpace,
    derive_seed,
    enumerate_designs,
    run_sweep,
    write_results_csv,
)
from greenlb.engine import SimConfig, StopCriterion
from greenlb.policy import NdResolution, parse_policy

RANDOM = NdResolution.RANDOM_FRACTION
FIXED = NdResolution.FIXED_ORDER


def base_config(**kw):
    defaults = dict(
        num_servers=4,
        arrival_rate=1.0,
        service_time=1.0,
        policy=parse_policy('-queueSize - dspace("q") * (1 - stateOn)'),
        stop=StopCriterion(max_requests=80),
        warmup=0.0,
        seed=9,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestEnumeration:
    def test_default_space_has_234_designs(self):
        assert len(enumerate_designs(DesignSpace())) == 13 * 9 * 2
        assert len(DEFAULT_Q_VALUES) == 13
        assert len(DEFAULT_TIMEOUT_VALUES) == 9

    def test_example_design_appears_exactly_once(self):
        designs = enumerate_designs(DesignSpace())
        assert designs.count(Design(q=5, timeout=10.0, nd=RANDOM)) == 1

    def test_singleton_space(self):
        space = DesignSpace(q_values=[5], timeout_values=[10.0], nd_values=[RANDOM])
        assert enumerate_designs(space) == [Design(5, 10.0, RANDOM)]

    def test_documented_order(self):
        space = DesignSpace(q_values=[1, 2], timeout_values=[1.0],
                            nd_values=[RANDOM, FIXED])
        assert enumerate_designs(space) == [
            Design(1, 1.0, RANDOM),
            Design(1, 1.0, FIXED),
            Design(2, 1.0, RANDOM),
            Design(2, 1.0, FIXED),
        ]

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError):
            enumerate_designs(DesignSpace(q_values=[]))
        with pytest.raises(ValueError):
            DesignSpace(replications=0).validate()

    def test_design_validation(self):
        with pytest.raises(ValueError):
            Design(q=-1, timeout=1.0, nd=RANDOM)
        with pytest.raises(ValueError):
            Design(q=math.nan, timeout=1.0, nd=RANDOM)
        with pytest.raises(ValueError):
            Design(q=1, timeout=0.0, nd=RANDOM)


class TestSeeds:
    def test_deterministic(self):
        d = Design(5, 10.0, RANDOM)
        assert derive_seed(1, d, 0) == derive_seed(1, d, 0)

    def test_keys_change_the_seed(self):
        d = Design(5, 10.0, RANDOM)
        seeds = {
            derive_seed(1, d, 0),
            derive_seed(2, d, 0),
            derive_seed(1, d, 1),
            derive_seed(1, Design(7, 10.0, RANDOM), 0),
            derive_seed(1, Design(5, 15.0, RANDOM), 0),
            derive_seed(1, Design(5, 10.0, FIXED), 0),
        }
        assert len(seeds) == 6


def sweep_csv(rows):
    buf = io.StringIO()
    write_results_csv(rows, buf)
    return buf.getvalue()


class TestSweep:
    SPACE = DesignSpace(q_values=[1, 5], timeout_values=[2.0],
                        nd_values=[RANDOM, FIXED], replications=2)

    def test_jobs_do_not_change_output(self):
        serial = run_sweep(self.SPACE, base_config(), jobs=1)
        parallel = run_sweep(self.SPACE, base_config(), jobs=2)
        assert sweep_csv(serial) == sweep_csv(parallel)

    def test_row_count_and_order(self):
        rows = run_sweep(self.SPACE, base_config(), jobs=1)
        assert len(rows) == 4 * 2
        keys = [(r.design_index, r.replication) for r in rows]
        assert keys == sorted(keys)

    def test_design_result_survives_reordering(self):
        wide = DesignSpace(q_values=[1, 5], timeout_values=[2.0],
                           nd_values=[RANDOM], replications=1)
        narrow = DesignSpace(q_values=[5, 1], timeout_values=[2.0],
                             nd_values=[RANDOM], replications=1)
        by_design_a = {r.design: r for r in run_sweep(wide, base_config(), jobs=1)}
        by_design_b = {r.design: r for r in run_sweep(narrow, base_config(), jobs=1)}
        for design, row in by_design_a.items():
            other = by_design_b[design]
            assert row.seed == other.seed
            assert row.result.avg_latency_s == other.result.avg_latency_s
            assert row.result.total_power_w == other.result.total_power_w

    def test_failed_designs_emit_error_rows(self):
        cfg = base_config(policy=parse_policy('dspace("undefined")'))
        rows = run_sweep(DesignSpace(q_values=[1], timeout_values=[2.0],
                                     nd_values=[RANDOM], replications=1),
                         cfg, jobs=1)
        (row,) = rows
        assert row.result is None
        assert "undefined" in row.error
        text = sweep_csv(rows)
        assert "undefined" in text

    def test_base_config_is_not_mutated(self):
        cfg = base_config()
        run_sweep(DesignSpace(q_values=[3], timeout_values=[4.0],
                              nd_values=[FIXED], replications=1), cfg, jobs=1)
        assert cfg.power.timeout == 10.0
        assert "q" not in cfg.design_params
        assert cfg.nd is RANDOM

    def test_near_idle_power_approaches_sleep_floor(self):
        # with ~1000 s between requests each one wakes a sleeping server and
        # pays wakeup + service + timeout + suspend at full power, so
        # AP/server ~ p_sleep + rate * chain * (p_on - p_sleep) / n
        cfg = base_config(arrival_rate=0.001, warmup=500.0,
                          stop=StopCriterion(max_requests=250))
        space = DesignSpace(q_values=[1], timeout_values=[1.0],
                            nd_values=[RANDOM], replications=1)
        (row,) = run_sweep(space, cfg, jobs=1)
        ap = row.result.avg_power_per_server_w
        chain = 10.0 + 1.0 + 1.0 + 10.0  # wakeup + service + timeout + suspend
        expected = 14.0 + 0.001 * chain * (200.0 - 14.0) / 4
        assert ap == pytest.approx(expected, abs=0.3)
        assert 14.0 < ap < 15.5
