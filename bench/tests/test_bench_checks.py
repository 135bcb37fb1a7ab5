"""The benchmark's own checks reject corrupted results.

Every case uses a small hand-made record or result; nothing here runs a
long simulation.  Run with ``python3 -m pytest bench/tests``.
"""

import json
import math
from dataclasses import replace

from greenlb.cluster import PowerModel, Request
from greenlb.design import Design, SweepRow
from greenlb.engine import SimConfig, SimulationRecord, StopCriterion
from greenlb.metrics import RunResult, summarize
from greenlb.policy import NdResolution, PowerState

import checks
import run
import worker
import workloads

ON_ALL_WINDOW = {"on": 1.0, "suspend": 0.0, "sleep": 0.0, "wakeup": 0.0}


def tiny_record():
    """Two always-on servers and three requests; the third queues behind the first."""
    cfg = SimConfig(num_servers=2, power=PowerModel(timeout=math.inf),
                    initial_state=PowerState.ON, warmup=0.0,
                    stop=StopCriterion(max_requests=3))
    requests = [
        Request(arrival_time=arrival, index=i, assigned_server=server,
                service_start=start, completion=start + 1.0)
        for i, (arrival, server, start) in enumerate([(0.5, 0, 0.5), (0.7, 1, 0.7),
                                                      (1.0, 0, 1.5)])
    ]
    return SimulationRecord(config=cfg, requests=requests,
                            timelines=[[(0.0, PowerState.ON)], [(0.0, PowerState.ON)]],
                            horizon=2.5, assignment_counts=[2, 1])


def md1_config():
    return SimConfig(num_servers=1, arrival_rate=0.5, service_time=1.0,
                     power=PowerModel(timeout=math.inf), initial_state=PowerState.ON,
                     stop=StopCriterion(max_requests=10))


def result(**overrides):
    """A single-server result that passes every check as it stands."""
    good = RunResult(
        avg_latency_s=1.5, latency_ci_halfwidth=0.01, avg_power_per_server_w=200.0,
        total_power_w=200.0, power_ci_halfwidth=0.0,
        per_state_time_fraction=[dict(ON_ALL_WINDOW)], per_server_assignment_count=[10],
        requests_completed=10, virtual_time_simulated=100.0, warmup_s=0.0, num_servers=1,
    )
    return replace(good, **overrides)


def row(q=1, timeout=1.0, nd=NdResolution.RANDOM_FRACTION, **fields):
    fields.setdefault("result", result())
    return SweepRow(design_index=0, design=Design(q=q, timeout=timeout, nd=nd),
                    replication=0, seed=1, **fields)


def test_oracle_accepts_a_consistent_record():
    record = tiny_record()
    assert checks.oracle_problems(record, summarize(record)) == []


def test_oracle_rejects_one_latency_one_ulp_off():
    record = tiny_record()
    res = summarize(record)
    record.requests[2].completion = math.nextafter(2.5, math.inf)
    assert any("latencies differ" in p for p in checks.oracle_problems(record, res))


def test_oracle_rejects_al_one_ulp_off():
    record = tiny_record()
    res = summarize(record)
    res.avg_latency_s = math.nextafter(res.avg_latency_s, 0.0)
    assert any("oracle's mean" in p for p in checks.oracle_problems(record, res))


def test_md1_accepts_the_exact_mean_and_one_ulp_of_power():
    assert checks.md1_problems(result(), md1_config()) == []
    one_ulp_up = math.nextafter(200.0, math.inf)
    assert checks.md1_problems(result(avg_power_per_server_w=one_ulp_up), md1_config()) == []


def test_md1_rejects_an_ap_of_201_w():
    assert checks.md1_problems(result(avg_power_per_server_w=201.0), md1_config())


def test_md1_rejects_a_mean_latency_off_the_formula():
    assert checks.md1_problems(result(avg_latency_s=1.6), md1_config())


def test_row_accepts_a_good_row():
    assert checks.row_problems(row(), SimConfig()) == []


def test_row_rejects_an_ap_of_201_w():
    problems = checks.row_problems(row(result=result(avg_power_per_server_w=201.0)),
                                   SimConfig())
    assert any("outside" in p for p in problems)


def test_row_rejects_a_row_that_carries_an_error():
    problems = checks.row_problems(row(result=None, error="SimulationError: boom"),
                                   SimConfig())
    assert problems == ["run failed: SimulationError: boom"]


def test_row_rejects_fractions_that_do_not_sum_to_one():
    fractions = [dict(ON_ALL_WINDOW, sleep=0.001)]
    assert checks.row_problems(row(result=result(per_state_time_fraction=fractions)),
                               SimConfig())


def test_tradeoff_accepts_power_falling_with_q():
    rows = [row(q=1, result=result(avg_power_per_server_w=190.0)),
            row(q=100, result=result(avg_power_per_server_w=80.0))]
    assert checks.tradeoff_problems(rows, (1.0,)) == []


def test_tradeoff_rejects_a_slice_where_q100_is_not_below_q1():
    rows = [row(q=1, result=result(avg_power_per_server_w=150.0)),
            row(q=100, result=result(avg_power_per_server_w=150.0))]
    assert any("not below" in p for p in checks.tradeoff_problems(rows, (1.0,)))


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert all((run.BENCH / "configs" / f"{w}.yaml").is_file() for w in run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "setup_s": "s", **worker.END_TO_END_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER_UNITS
