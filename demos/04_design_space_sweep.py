"""Sweeping the (q, timeout, nd) design space.

Every design is one load-balancer configuration: the queue threshold q that
gates switching servers on, the idle timeout before suspending, and the tie
resolution mode.  The sweep runs each design several times with derived
seeds and writes one CSV row per run; aggregating them reproduces the
classic latency-versus-power scatter where q walks along the trade-off
curve and the timeout moves the whole frontier.
"""

import numpy as np

from greenlb import (
    DesignSpace,
    NdResolution,
    SimConfig,
    StopCriterion,
    parse_policy,
    run_sweep,
)
from greenlb.design import write_results_csv


def spearman_rho(x, y):
    """Rank correlation of two tie-free sequences: Pearson's r of their ranks."""
    return np.corrcoef(np.argsort(np.argsort(x)), np.argsort(np.argsort(y)))[0, 1]


base = SimConfig(
    num_servers=4,
    arrival_rate=1.0,
    service_time=1.0,
    policy=parse_policy('-queueSize - dspace("q") * (1 - stateOn)'),
    stop=StopCriterion(max_requests=1500),
    warmup=500.0,
    seed=2024,
)

space = DesignSpace(
    q_values=[1, 5, 20, 100],
    timeout_values=[1.0, 10.0],
    nd_values=[NdResolution.RANDOM_FRACTION],
    replications=5,
)

rows = run_sweep(space, base, jobs=2)
write_results_csv(rows, "sweep_results.csv")
print(f"wrote {len(rows)} rows to sweep_results.csv")
print()

print(f"{'q':>4} {'TO':>5} {'AL (s)':>10} {'AP total (W)':>14}")
summary = {}
for row in rows:
    summary.setdefault((row.design.q, row.design.timeout), []).append(
        (row.result.avg_latency_s, row.result.total_power_w))
for (q, timeout), values in sorted(summary.items(), key=lambda kv: (kv[0][1], kv[0][0])):
    al = np.mean([v[0] for v in values])
    ap = np.mean([v[1] for v in values])
    print(f"{q:>4} {timeout:>5g} {al:>10.2f} {ap:>14.1f}")

print()
for timeout in space.timeout_values:
    qs = space.q_values
    al = [np.mean([v[0] for v in summary[(q, timeout)]]) for q in qs]
    ap = [np.mean([v[1] for v in summary[(q, timeout)]]) for q in qs]
    rho_al = spearman_rho(qs, al)
    rho_ap = spearman_rho(qs, ap)
    print(f"TO={timeout:g}: latency rises with q (rho={rho_al:+.2f}), "
          f"power falls with q (rho={rho_ap:+.2f})")
print()
print("plot ap_total_w against avg_latency_s coloured by q to see the frontier;")
print("`greenlb plot-data sweep_results.csv --group-by q` emits exactly that table")
