"""Three independent ways to corroborate the simulator.

1. The ratio distance delta(v1, v2) = max(v1/v2, v2/v1) - 1 used to compare
   result tables: symmetric and scale-free, but provably not a metric.
2. An analytic queueing check: with the timeout disabled a single server is
   a deterministic-service queue whose mean latency has a closed form.
3. A trace-replay oracle: an independent straight-line interpreter that
   must agree with the event-queue engine request by request.
"""

import math

from greenlb import (
    PowerModel,
    SimConfig,
    StopCriterion,
    delta,
    md1_mean_latency,
    parse_policy,
    replay_oracle,
    run,
    simulate,
)
from greenlb.metrics import compute_ap
from greenlb.policy import PowerState

print("=" * 70)
print("1. The ratio distance")
print("=" * 70)
print(f"delta(v, v)       = {delta(4.2, 4.2)}")
print(f"delta(1, 2)       = {delta(1.0, 2.0)}  (= delta(2, 1) = {delta(2.0, 1.0)})")
print(f"delta(10a, 20a)   = {delta(10.0, 20.0)} for any positive scale a")
lhs = delta(1.0, 2.0) + delta(2.0, 3.0)
rhs = delta(1.0, 3.0)
print(f"triangle fails: delta(1,2)+delta(2,3) = {lhs} < {rhs} = delta(1,3)")

print()
print("=" * 70)
print("2. Analytic queueing oracle (always-on single server)")
print("=" * 70)
for rate in (0.3, 0.5, 0.8):
    cfg = SimConfig(
        num_servers=1,
        arrival_rate=rate,
        service_time=1.0,
        power=PowerModel(timeout=math.inf),
        policy=parse_policy("0"),
        stop=StopCriterion(max_requests=200_000),
        warmup=500.0,
        seed=11,
        initial_state=PowerState.ON,
    )
    result = run(cfg)
    expected = md1_mean_latency(rate, 1.0)
    err = abs(result.avg_latency_s - expected) / expected
    print(f"rate={rate}: simulated AL={result.avg_latency_s:.4f} s, "
          f"formula={expected:.4f} s, error={err:.2%}")

print()
print("=" * 70)
print("3. Engine vs replay oracle")
print("=" * 70)
cfg = SimConfig(
    num_servers=4,
    policy=parse_policy('-queueSize - dspace("q") * (1 - stateOn)'),
    design_params={"q": 5.0},
    stop=StopCriterion(max_requests=50),
    warmup=0.0,
    seed=99,
)
record = simulate(cfg)
oracle = replay_oracle(
    record.requests.arrival,
    record.requests.server,
    cfg.num_servers, cfg.power, cfg.service_time, cfg.initial_state,
)
engine_latencies = [c - a for a, c in zip(record.requests.arrival,
                                          record.requests.completion)]
exact = oracle.latencies == engine_latencies
engine_integral = (compute_ap(record.timelines, cfg.power, 0.0, record.horizon).total_w
                   * record.horizon)
gap = abs(engine_integral - oracle.power_integral_j)
print(f"50 requests replayed: latencies bit-identical: {exact}")
print(f"power integral: engine {engine_integral:.6f} J, "
      f"oracle {oracle.power_integral_j:.6f} J, |gap| = {gap:.2e} J")
