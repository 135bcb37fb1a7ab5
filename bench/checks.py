"""Correctness checks on simulation outputs, made outside the timed phase.

Each ``*_problems`` function returns a list of human-readable problems; an
empty list means the output passed.  The checks compare against a
computation made apart from the engine (``replay_oracle``, the
Pollaczek-Khinchine mean) or against a property the model must have.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from greenlb.metrics import compute_ap
from greenlb.validation import md1_mean_latency, replay_oracle

# Relative slack for "exactly p_on" style checks.  The engine's average power
# for a server that is on for the whole window comes out one ulp above p_on
# on some seeds (energy is duration * power divided by the same duration), so
# these checks allow a few ulps and no more.
ULP_SLACK = 1e-12

# |AL - 1.5 s| allowed for md1-long, relative.  At 100,000 requests AL has a
# standard deviation of 0.006 s over seeds 0-9 (mean batch-means 95%
# half-width 0.011 s), so 3% (0.045 s) is about seven standard deviations.
MD1_REL_TOLERANCE = 0.03

# criterion 6's bound on the energy gap between engine and oracle.
ENERGY_REL_TOLERANCE = 1e-9


def fingerprint(results) -> str:
    """Hash of the reprs of AL, AP and both half-widths over ``results``.

    For information only: equal fingerprints mean bit-identical headline
    results, which a change that only claims speed must keep.  A run that
    failed (``None``) hashes as ``failed``.
    """
    digest = hashlib.sha256()
    for r in results:
        if r is None:
            digest.update(b"failed\n")
            continue
        fields = (r.avg_latency_s, r.avg_power_per_server_w,
                  r.latency_ci_halfwidth, r.power_ci_halfwidth)
        digest.update("|".join(map(repr, fields)).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def oracle_problems(record, result) -> list[str]:
    """Engine record and its summary against an independent trace replay.

    Latencies must match exactly, the energy over [0, horizon] to 1e-9
    relative (criterion 6), AL must equal the mean of the oracle's
    post-warm-up latencies, and the assignments must sum to the requests.
    """
    cfg = record.config
    arrivals = [r.arrival_time for r in record.requests]
    oracle = replay_oracle(
        arrivals,
        [r.assigned_server for r in record.requests],
        cfg.num_servers, cfg.power, cfg.service_time, cfg.initial_state,
        horizon=record.horizon,
    )
    problems = []
    engine_latencies = [r.completion - r.arrival_time for r in record.requests]
    mismatched = sum(1 for a, b in zip(engine_latencies, oracle.latencies) if a != b)
    if mismatched or len(engine_latencies) != len(oracle.latencies):
        problems.append(f"{mismatched} latencies differ from the replay oracle")
    engine_energy = (compute_ap(record.timelines, cfg.power, 0.0, record.horizon).total_w
                     * record.horizon)
    gap = abs(engine_energy - oracle.power_integral_j) / max(1.0, engine_energy)
    if not gap <= ENERGY_REL_TOLERANCE:
        problems.append(f"energy differs from the replay oracle by {gap:.2e} relative")
    post_warmup = [lat for a, lat in zip(arrivals, oracle.latencies) if a >= cfg.warmup]
    if post_warmup and result.avg_latency_s != float(np.mean(post_warmup)):
        problems.append(f"AL {result.avg_latency_s!r} is not the oracle's mean "
                        f"{float(np.mean(post_warmup))!r}")
    if sum(result.per_server_assignment_count) != len(record.requests):
        problems.append(f"assignments sum to {sum(result.per_server_assignment_count)}, "
                        f"not {len(record.requests)} requests")
    return problems


def md1_problems(result, cfg) -> list[str]:
    """An always-on single server against the M/D/1 mean and its power draw."""
    problems = []
    expected = md1_mean_latency(cfg.arrival_rate, cfg.service_time)
    if not abs(result.avg_latency_s - expected) <= MD1_REL_TOLERANCE * expected:
        problems.append(f"AL {result.avg_latency_s!r} s is not within "
                        f"{MD1_REL_TOLERANCE:.0%} of the M/D/1 mean {expected} s")
    p_on = cfg.power.p_on
    if not abs(result.avg_power_per_server_w - p_on) <= ULP_SLACK * p_on:
        problems.append(f"AP {result.avg_power_per_server_w!r} W is not {p_on} W")
    on = [f["on"] for f in result.per_state_time_fraction]
    if on != [1.0] * cfg.num_servers:
        problems.append(f"on-fractions {on} are not exactly 1")
    if result.requests_completed != cfg.stop.max_requests:
        problems.append(f"{result.requests_completed} requests completed, "
                        f"{cfg.stop.max_requests} injected")
    return problems


def row_problems(row, cfg) -> list[str]:
    """Properties every sweep row must have under ``cfg``'s power model."""
    if row.error is not None:
        return [f"run failed: {row.error}"]
    r = row.result
    problems = []
    lo, hi = cfg.power.p_sleep, cfg.power.p_on
    if not lo * (1 - ULP_SLACK) <= r.avg_power_per_server_w <= hi * (1 + ULP_SLACK):
        problems.append(f"AP {r.avg_power_per_server_w!r} W outside [{lo}, {hi}] W")
    for sid, fractions in enumerate(r.per_state_time_fraction):
        total = math.fsum(fractions.values())
        if not abs(total - 1.0) <= ULP_SLACK:
            problems.append(f"server {sid}: state fractions sum to {total!r}")
    if not r.avg_latency_s >= cfg.service_time:
        problems.append(f"AL {r.avg_latency_s!r} s below the service time")
    if sum(r.per_server_assignment_count) != r.requests_completed:
        problems.append(f"assignments sum to {sum(r.per_server_assignment_count)}, "
                        f"not {r.requests_completed} completed requests")
    return problems


def tradeoff_problems(rows, timeouts) -> list[str]:
    """In every (TO, nd) slice with TO in ``timeouts``, the largest q draws
    less mean power per server than the smallest q."""
    slices: dict = {}
    for row in rows:
        if row.result is None or row.design.timeout not in timeouts:
            continue
        key = (row.design.timeout, row.design.nd.value)
        slices.setdefault(key, {}).setdefault(row.design.q, []).append(
            row.result.avg_power_per_server_w)
    problems = []
    for (timeout, nd), per_q in sorted(slices.items()):
        q_lo, q_hi = min(per_q), max(per_q)
        ap_lo, ap_hi = float(np.mean(per_q[q_lo])), float(np.mean(per_q[q_hi]))
        if not ap_hi < ap_lo:
            problems.append(f"TO={timeout:g}/{nd}: AP(q={q_hi:g}) {ap_hi:.3f} W is not "
                            f"below AP(q={q_lo:g}) {ap_lo:.3f} W")
    missing = {float(t) for t in timeouts} - {key[0] for key in slices}
    if missing:
        problems.append(f"no rows for TO in {sorted(missing)}")
    return problems
