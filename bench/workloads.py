"""The three workloads: their inputs, one timed round, and its checks.

A round is the same operations every time, so every round of a run does the
same work and yields bit-identical results.  An operation is one simulation
run.  The first round of a run gets the full checks; every later round must
reproduce the first round's fingerprints exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from greenlb import design, engine, metrics
from greenlb.cluster import Cluster
from greenlb.design import derive_seed
from greenlb.policy import ServerSnapshot

import checks

# sweep-threshold: the trade-off is checked on these timeouts only.  At the
# benchmark's 4,000 s per run, both TO = 30 s slices are still in their
# start-up regime: under random ties q = 100 keeps all four servers on (AP =
# 200 W, the same as q = 1) in 8 of 30 seeds even at 20,000 s, and under
# fixed_order AP(q=100)/AP(q=1) reached 0.984 in 100 seeds at 4,000 s.
TRADEOFF_TIMEOUTS = (1.0, 10.0)
# sweep-threshold rows whose design index is a multiple of this are simulated
# again from their derived seed and replayed: four rows, covering every q,
# both tie modes and TO in {1, 10}.
REPLAY_EVERY = 7


@dataclass
class Round:
    """What one timed round produced."""

    results: list  # RunResult per operation, None where the run raised
    errors: list  # per operation: None, or why the run failed
    record: object = None  # single-run workloads: the raw record, for the oracle
    rows: list = field(default_factory=list)  # sweep: its rows

    def completed(self) -> int:
        return sum(r.requests_completed for r in self.results if r is not None)


class SingleRun:
    """One ``simulate`` followed by ``summarize`` per round."""

    jobs = 1

    def __init__(self, loaded, seed: int):
        self.config = replace(loaded.sim, seed=seed)

    def run_round(self) -> Round:
        try:
            record = engine.simulate(self.config)
            result = metrics.summarize(record)
        except Exception as exc:  # a failed run is counted, not fatal
            return Round(results=[None], errors=[f"{type(exc).__name__}: {exc}"])
        return Round(results=[result], errors=[None], record=record)

    def check(self, rnd: Round, first: bool) -> tuple[list, list]:
        """Per-operation problems, and problems of the round as a whole."""
        if rnd.errors[0] is not None:
            return [[rnd.errors[0]]], []
        return [self.run_problems(rnd, first)], []


class WideCluster(SingleRun):
    def run_problems(self, rnd: Round, first: bool) -> list:
        return checks.oracle_problems(rnd.record, rnd.results[0]) if first else []


class Md1Long(SingleRun):
    def run_problems(self, rnd: Round, first: bool) -> list:
        return checks.md1_problems(rnd.results[0], self.config)


class SweepThreshold:
    """``run_sweep`` over criterion 7's grid with ``jobs=2``."""

    jobs = 2

    def __init__(self, loaded, seed: int):
        self.config = replace(loaded.sim, seed=seed)
        self.space = loaded.study

    def run_round(self) -> Round:
        rows = design.run_sweep(self.space, self.config, jobs=self.jobs)
        return Round(results=[row.result for row in rows],
                     errors=[row.error for row in rows], rows=rows)

    def check(self, rnd: Round, first: bool) -> tuple[list, list]:
        rows = rnd.rows
        per_op = []
        for row in rows:
            problems = checks.row_problems(row, self.config)
            if first and not problems and row.design_index % REPLAY_EVERY == 0:
                problems = self._replay_problems(row)
            per_op.append(problems)
        expected = len(design.enumerate_designs(self.space)) * self.space.replications
        whole = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
        return per_op, whole + checks.tradeoff_problems(rows, TRADEOFF_TIMEOUTS)

    def _replay_problems(self, row) -> list:
        seed = derive_seed(self.config.seed, row.design, row.replication)
        cfg = replace(
            self.config,
            power=replace(self.config.power, timeout=row.design.timeout),
            design_params={**self.config.design_params, "q": row.design.q},
            nd=row.design.nd,
            seed=seed,
        )
        record = engine.simulate(cfg)
        again = metrics.summarize(record)
        problems = checks.oracle_problems(record, again)
        if checks.fingerprint([again]) != checks.fingerprint([row.result]):
            problems.append("simulating the row again from its derived seed "
                            "gives other results")
        return problems


WORKLOADS = {
    "sweep-threshold": SweepThreshold,
    "wide-cluster": WideCluster,
    "md1-long": Md1Long,
}


def snapshot_us(config, repeats: int = 7, builds: int = 20_000) -> float:
    """Median µs to build the n ``ServerSnapshot``s the engine builds per arrival."""
    cluster = Cluster(config.num_servers, config.power, config.service_time,
                      config.initial_state)
    power, params, n = config.power, config.design_params, config.num_servers

    def build():
        return [
            ServerSnapshot(
                id=s.id, num_servers=n, queue_size=s.queue_size,
                power_state=s.power_state, power_on=power.p_on,
                power_sleep=power.p_sleep, power_suspend=power.p_suspend,
                power_wakeup=power.p_wakeup, time_wakeup=power.t_wakeup,
                time_suspend=power.t_suspend, timeout_time=power.timeout,
                design_params=params,
            )
            for s in cluster.servers
        ]

    per_repeat = max(1, builds // n)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(per_repeat):
            build()
        samples.append((time.perf_counter_ns() - t0) / per_repeat / 1000)
    samples.sort()
    return samples[len(samples) // 2]

