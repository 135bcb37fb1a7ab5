"""One measured benchmark process: set up, run whole rounds, check, report.

``run.py`` starts this file in a fresh interpreter, so the set-up time and
the peak memory it reports belong to one workload run alone.  The last line
of its standard output is one JSON object for ``run.py``.

Set-up is everything from interpreter start to the first simulation call:
importing greenlb, loading the workload's YAML with
``greenlb.config.load_config`` and building the inputs from ``--seed``.
With ``--setup-only`` the process reports when set-up finished and exits.

Otherwise it runs whole rounds of the workload until their timed phases add
up to ``--seconds``, to the nearest whole round.  Checks run between rounds, outside the timed phase.
With ``--trace 1`` the first two rounds run without wrappers, the second as
the reference for the tracing overhead; the spans of the following rounds
give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

HANDLERS = ("on_request_assigned", "on_service_complete", "on_timeout",
            "on_suspend_done", "on_wakeup_done")

END_TO_END_UNITS = {"requests_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "policy.select_calls": "count",
    "policy.select_us": "us/call",
    "policy.snapshot_us": "us/arrival",
    "engine.events": "count",
    "engine.self_us_per_event": "us",
    "engine.interarrival_us": "us/call",
    "cluster.handler_us": "us/call",
    "cluster.wakeups": "count",
    "cluster.suspends": "count",
    "cluster.timeouts_armed": "count",
    "cluster.timeout_fire_ratio": "fired/armed",
    "metrics.summarize_ms": "ms/run",
    "metrics.summarize_share": "share",
    "metrics.timeline_segments": "count",
    "design.tasks": "count",
    "design.task_ms": "ms/task",
    "design.pool_efficiency": "share",
    "config.load_ms": "ms",
    "setup.import_s": "s",
    "trace.requests_per_s": "1/s",
    "trace.overhead": "x",
    "host.slowdown": "x",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def count_scheduled(counts, args, result) -> None:
    """Counters from the transitions a cluster handler hands the event loop."""
    for item in result:
        counts[item.kind.name] += 1


def count_segments(counts, args, result) -> None:
    counts["timeline_segments"] += sum(len(t) for t in args[0].timelines)


def install_layers(tracer) -> None:
    """Wrap the public names each simulation layer is called through."""
    from greenlb import cluster, design, engine, metrics

    tracer.wrap(engine, "select_server", "policy.select_server")
    tracer.wrap(engine, "generate_interarrival", "engine.generate_interarrival")
    for name in HANDLERS:
        tracer.wrap(cluster.Cluster, name, f"cluster.{name}", count=count_scheduled)
    tracer.wrap(engine, "simulate", "engine.simulate")
    tracer.wrap(metrics, "summarize", "metrics.summarize", count=count_segments)
    tracer.wrap(design, "run", "design.run")


class Tally:
    """Operations attempted and failed, timed rounds, and first problems seen."""

    def __init__(self, chunk):
        self.chunk = chunk  # times one calibration chunk
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.completed: list[int] = []  # requests completed, per round
        self.seconds: list[float] = []  # timed phase, per round
        self.chunks: list[float] = []  # calibration chunks: one before each round, one after the last
        self.reference: list[str] | None = None  # per-operation fingerprints, round 1
        self.fingerprint = ""  # of the whole of round 1

    def note(self, where: str, problems) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)

    def rate(self, rounds: slice) -> tuple[float, float]:
        """Requests per host second over ``rounds``: as measured, and scaled to
        the reference host speed by the chunks either side of each round."""
        picked = range(len(self.seconds))[rounds]
        completed = sum(self.completed[i] for i in picked)
        raw = completed / sum(self.seconds[i] for i in picked)
        scaled = sum(self.seconds[i] / calibrate.slowdown(self.chunks[i:i + 2])
                     for i in picked)
        return raw, completed / scaled


def measure_round(workload, tally: Tally, checks) -> float:
    """Run one timed round, time the calibration chunk after it, check the
    round, and return its timed seconds."""
    t0 = time.perf_counter()
    rnd = workload.run_round()
    seconds = time.perf_counter() - t0
    tally.chunks.append(tally.chunk())
    tally.completed.append(rnd.completed())
    tally.seconds.append(seconds)

    first = tally.reference is None
    prints = [checks.fingerprint([r]) for r in rnd.results]
    try:
        per_op, whole = workload.check(rnd, first)
    except Exception as exc:  # a check that cannot run fails the round's operations
        per_op, whole = [[f"check raised {type(exc).__name__}: {exc}"]] * len(prints), []
    if first:
        tally.reference = prints
        tally.fingerprint = checks.fingerprint(rnd.results)
    else:
        per_op = [problems + ([] if fp == ref else ["result differs from round 1"])
                  for problems, fp, ref in zip(per_op, prints, tally.reference)]
    round_no = len(tally.seconds)
    tally.attempted += len(prints)
    for i, problems in enumerate(per_op):
        if problems:
            tally.failed += 1
            tally.note(f"round {round_no} operation {i}", problems)
    if whole:
        tally.correct = False
        tally.note(f"round {round_no}", whole)
    return seconds


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, rounds: int, wall_s: float, jobs: int) -> dict:
    """Per-layer metrics from the spans and counters of ``rounds`` traced rounds.

    Counts are per round; every round does the same work, so they are exact.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def calls(layer):
        return totals.get(layer, (0, 0, 0))[0]

    def span_ns(layer):
        return totals.get(layer, (0, 0, 0))[1]

    handlers = [f"cluster.{h}" for h in HANDLERS]
    arrivals = calls("policy.select_server")
    events = arrivals + sum(calls(h) for h in handlers[1:])
    simulate_self_ns = totals.get("engine.simulate", (0, 0, 0))[2]
    summarize_ns = span_ns("metrics.summarize")
    armed = counts["TIMEOUT"]
    return {
        "policy.select_calls": arrivals // rounds,
        "policy.select_us": _ratio(span_ns("policy.select_server"), arrivals) / 1e3,
        "engine.events": events // rounds,
        "engine.self_us_per_event": _ratio(simulate_self_ns, events) / 1e3,
        "engine.interarrival_us": _ratio(span_ns("engine.generate_interarrival"),
                                         calls("engine.generate_interarrival")) / 1e3,
        "cluster.handler_us": _ratio(sum(span_ns(h) for h in handlers),
                                     sum(calls(h) for h in handlers)) / 1e3,
        "cluster.wakeups": counts["WAKEUP_DONE"] // rounds,
        "cluster.suspends": counts["SUSPEND_DONE"] // rounds,
        "cluster.timeouts_armed": armed // rounds,
        "cluster.timeout_fire_ratio": _ratio(calls("cluster.on_timeout"), armed),
        "metrics.summarize_ms": _ratio(summarize_ns, calls("metrics.summarize")) / 1e6,
        "metrics.summarize_share": _ratio(summarize_ns,
                                          summarize_ns + span_ns("engine.simulate")),
        "metrics.timeline_segments": counts["timeline_segments"] // rounds,
        "design.tasks": calls("design.run") // rounds,
        "design.task_ms": _ratio(span_ns("design.run"), calls("design.run")) / 1e6,
        "design.pool_efficiency": _ratio(span_ns("design.run"), jobs * wall_s * 1e9),
        "config.load_ms": _ratio(span_ns("config.load_config"),
                                 calls("config.load_config")) / 1e6,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process and its finished children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import greenlb.config
    import_s = time.perf_counter() - t0

    import checks
    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer(OUT)
        tracer.wrap(greenlb.config, "load_config", "config.load_config")
    loaded = greenlb.config.load_config(BENCH / "configs" / f"{args.workload}.yaml")
    workload = workloads.WORKLOADS[args.workload](loaded, args.seed)
    ready_ns = time.monotonic_ns()
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns}))
        return 0

    pool = None
    if workload.jobs > 1:
        pool = multiprocessing.get_context("spawn").Pool(workload.jobs)
        tally = Tally(lambda: calibrate.parallel_chunk_seconds(pool, workload.jobs))
    else:
        tally = Tally(calibrate.chunk_seconds)
    try:
        tally.chunks.append(tally.chunk())
        if tracer is not None:
            # Round 1 warms up; round 2 is the untraced reference for the overhead.
            measure_round(workload, tally, checks)
            measure_round(workload, tally, checks)
            install_layers(tracer)
        times = []
        while not times or sum(times) + statistics.median(times) / 2 < args.seconds:
            times.append(measure_round(workload, tally, checks))
        timed = sum(times)
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    rounds = len(tally.seconds)
    if tracer is None:
        raw_rate, rate = tally.rate(slice(None))
        metrics = {"requests_per_s": rate, "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END_UNITS
        print(f"  requests per host second as measured: {raw_rate:.6g}, host slowdown "
              f"{calibrate.slowdown(tally.chunks):.4f}")
    else:
        tracer.uninstall()
        tracer.collect_workers()
        traced = slice(2, None)
        rate = tally.rate(traced)[1]
        metrics = layer_metrics(tracer, rounds - 2, timed, workload.jobs)
        metrics.update({
            "policy.snapshot_us": workloads.snapshot_us(workload.config),
            "setup.import_s": import_s,
            "trace.requests_per_s": rate,
            "trace.overhead": tally.rate(slice(1, 2))[1] / rate,
            "host.slowdown": calibrate.slowdown(tally.chunks[2:]),
        })
        units = PER_LAYER_UNITS
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {tally.attempted} runs "
          f"attempted, {tally.failed} failed, fingerprint {tally.fingerprint}")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "ready_ns": ready_ns,
        "first_chunk_s": tally.chunks[0],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
