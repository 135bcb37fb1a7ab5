"""Benchmark entry point: one workload run, printed as metrics and one JSON line.

Usage, from the root of a greenlb checkout::

    python3 bench/run.py --workload wide-cluster --seed 1 --seconds 20 --trace 0

Every measurement happens in a fresh interpreter started from here (see
``worker.py``).  With ``--trace 0`` it prints the end-to-end metrics:
``setup_s`` is the median over ``SETUP_SAMPLES`` fresh interpreters, one of
them the measured run itself.  Times and rates are scaled to the reference
host speed (see ``calibrate.py``); the lines before the JSON also give them
as measured.  With ``--trace 1`` it prints the per-layer
metrics of a traced run instead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-threshold", "wide-cluster", "md1-long")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_worker(args, *extra) -> tuple[dict, float]:
    """Start ``worker.py`` in a fresh interpreter; return its report and the
    seconds from its start to the end of its set-up."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    started_ns = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])
    return report, (report["ready_ns"] - started_ns) / 1e9


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "greenlb" / "__init__.py").is_file():
        print(f"no greenlb sources under {ROOT / 'src'}; run from a greenlb checkout",
              file=sys.stderr)
        return 2

    # Calibration chunks between the set-up samples give the host speed during
    # set-up; the worker times the chunk after its own set-up.  One sample is
    # too short to pair with its neighbouring chunks, so the median sample is
    # scaled by the mean chunk.
    setup, chunks = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            chunks.append(calibrate.chunk_seconds())
            setup.append(run_worker(args, "--setup-only")[1])
        chunks.append(calibrate.chunk_seconds())
    report, seconds = run_worker(args)

    metrics = report["metrics"]
    if not args.trace:
        setup.append(seconds)
        chunks.append(report["first_chunk_s"])
        slowdown = calibrate.slowdown(chunks)
        metrics = {"setup_s": {"value": statistics.median(setup) / slowdown, "unit": "s"},
                   **metrics}
        print(f"  set-up samples as measured (s): {' '.join(f'{s:.4f}' for s in setup)}, "
              f"host slowdown {slowdown:.4f}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
