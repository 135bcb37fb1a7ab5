"""Design-space enumeration and the reproducible sweep runner.

A design is one point (q, timeout, nd): the queue threshold bound to
``dspace("q")`` in the policy, the idle timeout of the power model, and the
tie-resolution mode.  The space is the full Cartesian product, enumerated
q-major, then timeout, then nd.  Each (design, replication) pair gets a seed
derived from the master seed, the design's own coordinates, and the
replication index, so a design's result depends neither on its position in
the enumeration nor on execution order or the degree of parallelism.
"""

from __future__ import annotations

import csv
import io
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import metrics
from .engine import SimConfig, run
from .metrics import RunResult
from .policy import NdResolution

__all__ = [
    "DEFAULT_Q_VALUES",
    "DEFAULT_TIMEOUT_VALUES",
    "Design",
    "DesignSpace",
    "enumerate_designs",
    "derive_seed",
    "SweepRow",
    "run_sweep",
    "results_csv_header",
    "write_results_csv",
    "read_results_csv",
]

DEFAULT_Q_VALUES = (1, 2, 3, 5, 7, 10, 15, 20, 30, 40, 50, 75, 100)
DEFAULT_TIMEOUT_VALUES = (1.0, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0, 15.0, 30.0)


@dataclass(frozen=True, slots=True)
class Design:
    """One point of the design space."""

    q: float
    timeout: float
    nd: NdResolution

    def __post_init__(self):
        if not self.q >= 0:  # false for NaN too
            raise ValueError("q must be non-negative")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")


@dataclass(slots=True)
class DesignSpace:
    """Dimension ranges plus the replication count per design."""

    q_values: Sequence[float] = DEFAULT_Q_VALUES
    timeout_values: Sequence[float] = DEFAULT_TIMEOUT_VALUES
    nd_values: Sequence[NdResolution] = (NdResolution.RANDOM_FRACTION, NdResolution.FIXED_ORDER)
    replications: int = 10

    def validate(self) -> None:
        for name in ("q_values", "timeout_values", "nd_values"):
            if not getattr(self, name):
                raise ValueError(f"design space dimension {name} is empty")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


def enumerate_designs(space: DesignSpace) -> list[Design]:
    """All designs in deterministic q-major, timeout, nd order."""
    space.validate()
    return [
        Design(q=q, timeout=timeout, nd=nd)
        for q in space.q_values
        for timeout in space.timeout_values
        for nd in space.nd_values
    ]


def derive_seed(master_seed: int, design: Design, replication: int) -> int:
    """64-bit run seed keyed by the design's coordinates and the replication.

    Using coordinates (not the enumeration index) keeps every design's result
    stable when the space around it is reordered or filtered.
    """
    q_bits = struct.unpack("<Q", struct.pack("<d", float(design.q)))[0]
    to_bits = struct.unpack("<Q", struct.pack("<d", float(design.timeout)))[0]
    nd_code = 0 if design.nd is NdResolution.RANDOM_FRACTION else 1
    entropy = [master_seed & (2**64 - 1), q_bits, to_bits, nd_code, replication]
    state = np.random.SeedSequence(entropy).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


@dataclass(slots=True)
class SweepRow:
    """One (design, replication) outcome; ``error`` is set instead of ``result``
    when that run failed."""

    design_index: int
    design: Design
    replication: int
    seed: int
    result: RunResult | None = None
    error: str | None = None


def _design_config(base: SimConfig, design: Design, seed: int) -> SimConfig:
    return replace(
        base,
        power=replace(base.power, timeout=design.timeout),
        design_params={**base.design_params, "q": design.q},
        nd=design.nd,
        seed=seed,
    )


def _run_task(task: tuple) -> SweepRow:
    design_index, design, replication, seed, base = task
    row = SweepRow(design_index=design_index, design=design,
                   replication=replication, seed=seed)
    try:
        row.result = run(_design_config(base, design, seed))
    except Exception as exc:  # a failed design must not poison the sweep
        row.error = " ".join(f"{type(exc).__name__}: {exc}".split())
    return row


def run_sweep(space: DesignSpace, base_config: SimConfig, jobs: int = 1) -> list[SweepRow]:
    """Run every (design, replication) pair; output is independent of ``jobs``."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    designs = enumerate_designs(space)
    master = base_config.seed
    tasks = [
        (di, design, rep, derive_seed(master, design, rep), base_config)
        for di, design in enumerate(designs)
        for rep in range(space.replications)
    ]
    if jobs == 1:
        rows = [_run_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_task, tasks, chunksize=4))
    rows.sort(key=lambda r: (r.design_index, r.replication))
    return rows


# --- CSV schema ----------------------------------------------------------

def results_csv_header() -> list[str]:
    return ["design_index", "q", "timeout", "nd", "replication", "seed",
            *metrics.csv_header(), "error"]


def _row_fields(row: SweepRow) -> list[str]:
    coords = [
        str(row.design_index),
        str(row.design.q),
        str(row.design.timeout),
        row.design.nd.value,
        str(row.replication),
        str(row.seed),
    ]
    if row.result is not None:
        return [*coords, *metrics.csv_row(row.result), ""]
    return [*coords, *[""] * len(metrics.csv_header()), row.error or "failed"]


def write_results_csv(rows: Iterable[SweepRow], path: str | Path | io.TextIOBase) -> None:
    """Write sweep rows with the documented column order."""
    own = not hasattr(path, "write")
    fh = open(path, "w", newline="") if own else path
    try:
        writer = csv.writer(fh)
        writer.writerow(results_csv_header())
        for row in rows:
            writer.writerow(_row_fields(row))
    finally:
        if own:
            fh.close()


def read_results_csv(path: str | Path) -> list[dict]:
    """Read a results CSV back as dicts (values stay strings)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
