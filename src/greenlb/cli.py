"""The greenlb command line: parse, eval, run, sweep, compare, plot-data.

Every subcommand is a thin wrapper over the library modules.  Failures exit
nonzero with a single line on stderr of the form ``error: <category>: <msg>``.
Set ``GREENLB_LOG`` (DEBUG/INFO/WARNING/ERROR) for log verbosity.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import config as config_mod
from . import design as design_mod
from . import metrics as metrics_mod
from . import validation as validation_mod
from .engine import SimulationError, run
from .metrics import MetricsError
from .policy import (
    NdResolution,
    PolicyError,
    evaluate,
    format_ast,
    parse_policy,
    pretty_print,
    select_server,
)

log = logging.getLogger("greenlb")

_USER_ERRORS = (
    config_mod.ConfigError,
    PolicyError,
    SimulationError,
    MetricsError,
    ValueError,
    OSError,
)

_CATEGORY = {
    config_mod.ConfigError: "config",
    PolicyError: "policy",
    SimulationError: "run",
    MetricsError: "metrics",
    OSError: "io",
}


def _die(exc: Exception) -> None:
    category = "invalid"
    for etype, name in _CATEGORY.items():
        if isinstance(exc, etype):
            category = name
            break
    message = " ".join(str(exc).split())
    click.echo(f"error: {category}: {message}", err=True)
    sys.exit(1)


def _read_policy(policy_path: str | None, expr: str | None) -> str:
    if (policy_path is None) == (expr is None):
        raise click.UsageError("provide exactly one of --policy FILE or --expr TEXT")
    if policy_path is not None:
        return Path(policy_path).read_text()
    return expr  # type: ignore[return-value]


@click.group()
def main() -> None:
    """Evaluate load-balancing policies over a power-managed server cluster."""
    level = os.environ.get("GREENLB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


@main.command("parse")
@click.option("--policy", "policy_path", type=click.Path(), help="Policy text file.")
@click.option("--expr", help="Policy text given inline.")
def cmd_parse(policy_path: str | None, expr: str | None) -> None:
    """Parse policy text and print the syntax tree."""
    try:
        ast = parse_policy(_read_policy(policy_path, expr))
        click.echo(format_ast(ast))
        click.echo(f"canonical: {pretty_print(ast)}")
    except _USER_ERRORS as exc:
        _die(exc)


@main.command("eval")
@click.option("--policy", "policy_path", type=click.Path(), help="Policy text file.")
@click.option("--expr", help="Policy text given inline.")
@click.option("--state", "state_path", type=click.Path(), required=True,
              help="Server snapshot file (YAML).")
@click.option("--nd", type=click.Choice(["random", "fixed_order"]), default="random",
              show_default=True, help="Tie resolution mode.")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
def cmd_eval(policy_path, expr, state_path, nd, seed, as_json) -> None:
    """Evaluate a policy against a snapshot file and show the selection."""
    try:
        ast = parse_policy(_read_policy(policy_path, expr))
        snaps, _, _ = config_mod.load_state_file(state_path)
        mode = NdResolution(nd)
        # Two identically seeded streams: the displayed values consume the
        # same evaluation draws the selection pass sees.
        display_rng = np.random.default_rng(np.random.SeedSequence(seed))
        select_rng = np.random.default_rng(np.random.SeedSequence(seed))
        values = [evaluate(ast, snap, display_rng) for snap in snaps]
        selected = select_server(ast, snaps, mode, select_rng)
        if as_json:
            click.echo(json.dumps({"values": values, "selected": selected}))
        else:
            for snap, value in zip(snaps, values):
                click.echo(f"server {snap.id}: {value!r}")
            click.echo(f"selected: {selected}")
    except _USER_ERRORS as exc:
        _die(exc)


@main.command("run")
@click.option("--config", "config_path", type=click.Path(), required=True,
              help="Run config file (YAML).")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write a per-event CSV trace here.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--csv", "as_csv", is_flag=True, help="Emit one CSV row instead of JSON.")
def cmd_run(config_path, trace_path, seed, as_csv) -> None:
    """Run one simulation and print its metrics."""
    try:
        loaded = config_mod.load_config(config_path)
        sim = loaded.sim
        if seed is not None:
            sim.seed = seed
        result = run(sim, trace_path=trace_path)
        if as_csv:
            writer = csv.writer(sys.stdout)
            writer.writerow(metrics_mod.csv_header())
            writer.writerow(metrics_mod.csv_row(result))
        else:
            click.echo(json.dumps(result.to_dict(), indent=2))
    except _USER_ERRORS as exc:
        _die(exc)


@main.command("sweep")
@click.option("--config", "config_path", type=click.Path(), required=True,
              help="Run config file with a study section.")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Results CSV destination.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes; the output is identical for any value.")
@click.option("--seed", type=int, default=None, help="Override the master seed.")
def cmd_sweep(config_path, out_path, jobs, seed) -> None:
    """Run the full design-space sweep and write a results CSV."""
    try:
        loaded = config_mod.load_config(config_path)
        if loaded.study is None:
            raise config_mod.ConfigError("sweep needs a 'study' section in the config")
        sim = loaded.sim
        if seed is not None:
            sim.seed = seed
        rows = design_mod.run_sweep(loaded.study, sim, jobs=jobs)
        design_mod.write_results_csv(rows, out_path)
        failed = sum(1 for r in rows if r.error is not None)
        log.info("sweep finished: %d rows, %d failed", len(rows), failed)
        click.echo(f"wrote {len(rows)} rows to {out_path}"
                   + (f" ({failed} failed)" if failed else ""))
    except _USER_ERRORS as exc:
        _die(exc)


@main.command("compare")
@click.argument("results_a", type=click.Path())
@click.argument("results_b", type=click.Path())
@click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON.")
def cmd_compare(results_a, results_b, as_json) -> None:
    """Compare two sweep result tables with the ratio distance."""
    try:
        report = validation_mod.compare_tables(
            design_mod.read_results_csv(results_a),
            design_mod.read_results_csv(results_b),
        )
        if as_json:
            click.echo(json.dumps(report.to_dict(), indent=2))
            return
        click.echo(f"{'q':>6} {'timeout':>8} {'nd':>12} {'d_latency':>10} {'d_power':>10}")
        for d in report.designs:
            click.echo(
                f"{d.q:>6g} {d.timeout:>8g} {d.nd:>12} "
                f"{d.delta_latency:>10.4f} {d.delta_power:>10.4f}"
            )
        for metric in ("latency", "power"):
            parts = ", ".join(
                f"<{thr:g}: {frac:.0%}"
                for thr, frac in report.fraction_below[metric].items()
            )
            click.echo(f"{metric} designs within distance: {parts}")
    except _USER_ERRORS as exc:
        _die(exc)


@main.command("plot-data")
@click.argument("results", type=click.Path())
@click.option("--group-by", type=click.Choice(["q", "TO"]), required=True,
              help="Label rows by queue threshold or by timeout.")
@click.option("--max-q", type=float, default=None,
              help="Drop designs with a larger queue threshold.")
@click.option("--out", "out_path", type=click.Path(), default="-",
              help="Destination CSV (default stdout).")
def cmd_plot_data(results, group_by, max_q, out_path) -> None:
    """Emit (total power, latency, label) scatter rows from a results CSV."""
    try:
        rows = design_mod.read_results_csv(results)
        for column in ("q", "timeout", "nd", "avg_latency_s", "total_power_w"):
            if rows and column not in rows[0]:
                raise ValueError(f"results file lacks required column '{column}'")
        if max_q is not None:
            rows = [row for row in rows if float(row["q"]) <= max_q]
        agg = validation_mod.aggregate_designs(rows)
        out = sys.stdout if out_path == "-" else open(out_path, "w", newline="")
        try:
            writer = csv.writer(out)
            writer.writerow(["ap_total_w", "avg_latency_s", "label"])
            for (q, timeout, nd), (al, ap) in sorted(agg.items()):
                label = f"q={q:g}" if group_by == "q" else f"TO={timeout:g}"
                writer.writerow([repr(ap), repr(al), label])
        finally:
            if out is not sys.stdout:
                out.close()
    except _USER_ERRORS as exc:
        _die(exc)


if __name__ == "__main__":
    main()
