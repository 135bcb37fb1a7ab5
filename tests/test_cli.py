"""End-to-end CLI tests through click's runner."""

import csv
import io
import json
import textwrap

import pytest
from click.testing import CliRunner

from greenlb.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


CONFIG = """
schema_version: 1
scenario:
  arrival_rate: 1.0
  num_servers: 4
  stop: {max_requests: 120}
  warmup: 0.0
  seed: 7
policy:
  expression: '-queueSize - dspace("q") * (1 - stateOn)'
  nd: random
  dspace: {q: 5}
"""

SWEEP_CONFIG = CONFIG + """
study:
  q: [1, 5]
  timeout: [2]
  nd: [random, fixed_order]
  replications: 2
"""

STATE = """
schema_version: 1
servers:
  - {queue_size: 2, state: "on"}
  - {queue_size: 0, state: sleep}
  - {queue_size: 1, state: "on"}
  - {queue_size: 0, state: suspend}
"""


class TestParse:
    def test_policy_text(self, runner, tmp_path):
        path = write(tmp_path, "p.lbp", '-queueSize - dspace("q") * (1 - stateOn)')
        result = runner.invoke(main, ["parse", "--policy", path])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "Sub"
        assert "canonical: -queueSize - dspace(\"q\") * (1 - stateOn)" in result.output

    def test_inline_expression(self, runner):
        result = runner.invoke(main, ["parse", "--expr", "1+2*3"])
        assert result.exit_code == 0
        assert "Mul" in result.output

    def test_syntax_error_single_line(self, runner):
        result = runner.invoke(main, ["parse", "--expr", "1 +"])
        assert result.exit_code == 1
        (line,) = result.stderr.strip().splitlines()
        assert line.startswith("error: policy:")

    def test_requires_one_source(self, runner):
        result = runner.invoke(main, ["parse"])
        assert result.exit_code == 2


class TestEval:
    def test_values_and_selection(self, runner, tmp_path):
        state = write(tmp_path, "state.yaml", STATE)
        result = runner.invoke(main, [
            "eval", "--expr", "-queueSize - 5*(1-stateOn)", "--state", state, "--json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["values"] == [-2.0, -5.0, -1.0, -5.0]
        assert payload["selected"] == 2

    def test_text_output(self, runner, tmp_path):
        state = write(tmp_path, "state.yaml", STATE)
        result = runner.invoke(main, ["eval", "--expr", "-queueSize", "--state", state])
        assert result.exit_code == 0
        assert "server 0: -2.0" in result.output
        assert result.output.strip().endswith("selected: 1")

    def test_fixed_order_on_ties(self, runner, tmp_path):
        state = write(tmp_path, "state.yaml", STATE)
        result = runner.invoke(main, [
            "eval", "--expr", "0", "--state", state, "--nd", "fixed_order", "--json",
        ])
        assert json.loads(result.output)["selected"] == 3


class TestRun:
    def test_json_output(self, runner, tmp_path):
        config = write(tmp_path, "config.yaml", CONFIG)
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["requests_completed"] == 120
        assert payload["avg_latency_s"] >= 1.0
        assert 14.0 <= payload["avg_power_per_server_w"] <= 200.0

    def test_csv_output(self, runner, tmp_path):
        config = write(tmp_path, "config.yaml", CONFIG)
        result = runner.invoke(main, ["run", "--config", config, "--csv"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0][0] == "avg_latency_s"
        assert len(rows) == 2

    def test_trace_file(self, runner, tmp_path):
        config = write(tmp_path, "config.yaml", CONFIG)
        trace = tmp_path / "trace.csv"
        result = runner.invoke(main, ["run", "--config", config, "--trace", str(trace)])
        assert result.exit_code == 0
        assert trace.exists()

    def test_missing_key_named_on_stderr(self, runner, tmp_path):
        config = write(tmp_path, "bad.yaml", """
            schema_version: 1
            scenario: {arrival_rte: 1.0}
            policy: {expression: '0'}
        """)
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 1
        assert "arrival_rte" in result.stderr
        assert result.stderr.startswith("error: config:")

    def test_seed_override_changes_results(self, runner, tmp_path):
        config = write(tmp_path, "config.yaml", CONFIG)
        a = runner.invoke(main, ["run", "--config", config, "--seed", "1"])
        b = runner.invoke(main, ["run", "--config", config, "--seed", "2"])
        c = runner.invoke(main, ["run", "--config", config, "--seed", "1"])
        assert a.output == c.output
        assert a.output != b.output


class TestSweepCompareAndPlot:
    def test_sweep_outputs_are_job_invariant(self, runner, tmp_path):
        config = write(tmp_path, "config.yaml", SWEEP_CONFIG)
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        r1 = runner.invoke(main, ["sweep", "--config", config, "--out", str(out1)])
        r2 = runner.invoke(main, ["sweep", "--config", config, "--out", str(out2),
                                  "--jobs", "2"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = list(csv.DictReader(open(out1)))
        assert len(rows) == 2 * 1 * 2 * 2

    def test_sweep_requires_study(self, runner, tmp_path):
        config = write(tmp_path, "config.yaml", CONFIG)
        result = runner.invoke(main, ["sweep", "--config", config,
                                      "--out", str(tmp_path / "r.csv")])
        assert result.exit_code == 1
        assert "study" in result.stderr

    def test_sweep_unwritable_out_fails_before_running(self, runner, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            pytest.fail("the sweep ran before its destination was opened")
        monkeypatch.setattr("greenlb.design.run_sweep", no_sweep)
        config = write(tmp_path, "config.yaml", SWEEP_CONFIG)
        result = runner.invoke(main, ["sweep", "--config", config,
                                      "--out", str(tmp_path / "missing" / "x.csv")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: io:")

    def test_compare_self_is_zero(self, runner, tmp_path):
        config = write(tmp_path, "config.yaml", SWEEP_CONFIG)
        out = tmp_path / "r.csv"
        runner.invoke(main, ["sweep", "--config", config, "--out", str(out)])
        result = runner.invoke(main, ["compare", str(out), str(out), "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["num_designs"] == 4
        assert all(d["delta_latency"] == 0.0 for d in report["designs"])
        assert report["fraction_below"]["latency"]["0.06"] == 1.0

    def test_plot_data_grouping(self, runner, tmp_path):
        config = write(tmp_path, "config.yaml", SWEEP_CONFIG)
        out = tmp_path / "r.csv"
        runner.invoke(main, ["sweep", "--config", config, "--out", str(out)])
        result = runner.invoke(main, ["plot-data", str(out), "--group-by", "q"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["ap_total_w", "avg_latency_s", "label"]
        assert len(rows) == 1 + 4  # one row per design, replications pooled
        labels = {row[2] for row in rows[1:]}
        assert labels == {"q=1", "q=5"}

    def test_plot_data_max_q_filters_designs(self, runner, tmp_path):
        config = write(tmp_path, "config.yaml", SWEEP_CONFIG)
        out = tmp_path / "r.csv"
        runner.invoke(main, ["sweep", "--config", config, "--out", str(out)])
        result = runner.invoke(main, ["plot-data", str(out), "--group-by", "q",
                                      "--max-q", "1"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert {row[2] for row in rows[1:]} == {"q=1"}

    @pytest.mark.parametrize("command", [
        ["compare", "{f}", "{f}"],
        ["plot-data", "{f}", "--group-by", "q", "--max-q", "5"],
    ])
    def test_results_without_q_rejected(self, runner, tmp_path, command):
        no_q = tmp_path / "no_q.csv"
        no_q.write_text("design_index,timeout,nd,avg_latency_s,total_power_w\n"
                        "0,1.0,random,1.5,100.0\n")
        result = runner.invoke(main, [arg.format(f=no_q) for arg in command])
        assert result.exit_code == 1
        assert result.stderr == "error: invalid: results file lacks required column 'q'\n"

    def test_plot_data_empty_results(self, runner, tmp_path):
        empty = tmp_path / "empty.csv"
        from greenlb.design import write_results_csv
        write_results_csv([], empty)
        result = runner.invoke(main, ["plot-data", str(empty), "--group-by", "TO"])
        assert result.exit_code == 0
        assert result.output.strip() == "ap_total_w,avg_latency_s,label"
