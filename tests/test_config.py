"""Config and state-file loading tests."""

import math
import textwrap

import pytest

from greenlb.config import ConfigError, load_config, load_state_file
from greenlb.design import DesignSpace, enumerate_designs
from greenlb.engine import SimConfig
from greenlb.policy import NdResolution, PowerState, parse_policy


BASIC = """
schema_version: 1
scenario:
  arrival_rate: 1.0
  service_time: 1.0
  num_servers: 4
  stop: {max_requests: 1500}
  warmup: 500.0
  seed: 42
power:
  on_w: 200.0
  sleep_w: 14.0
  timeout_s: 10.0
policy:
  expression: '-queueSize - dspace("q") * (1 - stateOn)'
  nd: random
  dspace: {q: 5}
study:
  q: [1, 5]
  timeout: [1, 10]
  nd: [random, fixed_order]
  replications: 3
"""


def write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


class TestLoadConfig:
    def test_full_config(self, tmp_path):
        loaded = load_config(write(tmp_path, BASIC))
        sim = loaded.sim
        assert sim.num_servers == 4
        assert sim.stop.max_requests == 1500
        assert sim.seed == 42
        assert sim.design_params == {"q": 5.0}
        assert sim.nd is NdResolution.RANDOM_FRACTION
        assert loaded.study.replications == 3
        assert loaded.study.q_values == [1, 5]
        assert loaded.study.nd_values == [NdResolution.RANDOM_FRACTION,
                                          NdResolution.FIXED_ORDER]

    def test_defaults_fill_in(self, tmp_path):
        loaded = load_config(write(tmp_path, """
            schema_version: 1
            policy: {expression: '-queueSize'}
        """))
        sim = loaded.sim
        assert sim.num_servers == 4
        assert sim.arrival_rate == 1.0
        assert sim.power.p_sleep == 14.0
        assert sim.stop.max_requests == 1500
        assert sim.warmup == 500.0
        assert sim.initial_state is PowerState.SLEEP
        assert sim == SimConfig(policy=parse_policy("-queueSize"))
        assert loaded.study is None

    @pytest.mark.parametrize("study", ["{}", "null"])
    def test_empty_study_takes_the_design_space_defaults(self, tmp_path, study):
        loaded = load_config(write(tmp_path, f"""
            schema_version: 1
            policy: {{expression: '0'}}
            study: {study}
        """))
        assert enumerate_designs(loaded.study) == enumerate_designs(DesignSpace())
        assert loaded.study.replications == DesignSpace().replications

    @pytest.mark.parametrize("section, value", [
        ("scenario", "[]"),
        ("power", "0"),
        ("study", "false"),
        ("policy", "'-queueSize'"),
    ])
    def test_section_that_is_not_a_mapping_rejected(self, tmp_path, section, value):
        doc = {"schema_version": "1", "policy": "{expression: '0'}", section: value}
        text = "\n".join(f"{key}: {val}" for key, val in doc.items())
        with pytest.raises(ConfigError, match=rf"'{section}' must be a mapping"):
            load_config(write(tmp_path, text))

    def test_null_section_is_empty(self, tmp_path):
        loaded = load_config(write(tmp_path, """
            schema_version: 1
            scenario: null
            power:
            policy: {expression: '-queueSize'}
        """))
        assert loaded.sim == SimConfig(policy=parse_policy("-queueSize"))

    def test_missing_schema_version(self, tmp_path):
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write(tmp_path, "policy: {expression: '0'}"))

    def test_wrong_schema_version(self, tmp_path):
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write(tmp_path, "schema_version: 99\npolicy: {expression: '0'}"))

    def test_missing_policy(self, tmp_path):
        with pytest.raises(ConfigError, match="policy"):
            load_config(write(tmp_path, "schema_version: 1"))

    def test_policy_needs_exactly_one_source(self, tmp_path):
        with pytest.raises(ConfigError, match="policy"):
            load_config(write(tmp_path, """
                schema_version: 1
                policy: {expression: '0', file: p.lbp}
            """))

    def test_policy_file_resolved_relative_to_config(self, tmp_path):
        (tmp_path / "p.lbp").write_text("# shortest queue\n-queueSize\n")
        loaded = load_config(write(tmp_path, """
            schema_version: 1
            policy: {file: p.lbp}
        """))
        assert loaded.sim.policy is not None

    def test_policy_syntax_error_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="line"):
            load_config(write(tmp_path, """
                schema_version: 1
                policy: {expression: '1 +'}
            """))

    def test_infinite_timeout(self, tmp_path):
        for literal in (".inf", "inf"):
            loaded = load_config(write(tmp_path, f"""
                schema_version: 1
                power: {{timeout_s: {literal}}}
                policy: {{expression: '0'}}
            """, name=f"c_{literal.strip('.')}.yaml"))
            assert math.isinf(loaded.sim.power.timeout)

    def test_initial_state_on_including_yaml_boolean(self, tmp_path):
        for literal in ('"on"', "on"):
            loaded = load_config(write(tmp_path, f"""
                schema_version: 1
                scenario: {{initial_state: {literal}}}
                policy: {{expression: '0'}}
            """, name=f"c{len(literal)}.yaml"))
            assert loaded.sim.initial_state is PowerState.ON

    def test_invalid_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, """
                schema_version: 1
                scenario: {arrival_rate: -1}
                policy: {expression: '0'}
            """))
        # NaN fails every comparison, so `x < 0` would let it through
        with pytest.raises(ConfigError, match="t_wakeup must be non-negative"):
            load_config(write(tmp_path, """
                schema_version: 1
                power: {time_wakeup_s: .nan}
                policy: {expression: '0'}
            """, name="c3.yaml"))
        with pytest.raises(ConfigError, match="warmup must be non-negative"):
            load_config(write(tmp_path, """
                schema_version: 1
                scenario: {warmup: .nan}
                policy: {expression: '0'}
            """, name="c4.yaml"))
        with pytest.raises(ConfigError, match="nd"):
            load_config(write(tmp_path, """
                schema_version: 1
                policy: {expression: '0', nd: coin_flip}
            """, name="c2.yaml"))

    @pytest.mark.parametrize("key, values", [
        ("q", "[-1, 5]"), ("timeout", "[0, 10]"), ("q", "[.nan]"),
    ])
    def test_out_of_range_study_values_rejected_at_load(self, tmp_path, key, values):
        # a sweep would otherwise start and fail on its first design
        with pytest.raises(ConfigError, match=rf"'study\.{key}'"):
            load_config(write(tmp_path, f"""
                schema_version: 1
                policy: {{expression: '0'}}
                study: {{{key}: {values}}}
            """))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")


class TestLoadStateFile:
    def test_snapshots(self, tmp_path):
        snaps = load_state_file(write(tmp_path, """
            schema_version: 1
            design: {q: 5}
            servers:
              - {queue_size: 2, state: "on"}
              - {queue_size: 0, state: sleep}
              - {queue_size: 1, state: wakeup}
        """))
        assert [s.id for s in snaps] == [0, 1, 2]
        assert snaps[0].power_state is PowerState.ON
        assert snaps[0].queue_size == 2
        assert snaps[1].power_state is PowerState.SLEEP
        assert snaps[2].power_state is PowerState.WAKEUP
        assert snaps[0].num_servers == 3
        assert snaps[0].design_params == {"q": 5.0}
        assert snaps[0].power_sleep == 14.0

    def test_requires_servers(self, tmp_path):
        with pytest.raises(ConfigError, match="servers"):
            load_state_file(write(tmp_path, "schema_version: 1"))

    def test_bad_state_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="state"):
            load_state_file(write(tmp_path, """
                schema_version: 1
                servers: [{queue_size: 0, state: hibernating}]
            """))

    @pytest.mark.parametrize("power, message", [
        ("{timeout_s: 0}", "timeout must be positive"),
        ("{sleep_w: -1}", "p_sleep must be non-negative"),
        ("{sleep_w: .nan}", "p_sleep must be non-negative"),
    ])
    def test_power_model_is_validated(self, tmp_path, power, message):
        # the same checks a run config's power section gets
        with pytest.raises(ConfigError, match=rf"^'power': .*{message}"):
            load_state_file(write(tmp_path, f"""
                schema_version: 1
                power: {power}
                servers: [{{queue_size: 0}}]
            """))


POLICY = "policy: {expression: '0'}"
SERVERS = "servers: [{queue_size: 0}]"


@pytest.mark.parametrize("load, text, where, key", [
    (load_config, f"scenario: {{arrival_rte: 2.0}}\n{POLICY}", "'scenario'", "arrival_rte"),
    (load_config, f"scenario: {{num_batches: 20}}\n{POLICY}", "'scenario'", "num_batches"),
    (load_config, f"scenario: {{stop: {{max_request: 5}}}}\n{POLICY}", "'scenario.stop'",
     "max_request"),
    (load_config, f"power: {{sleep: 14.0}}\n{POLICY}", "'power'", "sleep"),
    (load_config, "policy: {expression: '0', nd_mode: random}", "'policy'", "nd_mode"),
    (load_config, f"study: {{replication: 2}}\n{POLICY}", "'study'", "replication"),
    (load_config, f"scnario: {{}}\n{POLICY}", "'.*config.yaml'", "scnario"),
    (load_state_file, "servers: [{queue_len: 0}]", r"'servers\[0\]'", "queue_len"),
    (load_state_file, f"{SERVERS}\npower: {{sleep: 14.0}}", "'power'", "sleep"),
    (load_state_file, f"{SERVERS}\ndesgin: {{q: 5}}", "'.*config.yaml'", "desgin"),
], ids=["scenario", "scenario-num_batches", "scenario.stop", "power", "policy", "study", "config",
        "servers[0]", "state-power", "state-file"])
def test_unknown_key_is_named_with_its_path(tmp_path, load, text, where, key):
    with pytest.raises(ConfigError, match=rf"^unknown key\(s\) in {where}: {key}$"):
        load(write(tmp_path, f"schema_version: 1\n{text}"))
