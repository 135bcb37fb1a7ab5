"""Run configuration files: one YAML document, strictly validated.

A config carries up to four sections mirroring what a run needs::

    schema_version: 1
    scenario:            # workload, stop criterion, seed
      arrival_rate: 1.0
      service_time: 1.0
      num_servers: 4
      stop: {max_requests: 1500}      # and/or max_virtual_time
      warmup: 500.0
      seed: 42
      initial_state: sleep            # or "on" (quote it: bare on is YAML for true)
    power:               # Watts and seconds; keys carry units to stay YAML-safe
      on_w: 200.0
      suspend_w: 200.0
      wakeup_w: 200.0
      sleep_w: 14.0
      time_suspend_s: 10.0
      time_wakeup_s: 10.0
      timeout_s: 10.0                 # .inf keeps servers always on
    policy:
      expression: '-queueSize - dspace("q") * (1 - stateOn)'
      # or file: policy.lbp           # resolved relative to this config file
      nd: random                      # or fixed_order
      dspace: {q: 5}
    study:               # optional; enables `greenlb sweep`
      q: [1, 5, 20, 100]
      timeout: [1, 10, 30]
      nd: [random, fixed_order]
      replications: 10

Unknown keys are rejected and missing required keys are reported by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .cluster import PowerModel
from .design import DEFAULT_Q_VALUES, DEFAULT_TIMEOUT_VALUES, DesignSpace
from .engine import SimConfig, StopCriterion
from .policy import (
    NdResolution,
    PolicyError,
    PowerState,
    ServerSnapshot,
    parse_policy,
)

__all__ = ["ConfigError", "LoadedConfig", "load_config", "load_state_file", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A config or state file is malformed; the message names the offending key."""


@dataclass(slots=True)
class LoadedConfig:
    sim: SimConfig
    study: DesignSpace | None


def _load_yaml(path: Path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return doc


def _section(doc: dict, name: str, allowed: set[str], required: set[str] = frozenset()) -> dict:
    raw = doc.get(name) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {', '.join(sorted(map(str, unknown)))}")
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"missing required key(s) in '{name}': {', '.join(sorted(missing))}")
    return raw


def _number(section: dict, key: str, where: str, default: float) -> float:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}.{key}' must be a number")
    return float(value)


def _integer(section: dict, key: str, where: str, default: int) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}.{key}' must be an integer")
    return value


def _timeout_value(value, where: str) -> float:
    if isinstance(value, str) and value.strip().lower() in ("inf", ".inf", "infinity"):
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}' must be a number or 'inf'")
    return float(value)


def _nd_value(value, where: str) -> NdResolution:
    try:
        return NdResolution(value)
    except ValueError:
        raise ConfigError(
            f"'{where}' must be 'random' or 'fixed_order', got {value!r}"
        ) from None


def _state_value(value, where: str) -> PowerState:
    if value is True:  # bare `on` is a YAML 1.1 boolean
        value = "on"
    try:
        return PowerState(value)
    except (ValueError, TypeError):
        raise ConfigError(
            f"'{where}' must be one of on/suspend/sleep/wakeup, got {value!r}"
        ) from None


def _power_model(doc: dict) -> PowerModel:
    """The optional ``power`` section as a power model; absent keys take their defaults."""
    raw = _section(
        doc,
        "power",
        allowed={"on_w", "suspend_w", "wakeup_w", "sleep_w",
                 "time_suspend_s", "time_wakeup_s", "timeout_s"},
    )
    return PowerModel(
        p_on=_number(raw, "on_w", "power", 200.0),
        p_suspend=_number(raw, "suspend_w", "power", 200.0),
        p_wakeup=_number(raw, "wakeup_w", "power", 200.0),
        p_sleep=_number(raw, "sleep_w", "power", 14.0),
        t_suspend=_number(raw, "time_suspend_s", "power", 10.0),
        t_wakeup=_number(raw, "time_wakeup_s", "power", 10.0),
        timeout=_timeout_value(raw.get("timeout_s", 10.0), "power.timeout_s"),
    )


def _design_params(raw, where: str) -> dict[str, float]:
    """A mapping of design-parameter name to number, found at ``where``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where}' must be a mapping of name to number")
    params = {}
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"'{where}.{key}' must be a number")
        params[str(key)] = float(value)
    return params


def load_config(path: str | Path) -> LoadedConfig:
    """Load and validate a run config; study section is optional."""
    path = Path(path)
    doc = _load_yaml(path)
    top_allowed = {"schema_version", "scenario", "power", "policy", "study"}
    unknown = set(doc) - top_allowed
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(map(str, unknown)))}")
    if "schema_version" not in doc:
        raise ConfigError("missing required key: schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {doc['schema_version']!r} (expected {SCHEMA_VERSION})"
        )

    scenario = _section(
        doc,
        "scenario",
        allowed={"arrival_rate", "service_time", "num_servers", "stop", "warmup",
                 "seed", "initial_state", "num_batches"},
    )
    stop_raw = scenario.get("stop", {"max_requests": 1500})
    if not isinstance(stop_raw, dict):
        raise ConfigError("'scenario.stop' must be a mapping")
    stop_unknown = set(stop_raw) - {"max_requests", "max_virtual_time"}
    if stop_unknown:
        raise ConfigError(
            f"unknown key(s) in 'scenario.stop': {', '.join(sorted(map(str, stop_unknown)))}"
        )
    max_requests = stop_raw.get("max_requests")
    if max_requests is not None and (isinstance(max_requests, bool) or not isinstance(max_requests, int)):
        raise ConfigError("'scenario.stop.max_requests' must be an integer")
    max_virtual_time = stop_raw.get("max_virtual_time")
    if max_virtual_time is not None:
        max_virtual_time = _number(stop_raw, "max_virtual_time", "scenario.stop", 0.0)
    stop = StopCriterion(max_requests=max_requests, max_virtual_time=max_virtual_time)

    power = _power_model(doc)

    policy_raw = _section(doc, "policy", allowed={"expression", "file", "nd", "dspace"})
    if ("expression" in policy_raw) == ("file" in policy_raw):
        raise ConfigError("'policy' needs exactly one of: expression, file")
    if "expression" in policy_raw:
        text = policy_raw["expression"]
        if not isinstance(text, str):
            raise ConfigError("'policy.expression' must be a string")
    else:
        policy_path = path.parent / str(policy_raw["file"])
        try:
            text = policy_path.read_text()
        except OSError as exc:
            raise ConfigError(f"'policy.file': cannot read {policy_path}: {exc}") from None
    try:
        policy = parse_policy(text)
    except PolicyError as exc:
        raise ConfigError(f"'policy': {exc}") from None
    nd = _nd_value(policy_raw.get("nd", "random"), "policy.nd")
    design_params = _design_params(policy_raw.get("dspace", {}), "policy.dspace")

    initial_state = scenario.get("initial_state", "sleep")
    state = _state_value(initial_state, "scenario.initial_state")
    if state not in (PowerState.SLEEP, PowerState.ON):
        raise ConfigError("'scenario.initial_state' must be sleep or on")

    sim = SimConfig(
        num_servers=_integer(scenario, "num_servers", "scenario", 4),
        arrival_rate=_number(scenario, "arrival_rate", "scenario", 1.0),
        service_time=_number(scenario, "service_time", "scenario", 1.0),
        power=power,
        policy=policy,
        nd=nd,
        design_params=design_params,
        stop=stop,
        warmup=_number(scenario, "warmup", "scenario", 500.0),
        seed=_integer(scenario, "seed", "scenario", 1),
        initial_state=state,
        num_batches=_integer(scenario, "num_batches", "scenario", 20),
    )
    try:
        sim.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    study = None
    if "study" in doc:
        study_raw = _section(doc, "study", allowed={"q", "timeout", "nd", "replications"})
        q_values = study_raw.get("q", list(DEFAULT_Q_VALUES))
        timeout_values = study_raw.get("timeout", list(DEFAULT_TIMEOUT_VALUES))
        nd_values = study_raw.get("nd", ["random", "fixed_order"])
        if not isinstance(q_values, list) or not isinstance(timeout_values, list) \
                or not isinstance(nd_values, list):
            raise ConfigError("'study' dimensions must be lists")
        for key, values in (("q", q_values), ("timeout", timeout_values)):
            for v in values:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigError(f"'study.{key}' entries must be numbers")
        study = DesignSpace(
            q_values=list(q_values),
            timeout_values=[float(v) for v in timeout_values],
            nd_values=[_nd_value(v, "study.nd") for v in nd_values],
            replications=_integer(study_raw, "replications", "study", 10),
        )
        try:
            study.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    return LoadedConfig(sim=sim, study=study)


def load_state_file(path: str | Path) -> tuple[list[ServerSnapshot], PowerModel, dict]:
    """Load a server-snapshot file for `greenlb eval`.

    Layout::

        schema_version: 1
        design: {q: 5}                  # optional dspace bindings
        power: {sleep_w: 14.0}          # optional, defaults as in run configs
        servers:
          - {queue_size: 2, state: "on"}
          - {queue_size: 0, state: sleep}
    """
    path = Path(path)
    doc = _load_yaml(path)
    unknown = set(doc) - {"schema_version", "design", "power", "servers"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(map(str, unknown)))}")
    if "schema_version" not in doc:
        raise ConfigError("missing required key: schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {doc['schema_version']!r}")
    if "servers" not in doc:
        raise ConfigError("missing required key: servers")
    servers_raw = doc["servers"]
    if not isinstance(servers_raw, list) or not servers_raw:
        raise ConfigError("'servers' must be a non-empty list")

    power = _power_model(doc)

    design_params = _design_params(doc.get("design") or {}, "design")

    snapshots = []
    n = len(servers_raw)
    for i, entry in enumerate(servers_raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"'servers[{i}]' must be a mapping")
        entry_unknown = set(entry) - {"queue_size", "state"}
        if entry_unknown:
            raise ConfigError(
                f"unknown key(s) in 'servers[{i}]': {', '.join(sorted(map(str, entry_unknown)))}"
            )
        queue_size = _integer(entry, "queue_size", f"servers[{i}]", 0)
        if queue_size < 0:
            raise ConfigError(f"'servers[{i}].queue_size' must be non-negative")
        state = _state_value(entry.get("state", "sleep"), f"servers[{i}].state")
        snapshots.append(
            ServerSnapshot(
                id=i,
                num_servers=n,
                queue_size=queue_size,
                power_state=state,
                power_on=power.p_on,
                power_sleep=power.p_sleep,
                power_suspend=power.p_suspend,
                power_wakeup=power.p_wakeup,
                time_wakeup=power.t_wakeup,
                time_suspend=power.t_suspend,
                timeout_time=power.timeout,
                design_params=design_params,
            )
        )
    return snapshots, power, design_params
