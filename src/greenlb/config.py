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

Each section's keys map through one table onto the fields of the dataclass
it builds; an absent key is left out, so the dataclass default applies.  A
section must be a mapping, and ``null`` is an empty section.  Unknown keys
are rejected and missing required keys are reported by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .cluster import PowerModel, server_snapshot
from .design import DesignSpace
from .engine import SimConfig, StopCriterion
from .policy import NdResolution, PolicyError, PowerState, ServerSnapshot, parse_policy

__all__ = ["ConfigError", "LoadedConfig", "load_config", "load_state_file", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A config or state file is malformed; the message names the offending key."""


@dataclass(slots=True)
class LoadedConfig:
    sim: SimConfig
    study: DesignSpace | None


def _check_keys(raw: dict, allowed, where: str) -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{where}': {', '.join(sorted(map(str, unknown)))}")


def _document(path: Path, allowed: set[str]) -> dict:
    """The file's top-level mapping, with its keys and ``schema_version`` checked."""
    try:
        with open(path) as fh:
            doc = _mapping(yaml.safe_load(fh), str(path))
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    _check_keys(doc, allowed, str(path))
    if "schema_version" not in doc:
        raise ConfigError("missing required key: schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {doc['schema_version']!r} "
                          f"(expected {SCHEMA_VERSION})")
    return doc


def _mapping(raw, where: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    return raw


def _fields(raw, where: str, table: dict) -> dict:
    """The keys a section sets, as ``{field: value}``; ``table`` maps each allowed
    key to a (dataclass field, reader) pair, and a reader takes the value and its
    key path.  Keys the section leaves out stay absent, so the default applies."""
    raw = _mapping(raw, where)
    _check_keys(raw, table, where)
    fields = {}
    for key, value in raw.items():
        name, read = table[key]
        fields[name] = read(value, f"{where}.{key}")
    return fields


def _typed(kind, what: str, convert=None):
    """A reader that accepts a ``kind`` (never a bool) and applies ``convert``."""
    def read(value, where: str):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"'{where}' must be {what}")
        return convert(value) if convert else value
    return read


def _optional(read):
    return lambda value, where: None if value is None else read(value, where)


def _timeout(value, where: str) -> float:
    if isinstance(value, str) and value.strip().lower() in ("inf", ".inf", "infinity"):
        return math.inf
    return _typed((int, float), "a number or 'inf'", float)(value, where)


def _choice(kind):
    """A reader of one value of the enum ``kind``."""
    def read(value, where: str):
        try:
            return kind("on" if value is True else value)  # bare `on` is YAML 1.1 for true
        except ValueError:
            raise ConfigError(f"'{where}' must be one of "
                              f"{', '.join(m.value for m in kind)}, got {value!r}") from None
    return read


_number = _typed((int, float), "a number", float)
_integer = _typed(int, "an integer")
_string = _typed(str, "a string")
_nd = _choice(NdResolution)
_state = _choice(PowerState)


def _design_params(raw, where: str) -> dict[str, float]:
    """A mapping of design-parameter name to number, found at ``where``."""
    return {str(key): _number(value, f"{where}.{key}")
            for key, value in _mapping(raw, where).items()}


def _list_of(read, bound=None, what: str = ""):
    """A reader of a list whose entries pass ``read`` and then ``bound``."""
    def read_list(value, where: str) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"'{where}' must be a list")
        entries = [read(v, f"{where}[{i}]") for i, v in enumerate(value)]
        if bound and not all(map(bound, entries)):
            raise ConfigError(f"'{where}' entries must be {what}")
        return entries
    return read_list


_STOP = {
    "max_requests": ("max_requests", _optional(_integer)),
    "max_virtual_time": ("max_virtual_time", _optional(_number)),
}

_SCENARIO = {
    "arrival_rate": ("arrival_rate", _number),
    "service_time": ("service_time", _number),
    "num_servers": ("num_servers", _integer),
    "stop": ("stop", lambda raw, where: StopCriterion(**_fields(raw, where, _STOP))),
    "warmup": ("warmup", _number),
    "seed": ("seed", _integer),
    "initial_state": ("initial_state", _state),
}

_POWER = {
    "on_w": ("p_on", _number),
    "suspend_w": ("p_suspend", _number),
    "wakeup_w": ("p_wakeup", _number),
    "sleep_w": ("p_sleep", _number),
    "time_suspend_s": ("t_suspend", _number),
    "time_wakeup_s": ("t_wakeup", _number),
    "timeout_s": ("timeout", _timeout),
}

_POLICY = {
    "expression": ("expression", _string),
    "file": ("file", lambda value, where: str(value)),
    "nd": ("nd", _nd),
    "dspace": ("design_params", _design_params),
}

# the bounds every Design enforces, checked before a sweep starts; q stays as
# written (the results CSV prints it), and `v >= 0` is false for NaN
_STUDY = {
    "q": ("q_values", _list_of(_typed((int, float), "a number"), lambda v: v >= 0,
                               "non-negative")),
    "timeout": ("timeout_values", _list_of(_number, lambda v: v > 0, "positive")),
    "nd": ("nd_values", _list_of(_nd)),
    "replications": ("replications", _integer),
}

# A state file's servers have no dataclass to default from; these are its own.
_SERVER = {
    "queue_size": ("queue_size", _integer),
    "state": ("power_state", _state),
}
_SERVER_DEFAULTS = {"queue_size": 0, "power_state": PowerState.SLEEP}


def _policy_fields(raw, path: Path) -> dict:
    """The ``policy`` section: the parsed policy plus its ``nd`` and ``dspace``."""
    fields = _fields(raw, "policy", _POLICY)
    if ("expression" in fields) == ("file" in fields):
        raise ConfigError("'policy' needs exactly one of: expression, file")
    if "expression" in fields:
        text = fields.pop("expression")
    else:
        policy_path = path.parent / fields.pop("file")
        try:
            text = policy_path.read_text()
        except OSError as exc:
            raise ConfigError(f"'policy.file': cannot read {policy_path}: {exc}") from None
    try:
        fields["policy"] = parse_policy(text)
    except PolicyError as exc:
        raise ConfigError(f"'policy': {exc}") from None
    return fields


def load_config(path: str | Path) -> LoadedConfig:
    """Load and validate a run config; study section is optional."""
    path = Path(path)
    doc = _document(path, {"schema_version", "scenario", "power", "policy", "study"})
    sim = SimConfig(
        **_fields(doc.get("scenario"), "scenario", _SCENARIO),
        power=PowerModel(**_fields(doc.get("power"), "power", _POWER)),
        **_policy_fields(doc.get("policy"), path),
    )
    study = DesignSpace(**_fields(doc["study"], "study", _STUDY)) if "study" in doc else None
    try:
        sim.validate()
        if study is not None:
            study.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return LoadedConfig(sim=sim, study=study)


def load_state_file(path: str | Path) -> list[ServerSnapshot]:
    """Load the server snapshots of a state file for `greenlb eval`.

    Layout::

        schema_version: 1
        design: {q: 5}                  # optional dspace bindings
        power: {sleep_w: 14.0}          # optional, defaults as in run configs
        servers:                        # queue_size defaults to 0, state to sleep
          - {queue_size: 2, state: "on"}
          - {queue_size: 0, state: sleep}
    """
    path = Path(path)
    doc = _document(path, {"schema_version", "design", "power", "servers"})
    servers_raw = doc.get("servers")
    if not isinstance(servers_raw, list) or not servers_raw:
        raise ConfigError("'servers' must be a non-empty list")
    power = PowerModel(**_fields(doc.get("power"), "power", _POWER))
    try:
        power.validate()
    except ValueError as exc:
        raise ConfigError(f"'power': {exc}") from None
    design_params = _design_params(doc.get("design"), "design")

    snapshots = []
    for i, entry in enumerate(servers_raw):
        where = f"servers[{i}]"
        server = {**_SERVER_DEFAULTS, **_fields(entry, where, _SERVER)}
        try:
            snapshots.append(server_snapshot(i, len(servers_raw), **server, power=power,
                                             design_params=design_params))
        except ValueError as exc:
            raise ConfigError(f"'{where}': {exc}") from None
    return snapshots
