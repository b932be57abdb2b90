"""Experiment configuration: JSON files merged over package defaults.

A config file may carry any subset of the sections below; omitted fields
fall back to the SweepSpec / TournamentSpec / GridworldSpec defaults.

    {
      "payoff":     {"h": 40, "c": 30, "m": 20, "g": 0},
      "agent":      {"theta": 200, "alpha": 0.1, "first_order": 0.5, ...},
      "sweep":      {"probabilities": [...], "iterations": 500, ...},
      "tournament": {"group_sizes": [2, 4, 8], "rounds": 5000, ...},
      "gridworld":  {"scenarios": [...], "variants": [...], "theta": 2.0, ...}
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

from .experiments import AgentParams
from .game import PayoffMatrix


def load_config(path: str | Path | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _only_known(cls, raw: dict) -> dict:
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} config keys: {sorted(unknown)}")
    return raw


def build_payoff(config: dict, default: PayoffMatrix) -> PayoffMatrix:
    raw = config.get("payoff")
    if not raw:
        return default
    return PayoffMatrix(h=raw["h"], c=raw["c"], m=raw["m"], g=raw["g"])


def build_agent_params(config: dict, **overrides) -> AgentParams:
    raw = dict(config.get("agent", {}))
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return AgentParams(**_only_known(AgentParams, raw))


def build_spec(cls, section: str, config: dict, **overrides):
    """Build the spec cls from config[section], with the non-None overrides on top.

    Fields whose default is a tuple become tuples. A spec with a matrix
    takes it from the section (as a dict), else from the "payoff" section,
    else from its default; a spec with agent_params builds them from the
    "agent" section, then the section's agent_overrides, then the caller's.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    agent_overrides = overrides.pop("agent_overrides", {})
    raw = dict(config.get(section, {}))
    raw.update({k: v for k, v in overrides.items() if v is not None})
    for name, default in defaults.items():
        if isinstance(default, tuple) and name in raw:
            raw[name] = tuple(raw[name])
    if "agent_params" in defaults:
        agent = dict(raw.pop("agent_overrides", {}))
        agent.update((k, v) for k, v in agent_overrides.items() if v is not None)
        raw["agent_params"] = build_agent_params(config, **agent)
    if "matrix" in defaults:
        matrix = raw.pop("matrix", None)
        if isinstance(matrix, dict):
            matrix = PayoffMatrix(**matrix)
        raw["matrix"] = matrix or build_payoff(config, defaults["matrix"])
    return cls(**_only_known(cls, raw))
