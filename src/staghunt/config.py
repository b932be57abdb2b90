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
from dataclasses import MISSING, fields
from pathlib import Path

from .experiments import AgentParams
from .game import PayoffMatrix


def load_config(path: str | Path | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"a config file must hold a JSON object, got {config!r}")
    return config


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _section(value, name: str) -> dict:
    """value, if it is a JSON object; else ValueError naming the config section."""
    if not isinstance(value, dict):
        raise ValueError(f"config section {name!r} must be an object, got {value!r}")
    return value


def _only_known(cls, raw: dict) -> dict:
    """raw, if it names every required field of cls and nothing else; else ValueError."""
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} config keys: {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(raw)
    if missing:
        raise ValueError(f"missing {cls.__name__} config keys: {sorted(missing)}")
    return raw


def build_spec(cls, section: str, config: dict, **overrides):
    """Build the spec cls from config[section], with the non-None overrides on top.

    Fields whose default is a tuple take a list and become tuples. A spec with a matrix
    takes it from the section's "matrix" dict, else from the "payoff"
    section, else from its default; a spec with agent_params builds them
    from the "agent" section, then the section's agent_overrides, then the
    caller's, dropping None values in the last two.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    agent_overrides = overrides.pop("agent_overrides", {})
    raw = dict(_section(config.get(section, {}), section))
    raw.update({k: v for k, v in overrides.items() if v is not None})
    for name, default in defaults.items():
        if isinstance(default, tuple) and name in raw:
            if not isinstance(raw[name], (list, tuple)):  # a string would become its characters
                raise ValueError(f"{section}.{name} must be a list, got {raw[name]!r}")
            raw[name] = tuple(raw[name])
    if "agent_params" in defaults:
        agent = dict(_section(config.get("agent", {}), "agent"))
        section_overrides = _section(raw.pop("agent_overrides", {}), f"{section}.agent_overrides")
        for layer in (section_overrides, agent_overrides):
            agent.update((k, v) for k, v in layer.items() if v is not None)
        raw["agent_params"] = AgentParams(**_only_known(AgentParams, agent))
    if "matrix" in defaults:
        matrix = (_section(raw.pop("matrix", {}), f"{section}.matrix")
                  or _section(config.get("payoff", {}), "payoff"))
        raw["matrix"] = (
            PayoffMatrix(**_only_known(PayoffMatrix, matrix)) if matrix else defaults["matrix"]
        )
    return cls(**_only_known(cls, raw))
