"""Grid-world Stag Hunt: simultaneous moves, a moving stag, static hares.

Two agents move on a small fully observable grid. Catching the stag needs
both agents on its cell in the same step (reward 4.0 each); a hare can be
taken alone (3.0 for the captor, 0.0 for the other) or simultaneously
(2.0 each); running out of time pays nothing. Those four reward levels are
exactly a Stag Hunt ordering, which is what lets episode labels feed the
same belief/guilt machinery as the matrix game.

Step order within a timestep: agents move simultaneously (blocked moves
resolve to Stay), the stag moves, then termination is checked:
joint stag capture first, then hare captures, then timeout.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import numpy as np

from .game import C, U, UNKNOWN, PayoffMatrix, PolicyLabel

Cell = tuple[int, int]


class GridAction(enum.Enum):
    LEFT = (-1, 0)
    UP = (0, -1)
    DOWN = (0, 1)
    RIGHT = (1, 0)
    STAY = (0, 0)

    @property
    def delta(self) -> Cell:
        return self.value


@dataclass(frozen=True, slots=True)
class GridConfig:
    width: int = 4
    height: int = 4
    obstacles: frozenset[Cell] = frozenset()
    hare_cells: frozenset[Cell] = frozenset()
    stag_start: Cell = (1, 0)
    agent_starts: tuple[Cell, Cell] = ((0, 1), (2, 1))
    t_max: int = 20
    reward_stag_joint: float = 4.0
    reward_hare_shared: float = 2.0
    reward_hare_alone: float = 3.0
    reward_left_out: float = 0.0
    stag_motion: str = "random_walk"  # or "static"

    def __post_init__(self):
        if self.stag_motion not in ("random_walk", "static"):
            raise ValueError(f"unknown stag motion: {self.stag_motion}")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        for name, cell in (("stag_start", self.stag_start), *(
            (f"agent_start[{i}]", c) for i, c in enumerate(self.agent_starts)
        ), *((f"hare {c}", c) for c in self.hare_cells)):
            if not self.in_bounds(cell):
                raise ValueError(f"{name} out of bounds: {cell}")
            if cell in self.obstacles:
                raise ValueError(f"{name} sits on an obstacle: {cell}")
        for i, start in enumerate(self.agent_starts):
            if start in self.hare_cells:
                raise ValueError(f"agent_start[{i}] may not be a hare cell: {start}")
        # The four reward levels must themselves form a Stag Hunt.
        self.label_payoffs()

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.obstacles

    def label_payoffs(self) -> PayoffMatrix:
        """The episode-label reward table as a PayoffMatrix (h, c, m, g)."""
        return PayoffMatrix(
            h=self.reward_stag_joint,
            c=self.reward_hare_alone,
            m=self.reward_hare_shared,
            g=self.reward_left_out,
        )


@dataclass(frozen=True, slots=True)
class GridState:
    agent_positions: tuple[Cell, Cell]
    stag_position: Cell
    timestep: int
    terminated: bool


@dataclass(frozen=True, slots=True)
class StepEvent:
    """Why and how an episode ended."""

    kind: str  # "stag_joint" | "hare" | "timeout"
    rewards: tuple[float, float]
    hare_captors: tuple[bool, bool]
    on_stag: tuple[bool, bool]


@dataclass(slots=True)
class EpisodeRecord:
    """One full episode: per-step transitions plus the terminal summary."""

    transitions: list[tuple[GridState, tuple[GridAction, GridAction], tuple[float, float], GridState]] = field(
        default_factory=list
    )
    terminal_rewards: tuple[float, float] = (0.0, 0.0)
    labels: tuple[PolicyLabel, PolicyLabel] = (UNKNOWN, UNKNOWN)
    event: StepEvent | None = None


def initial_state(config: GridConfig) -> GridState:
    return GridState(
        agent_positions=config.agent_starts,
        stag_position=config.stag_start,
        timestep=0,
        terminated=False,
    )


def _resolve_move(config: GridConfig, cell: Cell, action: GridAction) -> Cell:
    dx, dy = action.delta
    target = (cell[0] + dx, cell[1] + dy)
    return target if config.is_free(target) else cell


def _move_stag(config: GridConfig, stag: Cell, rng: np.random.Generator) -> Cell:
    if config.stag_motion == "static":
        return stag
    options = [stag]
    for action in (GridAction.LEFT, GridAction.UP, GridAction.DOWN, GridAction.RIGHT):
        dx, dy = action.delta
        target = (stag[0] + dx, stag[1] + dy)
        if config.is_free(target):
            options.append(target)
    return options[rng.integers(len(options))]


def step(
    state: GridState,
    config: GridConfig,
    actions: tuple[GridAction, GridAction],
    rng: np.random.Generator,
) -> tuple[GridState, StepEvent | None]:
    """Advance one timestep; returns the new state and a StepEvent on termination."""
    if state.terminated:
        raise ValueError("cannot step a terminated episode")

    positions = tuple(
        _resolve_move(config, pos, act) for pos, act in zip(state.agent_positions, actions)
    )
    stag = _move_stag(config, state.stag_position, rng)
    timestep = state.timestep + 1

    on_stag = tuple(pos == stag for pos in positions)
    on_hare = tuple(pos in config.hare_cells for pos in positions)

    event: StepEvent | None = None
    if all(on_stag):
        event = StepEvent(
            kind="stag_joint",
            rewards=(config.reward_stag_joint, config.reward_stag_joint),
            hare_captors=(False, False),
            on_stag=(True, True),
        )
    elif any(on_hare):
        if all(on_hare):
            rewards = (config.reward_hare_shared, config.reward_hare_shared)
        elif on_hare[0]:
            rewards = (config.reward_hare_alone, config.reward_left_out)
        else:
            rewards = (config.reward_left_out, config.reward_hare_alone)
        event = StepEvent(kind="hare", rewards=rewards, hare_captors=on_hare, on_stag=on_stag)
    elif timestep >= config.t_max:
        event = StepEvent(
            kind="timeout", rewards=(0.0, 0.0), hare_captors=(False, False), on_stag=on_stag
        )

    new_state = GridState(
        agent_positions=positions,
        stag_position=stag,
        timestep=timestep,
        terminated=event is not None,
    )
    return new_state, event


def label_episode(event: StepEvent) -> tuple[PolicyLabel, PolicyLabel]:
    """Classify both agents' episode behaviour from the termination event.

    Joint stag capture labels both C. A hare captor is U. An agent standing
    on the stag when the other took a hare still counts as hunting stag (C).
    Anyone who ended the episode with neither prey nor a spot on the stag is
    Unknown, which covers timeouts entirely.
    """
    if event.kind == "stag_joint":
        return (C, C)
    if event.kind == "timeout":
        return (UNKNOWN, UNKNOWN)
    labels = []
    for i in range(2):
        if event.hare_captors[i]:
            labels.append(U)
        elif event.on_stag[i]:
            labels.append(C)
        else:
            labels.append(UNKNOWN)
    return (labels[0], labels[1])


PolicyFn = Callable[[GridState, int, np.random.Generator], GridAction]


def run_episode(
    config: GridConfig,
    policy: PolicyFn,
    rng: np.random.Generator,
) -> EpisodeRecord:
    """Roll one episode to termination under a joint policy callable.

    `policy(state, agent_index, rng)` is queried for agent 0 then agent 1
    each step, so identical seeds replay identical episodes.
    """
    record = EpisodeRecord()
    state = initial_state(config)
    while not state.terminated:
        actions = (policy(state, 0, rng), policy(state, 1, rng))
        new_state, event = step(state, config, actions, rng)
        rewards = event.rewards if event is not None else (0.0, 0.0)
        record.transitions.append((state, actions, rewards, new_state))
        state = new_state
        if event is not None:
            record.terminal_rewards = event.rewards
            record.labels = label_episode(event)
            record.event = event
    return record


EPISODE_LOG_COLUMNS = (
    "step", "agent0_x", "agent0_y", "agent1_x", "agent1_y", "stag_x", "stag_y",
    "action_0", "action_1", "reward_0", "reward_1", "terminated",
)


def episode_transition_rows(record: EpisodeRecord) -> list[tuple]:
    """Flatten an episode into CSV rows (one per transition, pre-move state)."""
    rows = []
    for step_index, (state, actions, rewards, next_state) in enumerate(record.transitions):
        (a0x, a0y), (a1x, a1y) = state.agent_positions
        rows.append(
            (
                step_index, a0x, a0y, a1x, a1y,
                state.stag_position[0], state.stag_position[1],
                actions[0].name.lower(), actions[1].name.lower(),
                rewards[0], rewards[1], next_state.terminated,
            )
        )
    return rows


def config_from_dict(raw: dict) -> GridConfig:
    rewards = raw.get("rewards", {})
    return GridConfig(
        width=raw.get("width", 4),
        height=raw.get("height", 4),
        obstacles=frozenset(tuple(c) for c in raw.get("obstacles", [])),
        hare_cells=frozenset(tuple(c) for c in raw.get("hare_cells", [])),
        stag_start=tuple(raw["stag_start"]),
        agent_starts=tuple(tuple(c) for c in raw["agent_starts"]),
        t_max=raw.get("t_max", 20),
        reward_stag_joint=rewards.get("stag_joint", 4.0),
        reward_hare_shared=rewards.get("hare_shared", 2.0),
        reward_hare_alone=rewards.get("hare_alone", 3.0),
        reward_left_out=rewards.get("left_out", 0.0),
        stag_motion=raw.get("stag_motion", "random_walk"),
    )


SCENARIOS = ("near-stag", "near-hares")


def make_scenario(which: str) -> GridConfig:
    """Load one of the two shipped 4x4 layouts.

    "near-stag" starts both agents closer to the stag than to any hare;
    "near-hares" is the reverse. Exact coordinates live in the packaged
    JSON files, not in code.
    """
    name = which.replace("_", "-")
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {which!r}; expected one of {SCENARIOS}")
    fname = name.replace("-", "_") + ".json"
    raw = json.loads(resources.files("staghunt.data").joinpath(fname).read_text())
    return config_from_dict(raw)
