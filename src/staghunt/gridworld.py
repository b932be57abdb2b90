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

Each GridConfig is compiled once, when it is built, into integer tables
over cell numbers (`CompiledGrid`): where each move ends, the hares, the
stag's choices, and every way an episode can end (`episode_end`, looked up
by `CompiledGrid.end_index`). policy_learner.run_lanes steps episodes on
those ints; cells become (x, y) again only in `episode_transition_rows`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple, Sequence

from .game import C, U, UNKNOWN, PayoffMatrix, PolicyLabel

Cell = tuple[int, int]


class GridAction(enum.IntEnum):
    """A move; its number indexes the compiled move table and the policy rows."""

    LEFT = 0
    UP = 1
    DOWN = 2
    RIGHT = 3
    STAY = 4

    @property
    def delta(self) -> Cell:
        return ((-1, 0), (0, -1), (0, 1), (1, 0), (0, 0))[self]


# One timestep as the engine sees it: (agent 0's cell, agent 1's cell, the
# stag's cell, timestep), each cell numbered y * width + x.
State = tuple[int, int, int, int]


class End(NamedTuple):
    """How an episode ended: "stag_joint", "hare" or "timeout", both agents'
    terminal rewards and both agents' labels."""

    kind: str
    rewards: tuple[float, float]
    labels: tuple[PolicyLabel, PolicyLabel]


@dataclass(frozen=True, slots=True)
class CompiledGrid:
    """A layout as integer tables over cell numbers, and its label payoffs,
    built once per GridConfig."""

    move: tuple[tuple[int, ...], ...]  # move[cell][action]: where the move ends, blocked or not
    hare: tuple[bool, ...]
    # the stag's choices from each cell: stay, then each free cell LEFT, UP,
    # DOWN and RIGHT; None for a static stag, which draws nothing
    stag_options: tuple[tuple[int, ...], ...] | None
    starts: tuple[int, int, int]  # agent 0, agent 1, stag
    label_payoffs: PayoffMatrix  # the episode-label reward table as (h, c, m, g)
    ends: tuple[End, ...]  # episode_end of every (on_stag, on_hare), at end_index

    def end_index(self, a0: int, a1: int, stag: int) -> int:
        """Where ends holds the end of an episode whose last step left the agents on
        cells a0 and a1 and the stag on stag."""
        return (a0 == stag) + 2 * (a1 == stag) + 4 * self.hare[a0] + 8 * self.hare[a1]


STAG_MOTIONS = ("random_walk", "static")


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
    stag_motion: str = "random_walk"  # one of STAG_MOTIONS
    # built when the config is, from the fields above; not compared or hashed
    grid: CompiledGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # cell numbers and observation keys are ints made from these; a float or
        # bool would pass a bound and fail, or step a fraction, in the run
        for name in ("width", "height", "t_max"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"GridConfig.{name} must be an integer >= 1, got {value!r}")
        if self.stag_motion not in STAG_MOTIONS:
            raise ValueError(f"unknown stag motion: {self.stag_motion}")
        if len(self.agent_starts) != 2:
            raise ValueError(f"agent_starts must hold 2 cells, got {len(self.agent_starts)}")
        for cell in self.obstacles:
            if not self.in_bounds(cell):
                raise ValueError(f"obstacle out of bounds: {cell}")
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
        # The four reward levels must themselves form a Stag Hunt: _compile
        # builds their PayoffMatrix, which checks it.
        object.__setattr__(self, "grid", self._compile())

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def _compile(self) -> CompiledGrid:
        cells = [(x, y) for y in range(self.height) for x in range(self.width)]
        free = {cell: i for i, cell in enumerate(cells) if cell not in self.obstacles}
        # a move off the grid or onto an obstacle stays put
        move = tuple(
            tuple(free.get((x + dx, y + dy), i) for dx, dy in (a.delta for a in GridAction))
            for i, (x, y) in enumerate(cells)
        )
        options = None
        if self.stag_motion == "random_walk":  # the first four actions: LEFT, UP, DOWN, RIGHT
            options = tuple((i, *(to for to in moves[:4] if to != i)) for i, moves in enumerate(move))
        hare = tuple(cell in self.hare_cells for cell in cells)
        label_payoffs = PayoffMatrix(
            h=self.reward_stag_joint,
            c=self.reward_hare_alone,
            m=self.reward_hare_shared,
            g=self.reward_left_out,
        )
        ends = tuple(episode_end(self, (bool(i & 1), bool(i & 2)), (bool(i & 4), bool(i & 8)))
                     for i in range(16))
        return CompiledGrid(move, hare, options, tuple(
            free[cell] for cell in (*self.agent_starts, self.stag_start)
        ), label_payoffs, ends)


def episode_end(config: GridConfig, on_stag: tuple[bool, bool], on_hare: tuple[bool, bool]) -> End:
    """How an episode ends once a step leaves each agent on the stag's cell or not
    (on_stag) and on a hare or not (on_hare): a joint stag capture first, then
    hare captures, else a timeout.

    Joint stag capture labels both C. A hare captor is U. An agent standing
    on the stag when the other took a hare still counts as hunting stag (C).
    Anyone who ended the episode with neither prey nor a spot on the stag is
    Unknown, which covers timeouts entirely.
    """
    if all(on_stag):
        return End("stag_joint", (config.reward_stag_joint,) * 2, (C, C))
    if any(on_hare):
        alone, out = config.reward_hare_alone, config.reward_left_out
        rewards = (config.reward_hare_shared,) * 2 if all(on_hare) else (
            (alone, out) if on_hare[0] else (out, alone))
        first, second = (U if captor else C if stag else UNKNOWN
                         for captor, stag in zip(on_hare, on_stag))
        return End("hare", rewards, (first, second))
    return End("timeout", (0.0, 0.0), (UNKNOWN, UNKNOWN))


EPISODE_LOG_COLUMNS = (
    "step", "agent0_x", "agent0_y", "agent1_x", "agent1_y", "stag_x", "stag_y",
    "action_0", "action_1", "reward_0", "reward_1", "terminated",
)


def episode_transition_rows(
    width: int, transitions: Sequence[tuple[State, GridAction, GridAction]],
    terminal_rewards: Sequence[float],
) -> list[tuple]:
    """Flatten an episode on a grid of the given width into CSV rows: one per
    transition (pre-move state, both actions), rewards on the last."""
    last = len(transitions) - 1
    rows = []
    for step_index, ((a0, a1, stag, _), act0, act1) in enumerate(transitions):
        rewards = terminal_rewards if step_index == last else (0.0, 0.0)
        rows.append(
            (
                step_index, a0 % width, a0 // width, a1 % width, a1 // width,
                stag % width, stag // width, act0.name.lower(), act1.name.lower(),
                *rewards, step_index == last,
            )
        )
    return rows


_REWARD_KEYS = ("stag_joint", "hare_shared", "hare_alone", "left_out")
# how a layout file's cell lists become GridConfig's tuples and sets
_CELLS = {
    "obstacles": lambda cells: frozenset(map(tuple, cells)),
    "hare_cells": lambda cells: frozenset(map(tuple, cells)),
    "stag_start": tuple,
    "agent_starts": lambda cells: tuple(map(tuple, cells)),
}
_CONFIG_KEYS = ("width", "height", *_CELLS, "t_max", "stag_motion", "rewards")


def config_from_dict(raw: dict) -> GridConfig:
    """The GridConfig of a parsed layout; a key the layout leaves out takes
    GridConfig's default, and the rewards' keys are its reward_ fields."""
    rewards = raw.get("rewards", {})
    for what, given, known in (("grid", raw, _CONFIG_KEYS), ("grid reward", rewards, _REWARD_KEYS)):
        unknown = sorted(set(given) - set(known))
        if unknown:
            raise ValueError(f"unknown {what} keys {unknown}; expected some of {list(known)}")
    fields = {key: _CELLS.get(key, lambda v: v)(v) for key, v in raw.items() if key != "rewards"}
    return GridConfig(**fields, **{f"reward_{key}": v for key, v in rewards.items()})


SCENARIOS = ("near-stag", "near-hares")


def make_scenario(which: str) -> GridConfig:
    """Load one of the two shipped 4x4 layouts.

    "near-stag" starts both agents closer to the stag than to any hare;
    "near-hares" is the reverse. Exact coordinates live in the packaged
    JSON files, not in code.
    """
    if which not in SCENARIOS:
        raise ValueError(f"unknown scenario {which!r}; expected one of {SCENARIOS}")
    fname = which.replace("-", "_") + ".json"
    raw = json.loads(resources.files("staghunt.data").joinpath(fname).read_text())
    return config_from_dict(raw)
