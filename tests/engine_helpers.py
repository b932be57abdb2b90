"""Entries to the engines that only the tests use.

The matrix engine's frozen per-player states, the scalar reference's inputs,
and the lanes built from them (lanes_of) and read back (lane_state); one
match, one agent's P(C) and one agent's TD(1) step, each a batch of one on the
production kernels; and the clipped surrogate and its gradient over a dict of
preference rows, on the grid-world learner's update kernel."""

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from staghunt.beliefs import ToMState, make_tom_state
from staghunt.experiments import MATRIX_VARIANTS, AgentParams, run_matches
from staghunt.game import C, U, PayoffMatrix, PolicyLabel
from staghunt.matrix_agents import MatrixLanes, values_for_cooperation_probability
from staghunt.policy_learner import ObsKey, _entropy_terms, _gradient, _Items
from staghunt.shaping import Beliefs, GuiltParams


@dataclass(frozen=True, slots=True)
class Exploration:
    """Softmax action selection: P(C) is a logistic over the value gap at the
    current temperature, which decays geometrically each iteration."""

    temperature: float = 1.0
    temperature_decay: float = 0.995

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError("softmax temperature must be > 0")


@dataclass(frozen=True, slots=True)
class MatrixAgentState:
    """A value learner for the one-shot game.

    guilt=None disables reward shaping entirely (the individual learner and
    the ToM-without-guilt variant); beliefs keep updating either way.
    """

    values: dict[PolicyLabel, float]
    tom: ToMState
    guilt: GuiltParams | None
    alpha: float
    gamma: float
    explore: Exploration

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


@dataclass(frozen=True, slots=True)
class PavlovState:
    """Cooperates with probability i/n; i moves by one on match/mismatch."""

    i_count: int
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("Pavlov resolution n must be positive")
        if not 0 <= self.i_count <= self.n:
            raise ValueError(f"i_count must lie in [0, {self.n}], got {self.i_count}")


MatrixPlayer = Union[MatrixAgentState, PavlovState]


def make_matrix_agent(
    variant: str, params: AgentParams, initial_p_cooperate: float = 0.5
) -> MatrixAgentState:
    """Build a matrix-form learner variant with its softmax P(C) preset, written
    apart from experiments.matrix_lanes, which the tests hold against it."""
    if variant not in MATRIX_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {MATRIX_VARIANTS}")
    return MatrixAgentState(
        values=values_for_cooperation_probability(
            initial_p_cooperate, params.temperature, params.prob_clamp
        ),
        tom=make_tom_state(params.zero_order, params.first_order, params.confidence,
                           params.learning_rate, tom_enabled=(variant != "ga-no-tom")),
        guilt=GuiltParams(params.theta) if variant in ("tomaga", "ga-no-tom") else None,
        alpha=params.alpha,
        gamma=params.gamma,
        explore=Exploration(params.temperature, params.temperature_decay),
    )


def _lane(player: MatrixPlayer) -> dict:
    """A player's lane: every column of MatrixLanes for it."""
    if isinstance(player, PavlovState):
        # a Pavlov lane's value-learner columns: no step, lookahead or decay
        return dict(v_c=0.0, v_u=0.0, temp=1.0, alpha=0.0, gamma=0.0, decay=1.0,
                    pavlov=True, i_count=player.i_count, n=player.n)
    explore = player.explore
    return dict(
        v_c=player.values[C], v_u=player.values[U], temp=explore.temperature,
        alpha=player.alpha, gamma=player.gamma, decay=explore.temperature_decay,
        # an inert Pavlov count, 0 of 1: its rule is thrown away
        pavlov=False, i_count=0, n=1,
    )


def lanes_of(players: Sequence[MatrixPlayer]) -> MatrixLanes:
    """The players as MatrixLanes, lane k for players[k]; a Pavlov lane's belief slot
    is inert (learning rate 0, no guilt)."""
    lanes = [_lane(player) for player in players]
    inert = make_tom_state(learning_rate=0.0)
    learners = [(inert, None) if isinstance(player, PavlovState) else (player.tom, player.guilt)
                for player in players]
    return MatrixLanes(
        {name: [lane[name] for lane in lanes] for name in lanes[0]},
        Beliefs([tom for tom, _ in learners], [guilt for _, guilt in learners]),
    )


def lane_state(lanes: MatrixLanes, k: int) -> MatrixPlayer:
    """Lane k as a frozen state, read from its columns and belief slot."""
    if lanes.pavlov[k]:
        return PavlovState(int(lanes.i_count[k]), int(lanes.n[k]))
    neg_theta = float(lanes.beliefs.neg_theta[k])
    return MatrixAgentState(
        values={C: float(lanes.v_c[k]), U: float(lanes.v_u[k])},
        tom=lanes.beliefs.state(k),
        guilt=GuiltParams(-neg_theta) if neg_theta else None,
        alpha=float(lanes.alpha[k]),
        gamma=float(lanes.gamma[k]),
        explore=Exploration(float(lanes.temp[k]), float(lanes.decay[k])),
    )


def run_match(agents, matrix, iterations, rng, trace=None):
    """One match, as run_matches with one pair: final agents and the action history.

    Pass a list as trace to also collect one TRACE_COLUMNS row per iteration.
    """
    traces = None if trace is None else [trace]
    lanes = lanes_of(agents)
    actions = run_matches(lanes, matrix, iterations, [rng], traces)
    history = [(C if a0 else U, C if a1 else U) for a0, a1 in actions.tolist()]
    return (lane_state(lanes, 0), lane_state(lanes, 1)), history


def cooperation_probability(agent: MatrixAgentState) -> float:
    """The agent's current probability of playing C under its exploration rule."""
    return float(lanes_of([agent]).p_cooperate()[0])


def td1_update(
    agent: MatrixAgentState,
    taken: PolicyLabel,
    shaped_reward: float,
    matrix: PayoffMatrix,
) -> MatrixAgentState:
    """MatrixLanes.td1 on a frozen agent."""
    lanes = lanes_of([agent])
    lanes.td1(np.array([taken is C]), np.array([shaped_reward], dtype=float), matrix)
    return lane_state(lanes, 0)


# One batch item: (observation key, action index, behaviour probability of
# that action when it was taken, advantage).
BatchItem = tuple[ObsKey, int, float, float]


def _gather(preferences: dict[ObsKey, np.ndarray], batch: Sequence[BatchItem], clip_ratio: float):
    """The batch's distinct keys (first appearance first), their rows as the columns
    of an (N_ACTIONS, rows) array, and its items."""
    slots: dict[ObsKey, int] = {}
    rows = [slots.setdefault(key, len(slots)) for key, _, _, _ in batch]
    _, actions, old_p, adv = zip(*batch)
    prefs = np.array([preferences[key] for key in slots]).T
    return list(slots), prefs, _Items.build(rows, list(actions), old_p, adv, clip_ratio)


def surrogate_objective(
    preferences: dict[ObsKey, np.ndarray],
    batch: Sequence[BatchItem],
    clip_ratio: float,
    entropy_weight: float,
) -> float:
    """Clipped surrogate plus entropy bonus, as a pure function of preferences."""
    _, prefs, items = _gather(preferences, batch, clip_ratio)
    probs, ratio = items.probs_and_ratios(prefs)
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio)
    surrogate = np.minimum(ratio * items.adv, clipped * items.adv)
    neg_entropy, _ = _entropy_terms(probs)
    return float(np.sum(surrogate) - entropy_weight * np.sum(neg_entropy))


def surrogate_gradient(
    preferences: dict[ObsKey, np.ndarray],
    batch: Sequence[BatchItem],
    clip_ratio: float,
    entropy_weight: float,
) -> dict[ObsKey, np.ndarray]:
    """Analytic gradient of surrogate_objective w.r.t. every preference entry:
    policy_learner._gradient, the update's kernel, on the batch."""
    keys, prefs, items = _gather(preferences, batch, clip_ratio)
    return dict(zip(keys, _gradient(prefs, items, entropy_weight).T))
