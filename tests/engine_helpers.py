"""Entries to the engines that only the tests use.

The matrix engine's frozen per-player states, the scalar reference's inputs,
and the lanes built from them (lanes_of) and read back (lane_state); a belief
slot as a ToMState (belief_state); one match, one agent's P(C) and one agent's
TD(1) step, each a batch of one on the production kernels; a round of pairs as
MatrixLanes.play takes it (pairing); a grid-world learner's settings built one
learner at a time (grid_learner), the reference for
experiments.gridworld_lanes; a learner config at fixed settings
(learner_config), a policy's own preference rows (preferences); and the
clipped surrogate and its gradient over a dict of preference rows, on the
grid-world learner's update kernel."""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence, Union

import numpy as np

from staghunt.beliefs import Belief, ToMState, make_tom_state
from staghunt.experiments import MATRIX_VARIANTS, AgentParams, GridworldSpec, run_matches
from staghunt.game import C, U, PayoffMatrix, PolicyLabel
from staghunt.matrix_agents import MatrixLanes, values_for_cooperation_probability
from staghunt.policy_learner import (
    LearnerConfig,
    ObsKey,
    PolicyParams,
    PolicyTable,
    _entropy_terms,
    _gradient,
    _Items,
)
from staghunt.shaping import Beliefs, GuiltParams, InequityParams


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


def belief_state(beliefs: Beliefs, k: int) -> ToMState:
    """Slot k of beliefs as a ToMState."""
    return ToMState(Belief(float(beliefs.b[0, k])), Belief(float(beliefs.b[1, k])),
                    float(beliefs.conf[k]), float(beliefs.lr[k]), bool(beliefs.tom[k]))


def lane_state(lanes: MatrixLanes, k: int) -> MatrixPlayer:
    """Lane k as a frozen state, read from its columns and belief slot."""
    if lanes.pavlov[k]:
        return PavlovState(int(lanes.i_count[k]), int(lanes.n[k]))
    neg_theta = float(lanes.beliefs.neg_theta[k])
    return MatrixAgentState(
        values={C: float(lanes.v_c[k]), U: float(lanes.v_u[k])},
        tom=belief_state(lanes.beliefs, k),
        guilt=GuiltParams(-neg_theta) if neg_theta else None,
        alpha=float(lanes.alpha[k]),
        gamma=float(lanes.gamma[k]),
        explore=Exploration(float(lanes.temp[k]), float(lanes.decay[k])),
    )


def pairing(n: int, first, second, u_first, u_second):
    """A round of the disjoint pairs (first[k], second[k]) among n lanes, with draws
    u_first[k] and u_second[k], as MatrixLanes.play takes it: (u, opponent, playing).
    A lane in no pair draws NaN and faces itself; playing is None when every lane plays."""
    u = np.full(n, np.nan)
    u[first], u[second] = u_first, u_second
    opponent = np.arange(n)
    opponent[first], opponent[second] = second, first
    playing = None
    if 2 * len(first) < n:
        playing = np.zeros(n, dtype=bool)
        playing[first] = playing[second] = True
    return u, opponent, playing


def run_match(agents, matrix, iterations, rng, trace=None):
    """One match, as run_matches with one pair: final agents and the action history.

    Pass a list as trace to also collect one TRACE_COLUMNS row per iteration.
    """
    traces = None if trace is None else [trace]
    lanes = lanes_of(agents)
    actions = run_matches(lanes, matrix, iterations, [rng], [0], traces)
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


def grid_learner(variant: str, spec: GridworldSpec) -> SimpleNamespace:
    """A grid-world learner variant's settings from its spec, built for one learner
    as the per-learner setup did, apart from experiments.gridworld_lanes, which the
    tests hold against it: its policy table's config (hyper), its beliefs (tom),
    guilt and inequity shaping."""
    hyper = LearnerConfig(
        step_size=spec.step_size, gamma=spec.gamma, clip_ratio=spec.clip_ratio,
        epochs=spec.epochs, entropy_weight=spec.entropy_weight,
        time_bucket_width=spec.time_bucket_width,
    )
    tom = make_tom_state(spec.zero_order, spec.first_order, spec.confidence,
                         spec.learning_rate, tom_enabled=(variant == "tomaga"))
    guilt = GuiltParams(spec.theta) if variant in ("tomaga", "ga-no-tom") else None
    inequity = None
    if variant == "inequity":
        inequity = InequityParams(spec.inequity_advantageous, spec.inequity_disadvantageous)
    return SimpleNamespace(hyper=hyper, tom=tom, guilt=guilt, inequity=inequity)


def learner_config(**changes) -> LearnerConfig:
    """A LearnerConfig at step size 0.05, gamma 0.99, clip ratio 0.2, 4 epochs, entropy
    weight 0.01 and time bucket width 1, with changes made."""
    settings = dict(step_size=0.05, gamma=0.99, clip_ratio=0.2, epochs=4, entropy_weight=0.01,
                    time_bucket_width=1)
    return LearnerConfig(**{**settings, **changes})


def new_policy(**changes) -> PolicyParams:
    """A policy with no rows, alone on a table under learner_config(**changes)."""
    return PolicyParams(PolicyTable(learner_config(**changes)))


def preferences(policy: PolicyParams) -> np.ndarray:
    """The policy's own rows of its table's preferences, in the order of rows: a copy."""
    return policy.table.prefs[list(policy.rows.values())]


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
