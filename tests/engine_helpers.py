"""Entries to the engines that only the tests use.

The matrix engine's frozen per-player states, the scalar reference's inputs,
and the lanes built from them (lanes_of) and read back (lane_state); a belief
slot as a ToMState (belief_state); one match, one agent's P(C) and one agent's
TD(1) step, each a batch of one on the production kernels; a round of pairs as
MatrixLanes.play takes it (pairing); the fraction of phi cells with a unique
(C, C) equilibrium, per theta (unique_cc_fraction_by_theta); a learner
config at fixed settings (learner_config), a policy's own preference rows
(preferences); an episode's discounted returns (discounted_returns), the
reference for policy_learner._returns; and the clipped surrogate and its
gradient over a dict of preference rows, on the grid-world learner's update
kernel.

The grid world's per-episode play, the reference for policy_learner.run_lanes'
flat batch: run_episode under a policy callable, its EpisodeRecord and the
StepEvent rule that labels it, and the per-episode iteration built on them
(play_iteration, shape_guilt_by_episode, reference_lanes and reference_detail,
which replays one run as experiments.run_gridworld_detail does); an update of
ShapedEpisodes on the production update (update_episodes); an episode's rows of
gridworld.episode_transition_rows (record_rows); and a Batch's lanes in the
reference's shape (outcomes)."""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from scalar_beliefs import Belief, ToMState, beliefs_of, make_tom_state
from staghunt.experiments import (
    GRIDWORLD_DETAIL_COLUMNS,
    MATRIX_VARIANTS,
    AgentParams,
    GridworldSpec,
    RunResult,
    gridworld_lanes,
    gridworld_run,
    run_matches,
)
from staghunt.equilibrium import _ne_flags_grid
from staghunt.game import C, KNOWN_LABELS, U, UNKNOWN, PayoffMatrix, PolicyLabel
from staghunt.gridworld import GridAction, GridConfig, State, episode_transition_rows
from staghunt.matrix_agents import MatrixLanes, values_for_cooperation_probability
from staghunt.policy_learner import (
    ACTIONS,
    N_ACTIONS,
    Batch,
    GridLearner,
    Lane,
    LearnerConfig,
    ObsKey,
    PolicyParams,
    PolicyTable,
    _entropy_terms,
    _gradient,
    _Items,
    _softmax,
    update_policies,
)
from staghunt.shaping import (
    Beliefs,
    GuiltParams,
    inequity_reward,
    shape_reward,
)


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
        beliefs_of([tom for tom, _ in learners], [guilt for _, guilt in learners]),
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


def unique_cc_fraction_by_theta(
    matrix: PayoffMatrix, phi_grid: Sequence[float], theta_grid: Sequence[float]
) -> np.ndarray:
    """Fraction of phi cells with a unique (C,C) equilibrium, per theta value."""
    phi = np.asarray(list(phi_grid), dtype=np.float64)
    theta = np.asarray(list(theta_grid), dtype=np.float64)
    flags = _ne_flags_grid(matrix, phi, theta)
    return flags["unique_cc"].mean(axis=0)


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


# --- the grid world's per-episode play ---------------------------------------------
#
# run_episode and play_iteration as they were before the flat batch, with the
# per-episode objects they returned; run_lanes must reproduce them bit for bit.


@dataclass(frozen=True, slots=True)
class StepEvent:
    """Why and how an episode ended."""

    kind: str  # "stag_joint" | "hare" | "timeout"
    rewards: tuple[float, float]
    hare_captors: tuple[bool, bool]
    on_stag: tuple[bool, bool]


@dataclass(slots=True)
class EpisodeRecord:
    """One full episode: each step's pre-move state and actions, plus how it ended."""

    config: GridConfig
    transitions: list[tuple[State, GridAction, GridAction]]
    terminal_rewards: tuple[float, float]
    labels: tuple[PolicyLabel, PolicyLabel]
    event: StepEvent


def label_episode(event: StepEvent) -> tuple[PolicyLabel, PolicyLabel]:
    """Classify both agents' episode behaviour from the termination event.

    Joint stag capture labels both C. A hare captor is U. An agent standing
    on the stag when the other took a hare still counts as hunting stag (C).
    Anyone who ended the episode with neither prey nor a spot on the stag is
    Unknown, which covers timeouts entirely.
    """
    if event.kind == "timeout":
        return (UNKNOWN, UNKNOWN)
    # a joint capture has both agents on the stag and neither on a hare
    first, second = (
        U if captor else C if on_stag else UNKNOWN
        for captor, on_stag in zip(event.hare_captors, event.on_stag)
    )
    return (first, second)


PolicyFn = Callable[[State, int, np.random.Generator], GridAction]


def run_episode(
    config: GridConfig,
    policy: PolicyFn,
    rng: np.random.Generator,
) -> EpisodeRecord:
    """Roll one episode to termination under a joint policy callable.

    `policy(state, agent_index, rng)` is queried for agent 0 then agent 1
    each step, so identical seeds replay identical episodes.
    """
    grid = config.grid
    move, hare, stag_options, t_max = grid.move, grid.hare, grid.stag_options, config.t_max
    a0, a1, stag = grid.starts
    t = 0
    transitions = []
    while True:
        state = (a0, a1, stag, t)
        act0 = policy(state, 0, rng)
        act1 = policy(state, 1, rng)
        transitions.append((state, act0, act1))
        a0 = move[a0][act0]
        a1 = move[a1][act1]
        if stag_options is not None:
            options = stag_options[stag]
            stag = options[rng.integers(len(options))]
        t += 1
        if a0 == stag == a1 or hare[a0] or hare[a1] or t >= t_max:
            break

    on_stag = (a0 == stag, a1 == stag)
    on_hare = (hare[a0], hare[a1])
    if all(on_stag):
        event = StepEvent("stag_joint", (config.reward_stag_joint,) * 2, (False, False), on_stag)
    elif any(on_hare):
        alone, out = config.reward_hare_alone, config.reward_left_out
        rewards = (config.reward_hare_shared,) * 2 if all(on_hare) else (
            (alone, out) if on_hare[0] else (out, alone))
        event = StepEvent("hare", rewards, on_hare, on_stag)
    else:
        event = StepEvent("timeout", (0.0, 0.0), (False, False), on_stag)
    return EpisodeRecord(config, transitions, event.rewards, label_episode(event), event)


def record_rows(record: EpisodeRecord) -> list[tuple]:
    """The record's episode as gridworld.episode_transition_rows flattens it."""
    return episode_transition_rows(record.config.width, record.transitions,
                                   record.terminal_rewards)


def observation_key(state: State, agent_index: int, bucket_width: int, cells: int) -> ObsKey:
    """What one agent sees, (time bucket, own cell, other's cell, stag's cell), as one
    int; injective for cell numbers below cells."""
    own = state[agent_index]
    other = state[1 - agent_index]
    return ((state[3] // bucket_width * cells + own) * cells + other) * cells + state[2]


@dataclass(slots=True)
class ShapedEpisode:
    """An episode flattened to per-step training rows for one agent's policy."""

    rows: list[int]  # the policy's table row for each step's observation
    actions: list[int]  # indices into ACTIONS
    behaviour_probs: list[float]
    rewards: list[float]


def discounted_returns(rewards: Sequence[float], gamma: float) -> list[float]:
    out = [0.0] * len(rewards)
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] + gamma * running
        out[t] = running
    return out


def update_episodes(policies: Sequence[PolicyParams], episodes: Sequence[ShapedEpisode]) -> None:
    """update_policies on the first policy's table, with every episode's steps in
    turn, each with its discounted return."""
    table = policies[0].table
    rows, actions, probs, returns = [], [], [], []
    for episode in episodes:
        rows += episode.rows
        actions += episode.actions
        probs += episode.behaviour_probs
        returns += discounted_returns(episode.rewards, table.hyper.gamma)
    update_policies(table, rows, actions, probs, returns)


@dataclass(frozen=True, slots=True)
class ShapingDetail:
    """How one agent's terminal reward was shaped this iteration."""

    phi: float | None
    psychological: float
    shaped: float


def _shaped_terminal_reward(
    learner: GridLearner, terminal_rewards: tuple[float, float], agent_index: int
) -> ShapingDetail:
    """One agent's episode end without guilt: inequity shaping, which needs only
    the realised rewards and so always applies, or the material reward."""
    material = terminal_rewards[agent_index]
    if learner.inequity is None:
        return ShapingDetail(None, 0.0, material)
    psy = inequity_reward(learner.inequity, material, terminal_rewards[1 - agent_index])
    return ShapingDetail(None, psy, shape_reward(material, psy))


def play_iteration(
    learners: tuple[GridLearner, GridLearner],
    config: GridConfig,
    rng: np.random.Generator,
) -> tuple[EpisodeRecord, list[ShapingDetail], list[ShapedEpisode]]:
    """Play one episode, each draw Generator.choice on the softmax of the row's current
    preferences, reveal labels and shape terminal rewards without guilt
    (_shaped_terminal_reward); no guilt step and no policy update."""
    policies = tuple(learner.policy for learner in learners)
    cells = config.width * config.height
    episodes = [ShapedEpisode([], [], [], []) for _ in policies]

    def joint_policy(state: State, agent_index: int, step_rng: np.random.Generator) -> GridAction:
        policy = policies[agent_index]
        key = observation_key(state, agent_index, policy.table.hyper.time_bucket_width, cells)
        r = policy.row(key)
        # the draw as the policy states it, not from run_lanes' cached distributions:
        # Generator.choice on the softmax of the row's current preferences
        probs = _softmax(policy.table.prefs[r])
        idx = int(step_rng.choice(N_ACTIONS, p=probs))
        episode = episodes[agent_index]
        episode.rows.append(r)
        episode.actions.append(idx)
        episode.behaviour_probs.append(float(probs[idx]))
        return ACTIONS[idx]

    record = run_episode(config, joint_policy, rng)
    details = [
        _shaped_terminal_reward(learner, record.terminal_rewards, i)
        for i, learner in enumerate(learners)
    ]
    for episode, detail in zip(episodes, details):
        episode.rewards = [0.0] * (len(record.transitions) - 1) + [detail.shaped]
    return record, details, episodes


def shape_guilt_by_episode(matrix: PayoffMatrix, beliefs: Beliefs, guilty: np.ndarray,
                           played: list[tuple]) -> None:
    """One Beliefs.step for the guilty slots of beliefs (slot 2k + i for lane k's agent
    i), each against its other's terminal reward, with played as play_iteration's
    output per lane; a slot whose episode revealed an Unknown label keeps its beliefs
    and its material reward."""
    known, own_c, other_c, other_reward = [], [], [], []
    for record, _, _ in played:
        first, second = record.labels
        both = first in KNOWN_LABELS and second in KNOWN_LABELS
        known += both, both
        own_c += first is C, second is C
        other_c += second is C, first is C
        other_reward += reversed(record.terminal_rewards)
    stepping = guilty & np.array(known)
    if not stepping.any():
        return
    phi, psychological = beliefs.step(np.array(own_c), np.array(other_c), np.array(other_reward),
                                      matrix, stepping)
    for slot, p, psy in zip(np.flatnonzero(stepping).tolist(), phi[stepping].tolist(),
                            psychological[stepping].tolist()):
        (record, details, episodes), i = played[slot // 2], slot % 2
        shaped = shape_reward(record.terminal_rewards[i], psy)
        details[i] = ShapingDetail(p, psy, shaped)
        episodes[i].rewards[-1] = shaped


def reference_lanes(lanes: Sequence[Lane], beliefs: Beliefs,
                    iterations: int) -> Iterator[list[tuple]]:
    """run_lanes by episodes: every lane's (record, details) per iteration, from
    play_iteration per lane, one shape_guilt_by_episode and one update_episodes."""
    (matrix,) = {config.grid.label_payoffs for _, config, _ in lanes}
    policies = [learner.policy for learners, _, _ in lanes for learner in learners]
    guilty = beliefs.neg_theta != 0.0
    for _ in range(iterations):
        played = [play_iteration(*lane) for lane in lanes]
        shape_guilt_by_episode(matrix, beliefs, guilty, played)
        update_episodes(policies, [episode for *_, episodes in played for episode in episodes])
        yield [(record, details) for record, details, _ in played]


def reference_detail(spec: GridworldSpec, scenario: str, variant: str, seed_index: int,
                     base_seed: int = 0, episode_log: list | None = None) -> RunResult:
    """experiments.run_gridworld_detail on reference_lanes."""
    run = gridworld_run(spec, scenario, variant, seed_index)
    history: list = []
    rows: list[tuple] = []
    lanes, beliefs = gridworld_lanes([(spec, *run, base_seed)])
    for it, [(record, details)] in enumerate(reference_lanes(lanes, beliefs, spec.iterations)):
        history.append(record.labels)
        chunk = history[-spec.window :]
        c_props = tuple(
            sum(1 for pair in chunk if pair[i] is C) / len(chunk) for i in range(2)
        )
        agent_0, agent_1 = np.vstack((beliefs.b, beliefs.conf)).T.tolist()
        rows.append((
            it, len(record.transitions),
            str(record.labels[0]), str(record.labels[1]),
            record.terminal_rewards[0], record.terminal_rewards[1],
            details[0].phi, details[0].psychological, details[0].shaped,
            details[1].phi, details[1].psychological, details[1].shaped,
            c_props[0], c_props[1], *agent_0, *agent_1,
        ))
        if episode_log is not None:
            episode_log.extend((it, *row) for row in record_rows(record))
    return RunResult(GRIDWORLD_DETAIL_COLUMNS, rows)


def outcomes(batch: Batch) -> list[tuple[SimpleNamespace, list[ShapingDetail]]]:
    """Each lane of a Batch as (record, details): the record's labels,
    terminal_rewards, kind and length, and each agent's ShapingDetail."""
    out = []
    for k, (kind, length) in enumerate(zip(batch.kinds, batch.lengths)):
        slots = (2 * k, 2 * k + 1)
        record = SimpleNamespace(
            labels=tuple(batch.labels[s] for s in slots),
            terminal_rewards=tuple(batch.rewards[s] for s in slots), kind=kind, length=length)
        out.append((record, [ShapingDetail(batch.phi[s], batch.psy[s], batch.shaped[s])
                             for s in slots]))
    return out
