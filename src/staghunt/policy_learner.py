"""Episodic learner for the grid world: tabular softmax policy trained with
a clipped policy-gradient surrogate, plus the label/belief/guilt wiring
that turns episode outcomes into shaped terminal rewards.

The grid is tiny, so preferences and value estimates are exact tables over
observation encodings; no function approximation anywhere. One iteration =
one episode per run, then (for guilt agents) a belief update from the
revealed labels, a shaped terminal reward, and a few epochs of clipped
updates over the episodes' steps. `run_lanes` plays a block of runs in
lockstep on the block's one PolicyTable and one shaping.Beliefs, which
experiments.gridworld_lanes builds from the spec. Each iteration, one loop
over the lanes steps every episode on its grid's compiled ints and writes
one flat Batch; one guilt step (Beliefs.step) and one update_policies call
read it for all of the block's learners.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .game import C, KNOWN_LABELS, PayoffMatrix, PolicyLabel
from .gridworld import CompiledGrid, GridAction, GridConfig
from .shaping import Beliefs, InequityParams, inequity_reward, shape_reward

ACTIONS = tuple(GridAction)
N_ACTIONS = len(ACTIONS)

ObsKey = int

# A first visit's action distribution and normalised cumulative sums, as
# update_policies builds them for a zero row: exp(0) is exactly 1, 1/5 is
# correctly rounded and the sums are sequential, so these are its bits.
_UNIFORM = (1.0 / N_ACTIONS,) * N_ACTIONS
FIRST_VISIT = (_UNIFORM, tuple(accumulate(_UNIFORM)))


@dataclass(frozen=True, slots=True)
class LearnerConfig:
    step_size: float
    gamma: float
    clip_ratio: float
    epochs: int
    entropy_weight: float
    time_bucket_width: int


@dataclass(slots=True)
class PolicyTable:
    """Every row of a lockstep block's policies, under one LearnerConfig: row r's
    preferences prefs[r] (grown by doubling; rows past the last are zero), value
    values[r], and in dists[r] its action probabilities and normalised cumulative
    sums as lists, for play's bisect_right; update_policies refreshes what it writes."""

    hyper: LearnerConfig
    prefs: np.ndarray = field(default_factory=lambda: np.zeros((8, N_ACTIONS)))
    values: list[float] = field(default_factory=list)
    dists: list[tuple[Sequence[float], Sequence[float]]] = field(default_factory=list)


@dataclass(slots=True)
class PolicyParams:
    """Tabular softmax policy and state-value table: each observation key's row of
    table, given on the key's first visit (`row`). No two policies share a row."""

    table: PolicyTable
    rows: dict[ObsKey, int] = field(default_factory=dict)

    def row(self, key: ObsKey) -> int:
        """key's row; a first visit's has zero preferences, a zero value and FIRST_VISIT."""
        r = self.rows.get(key)
        if r is None:
            table = self.table
            r = self.rows[key] = len(table.values)
            if r == len(table.prefs):
                table.prefs = np.concatenate((table.prefs, np.zeros_like(table.prefs)))
            table.values.append(0.0)
            table.dists.append(FIRST_VISIT)
        return r


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the first axis: one row of preferences, or an (N_ACTIONS, rows)
    stack of them, one row a column."""
    shifted = z - np.maximum.reduce(z, axis=0)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=0)


_EYE = np.eye(N_ACTIONS)


@dataclass(frozen=True, slots=True)
class _Items:
    """A batch as arrays over an (N_ACTIONS, rows) table, one row a column (the
    batch's rows are 0 to rows - 1), with what every epoch reuses."""

    item_rows: np.ndarray  # row of each item
    taken: np.ndarray  # (N_ACTIONS, items) float one-hot of each item's action
    flat_taken: np.ndarray  # each item's action in its flattened (N_ACTIONS, items) array
    adv: np.ndarray
    old_p: np.ndarray
    # The clipped branch has zero gradient once the ratio leaves the trust
    # region in the advantage's favoured direction: an item is active while
    # lo < ratio < hi. A positive advantage bounds only hi, a negative one
    # only lo (the open side is infinite, so a ratio that overflows to inf
    # counts as outside it), and a zero or NaN advantage is never active.
    lo: np.ndarray
    hi: np.ndarray
    # weights[a, i] holds item i's clipped term and then its entropy term for
    # action a, and bins[a, i] their flat (action, row) cell, twice, so that
    # each cell gets its terms in item order; rewritten every epoch
    bins: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, rows: list[int], actions: list[int], old_p, adv, clip_ratio: float) -> "_Items":
        n = len(rows)
        item_rows, actions = np.fromiter(rows, int, n), np.fromiter(actions, int, n)
        taken = _EYE.take(actions, axis=1)
        adv, old_p = np.fromiter(adv, float, n), np.fromiter(old_p, float, n)
        # (lo, hi) for a zero or NaN, a positive and a negative advantage
        bounds = np.array(
            ((np.inf, -np.inf), (-np.inf, 1.0 + clip_ratio), (1.0 - clip_ratio, np.inf))
        )
        lo, hi = bounds.take((adv > 0) + 2 * (adv < 0), axis=0).T
        stride = max(rows) + 1
        bins = (np.arange(0, N_ACTIONS * stride, stride)[:, None] + item_rows).repeat(2, axis=1)
        flat_taken = actions * n + np.arange(n)
        return cls(item_rows, taken, flat_taken, adv, old_p, lo, hi, bins.ravel(),
                   np.zeros((N_ACTIONS, n, 2)))

    def probs_and_ratios(self, prefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        probs = _softmax(prefs.take(self.item_rows, axis=1))
        return probs, probs.take(self.flat_taken) / self.old_p


def _entropy_terms(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-item sum of p log p (the negated entropy) and log-probabilities."""
    logp = np.log(probs + 1e-12)
    return np.add.reduce(probs * logp, axis=0), logp


def _gradient(prefs: np.ndarray, items: _Items, entropy_weight: float) -> np.ndarray:
    """Gradient of the clipped surrogate plus entropy bonus w.r.t. every column of
    prefs, an (N_ACTIONS, rows) table. The entropy half of items.weights is
    written only at a nonzero weight, so one items serves one entropy weight.

    One array pass over all items and one scatter, whether or not rows
    repeat. The reductions run over the 5 actions along axis 0, which adds
    (((e0 + e1) + e2) + e3) + e4 as numpy reduces a lone row. bincount adds
    a cell's weights to 0.0 in input order, so a row that repeats sums
    (((0 + c1) + b1) + c2) + b2 ... as an item-by-item loop would. An
    inactive item's clipped term is a signed zero, and at a zero entropy
    weight every entropy term stays 0.0: a sum that starts at +0.0 is never
    -0.0, so adding a zero leaves it as it is.
    """
    probs, ratio = items.probs_and_ratios(prefs)
    active = (items.lo < ratio) & (ratio < items.hi)
    weights = items.weights
    np.multiply(np.where(active, items.adv * ratio, 0.0), items.taken - probs,
                out=weights[..., 0])
    if entropy_weight:
        neg_entropy, logp = _entropy_terms(probs)
        # -w * (p * (logp + entropy)), with logp + entropy = logp - neg_entropy
        np.multiply(-entropy_weight, probs * (logp - neg_entropy), out=weights[..., 1])
    return np.bincount(items.bins, weights.ravel(), prefs.size).reshape(prefs.shape)


def update_policies(table: PolicyTable, rows: Sequence[int], actions: Sequence[int],
                    behaviour_probs: Sequence[float], returns: Sequence[float]) -> None:
    """Run the clipped-surrogate epochs on a batch of table's steps: step j took
    action actions[j] at row rows[j] with probability behaviour_probs[j], and
    returned returns[j]. Each policy's steps come in the order it took them.

    No two policies share a row, so every epoch is one array pass over the
    batch's distinct rows, gathered from the table with one index as the
    columns of an (N_ACTIONS, rows) array and written back with one. A zero
    clip ratio pins every ratio at 1, so the update is skipped. A row whose
    action distribution comes out non-finite is a ValueError, raised before
    the table is written.
    """
    if not rows:
        raise ValueError("update_policies needs a non-empty episode batch")
    cfg, values = table.hyper, table.values
    if cfg.clip_ratio == 0.0:
        return

    # the distinct rows in order of first appearance, and each item's slot among them
    first: dict[int, int] = {}
    slots = [first.setdefault(r, len(first)) for r in rows]
    written = list(first)
    adv = [ret - values[r] for r, ret in zip(rows, returns)]
    items = _Items.build(slots, actions, behaviour_probs, adv, cfg.clip_ratio)
    prefs = table.prefs[written].T
    for _ in range(cfg.epochs):
        prefs = prefs + cfg.step_size * _gradient(prefs, items, cfg.entropy_weight)
    # the next episodes' action distributions, as Generator.choice(5, p=probs)
    # would build them row by row: softmax, cumsum and division all work within a
    # row, here a column
    probs = _softmax(prefs)
    cdf = probs.cumsum(axis=0)
    if not np.isfinite(cdf[-1]).all():
        raise ValueError("update_policies made a policy row whose probabilities are not finite")
    cdf /= cdf[-1]
    table.prefs[written] = prefs.T
    for r, dist in zip(written, zip(probs.T.tolist(), cdf.T.tolist())):
        table.dists[r] = dist
    # single squared-error step toward the returns, after the policy epochs,
    # so the baseline tracks a running mean instead of swallowing the batch
    for r, ret in zip(rows, returns):
        values[r] += cfg.step_size * (ret - values[r])


@dataclass(slots=True)
class GridLearner:
    """One grid-world agent: a policy and, for the inequity variant, its inequity
    shaping; its beliefs and guilt are its slot of its block's Beliefs (run_lanes)."""

    policy: PolicyParams
    inequity: InequityParams | None = None


@dataclass(slots=True)
class Batch:
    """One iteration of a lockstep block, flat. Per agent-step, in (lane, agent,
    step) order: its policy's table row, action index and behaviour probability.
    Per lane k: its episode's length and end kind. Per slot 2k + i (lane k's agent
    i): its label and material terminal reward, and how that reward was shaped:
    phi (None where no guilt step ran), the psychological reward, and the shaped
    terminal reward that the agent's policy trains on."""

    rows: list[int] = field(default_factory=list)
    actions: list[int] = field(default_factory=list)
    probs: list[float] = field(default_factory=list)
    lengths: list[int] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    labels: list[PolicyLabel] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    phi: list[float | None] = field(default_factory=list)
    psy: list[float] = field(default_factory=list)
    shaped: list[float] = field(default_factory=list)


def _lane_ends(learners: tuple[GridLearner, GridLearner], grid: CompiledGrid) -> list[tuple]:
    """Each of grid.ends as a lane's learners meet it before any guilt step: its
    kind, labels and material rewards, then both agents' psychological and shaped
    rewards. Inequity shaping needs only the realised rewards, so it always
    applies; a guilt learner keeps its material reward here (_shape_guilt)."""
    out = []
    for kind, rewards, labels in grid.ends:
        psy, shaped = [0.0, 0.0], list(rewards)
        for i, learner in enumerate(learners):
            if learner.inequity is not None:
                psy[i] = inequity_reward(learner.inequity, rewards[i], rewards[1 - i])
                shaped[i] = shape_reward(rewards[i], psy[i])
        out.append((kind, labels, rewards, tuple(psy), tuple(shaped)))
    return out


def _shape_guilt(matrix: PayoffMatrix, beliefs: Beliefs, guilty: np.ndarray, batch: Batch) -> None:
    """One Beliefs.step for the guilty slots of beliefs (slot 2k + i for lane k's agent
    i), each against its other's terminal reward, writing each stepped slot's phi,
    psychological and shaped reward into batch. Guilt needs both labels: the step's
    mask leaves out a slot whose episode revealed an Unknown one, which keeps its
    beliefs and its material reward."""
    labels, rewards = batch.labels, batch.rewards
    known, own_c, other_c, other_reward = [], [], [], []
    for k in range(0, len(labels), 2):
        first, second = labels[k], labels[k + 1]
        both = first in KNOWN_LABELS and second in KNOWN_LABELS
        known += both, both
        own_c += first is C, second is C
        other_c += second is C, first is C
        other_reward += rewards[k + 1], rewards[k]
    stepping = guilty & np.array(known)
    if not stepping.any():
        return
    phi, psychological = beliefs.step(np.array(own_c), np.array(other_c), np.array(other_reward),
                                      matrix, stepping)
    for slot, p, psy in zip(np.flatnonzero(stepping).tolist(), phi[stepping].tolist(),
                            psychological[stepping].tolist()):
        batch.phi[slot] = p
        batch.psy[slot] = psy
        batch.shaped[slot] = shape_reward(rewards[slot], psy)


def _returns(batch: Batch, gamma: float) -> list[float]:
    """Every agent-step's discounted return, in the batch's order: an episode pays
    nothing before its last step, which pays the shaped terminal reward. A slot's
    returns are one backward pass in the operations of a pass over all its rewards:
    reward + gamma * 0.0 (a -0.0 reward returns +0.0), then 0.0 + gamma * the next."""
    out: list[float] = []
    for slot, reward in enumerate(batch.shaped):
        running = reward + gamma * 0.0
        tail = [running]
        for _ in range(batch.lengths[slot // 2] - 1):
            running = 0.0 + gamma * running
            tail.append(running)
        out += reversed(tail)
    return out


# One run: its two learners, its grid and its own generator.
Lane = tuple[tuple[GridLearner, GridLearner], GridConfig, np.random.Generator]


def run_lanes(lanes: Sequence[Lane], beliefs: Beliefs, iterations: int,
              logs: Sequence[list] | None = None) -> Iterator[Batch]:
    """Play runs in lockstep, yielding each iteration's Batch once the block has
    trained on it.

    Lane k's agent i holds slot 2k + i of beliefs, and every policy must be on
    one PolicyTable. Each iteration plays every lane's episode from its own
    generator, in lane order, each step drawing for agent 0, then agent 1, then
    (on a random walk) the stag; then steps the guilt learners (the slots with a
    theta) in one _shape_guilt call and trains all policies in one
    update_policies call. Both work lane by lane, so no lane's results depend
    on its batch mates. The lanes' grids must share one label payoff table.
    Pass one list per lane as logs to also collect each of its steps as
    (pre-move state, action 0, action 1), the input of
    gridworld.episode_transition_rows.
    """
    matrices = {config.grid.label_payoffs for _, config, _ in lanes}
    if len(matrices) != 1:
        raise ValueError(f"run_lanes needs grids of one label payoff table, got {matrices}")
    (matrix,) = matrices
    policies = [learner.policy for learners, _, _ in lanes for learner in learners]
    table = policies[0].table
    if any(policy.table is not table for policy in policies):
        raise ValueError("run_lanes needs policies of one PolicyTable (one LearnerConfig)")
    dists, width, gamma = table.dists, table.hyper.time_bucket_width, table.hyper.gamma
    guilty = beliefs.neg_theta != 0.0
    plays = []
    for k, (learners, config, rng) in enumerate(lanes):
        grid = config.grid
        plays.append((
            *(learner.policy for learner in learners), grid.move, grid.hare, grid.stag_options,
            config.t_max, config.width * config.height, grid.starts, rng.random, rng.integers,
            grid.end_index, _lane_ends(learners, grid), None if logs is None else logs[k],
        ))
    for _ in range(iterations):
        batch = Batch()
        add_row, add_action, add_prob = batch.rows.append, batch.actions.append, batch.probs.append
        for (policy0, policy1, move, hare, stag_options, t_max, cells, starts, random, integers,
             end_index, ends, log) in plays:
            get0, get1 = policy0.rows.get, policy1.rows.get
            rows1, actions1, probs1 = [], [], []  # agent 1's steps, which follow agent 0's
            a0, a1, stag = starts
            t = 0
            while True:
                # each agent's observation key: (time bucket, own cell, other's cell,
                # stag's cell) as one int, injective for cell numbers below cells
                bucket = t // width * cells
                key = ((bucket + a0) * cells + a1) * cells + stag
                r = get0(key)
                if r is None:
                    r = policy0.row(key)
                # Generator.choice(5, p=probs)'s draw: the first cdf entry above a uniform
                probs, cdf = dists[r]
                i0 = bisect_right(cdf, random())
                add_row(r)
                add_action(i0)
                add_prob(probs[i0])
                key = ((bucket + a1) * cells + a0) * cells + stag
                r = get1(key)
                if r is None:
                    r = policy1.row(key)
                probs, cdf = dists[r]
                i1 = bisect_right(cdf, random())
                rows1.append(r)
                actions1.append(i1)
                probs1.append(probs[i1])
                if log is not None:
                    log.append(((a0, a1, stag, t), ACTIONS[i0], ACTIONS[i1]))
                a0 = move[a0][i0]
                a1 = move[a1][i1]
                if stag_options is not None:
                    options = stag_options[stag]
                    stag = options[integers(len(options))]
                t += 1
                if a0 == stag == a1 or hare[a0] or hare[a1] or t >= t_max:
                    break
            batch.rows += rows1
            batch.actions += actions1
            batch.probs += probs1
            kind, labels, rewards, psy, shaped = ends[end_index(a0, a1, stag)]
            batch.lengths.append(t)
            batch.kinds.append(kind)
            batch.labels += labels
            batch.rewards += rewards
            batch.psy += psy
            batch.shaped += shaped
        batch.phi = [None] * len(batch.labels)
        _shape_guilt(matrix, beliefs, guilty, batch)
        update_policies(table, batch.rows, batch.actions, batch.probs, _returns(batch, gamma))
        yield batch


def iterations_to_threshold(
    history: Sequence[tuple[PolicyLabel, PolicyLabel]],
    window: int,
    threshold: float = 0.8,
) -> int | None:
    """First iteration whose trailing full window is >= threshold cooperative.

    The proportion pools both agents' labels; the window's count of C
    labels is kept running, one iteration in and one out. Returns None when
    the run never crosses the threshold.
    """
    if window > len(history):
        return None
    c_counts = [(a is C) + (b is C) for a, b in history]
    c_count = sum(c_counts[: window - 1])
    for t in range(window - 1, len(history)):
        c_count += c_counts[t]
        if c_count / (2 * window) >= threshold:
            return t
        c_count -= c_counts[t + 1 - window]
    return None
