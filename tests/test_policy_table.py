"""The block table against the per-policy list update it replaced.

Before the block table, every PolicyParams kept its own preferences, values
and cached distributions as Python lists, and update_policies stacked each
policy's distinct rows with np.array, ran the epochs, and wrote the stack back
row by row from prefs.tolist(). That update is kept here as the reference, on
the (N_ACTIONS, rows) layout of the epochs' kernel, with a plain build of the
kernel's items: every policy of a random block must end each iteration with
the bytes the reference gives it, in preferences, values and distributions
alike.
"""

import dataclasses

import numpy as np
import pytest

from engine_helpers import (
    ShapedEpisode,
    discounted_returns,
    learner_config,
    new_policy,
    preferences,
    update_episodes,
)
from staghunt.experiments import GridworldSpec, gridworld_lanes
from staghunt.gridworld import config_from_dict
from staghunt.policy_learner import (
    FIRST_VISIT,
    N_ACTIONS,
    LearnerConfig,
    PolicyParams,
    PolicyTable,
    _gradient,
    _Items,
    _softmax,
    run_lanes,
)


@dataclasses.dataclass
class ListPolicy:
    """A policy with list tables of its own, one row per observation key."""

    hyper: LearnerConfig
    rows: dict = dataclasses.field(default_factory=dict)
    preferences: list = dataclasses.field(default_factory=list)
    values: list = dataclasses.field(default_factory=list)
    dists: list = dataclasses.field(default_factory=list)

    def row(self, key) -> int:
        r = self.rows.get(key)
        if r is None:
            r = self.rows[key] = len(self.rows)
            self.preferences.append([0.0] * N_ACTIONS)
            self.values.append(0.0)
            self.dists.append(FIRST_VISIT)
        return r


def _ref_items(rows, actions, old_p, adv, clip_ratio) -> _Items:
    """_Items.build's fields, each built plainly: every array over the actions is
    (N_ACTIONS, items), the rows are the columns of an (N_ACTIONS, rows) table, and
    item i's two weights for action a sit side by side at [a, i]."""
    n, stride = len(rows), max(rows) + 1
    item_rows = np.array(rows)
    taken = np.zeros((N_ACTIONS, n))
    flat_taken = np.zeros(n, dtype=int)
    bins = np.zeros((N_ACTIONS, n, 2), dtype=int)
    for i, (r, a) in enumerate(zip(rows, actions)):
        taken[a, i] = 1.0
        flat_taken[i] = a * n + i
        for b in range(N_ACTIONS):
            bins[b, i] = b * stride + r
    adv = np.array(adv)
    lo = np.where(adv < 0, 1.0 - clip_ratio, np.where(adv > 0, -np.inf, np.inf))
    hi = np.where(adv > 0, 1.0 + clip_ratio, np.where(adv < 0, np.inf, -np.inf))
    return _Items(item_rows, taken, flat_taken, adv, np.array(old_p), lo, hi, bins.ravel(),
                  np.zeros((N_ACTIONS, n, 2)))


def _ref_update(policies: list[ListPolicy], episodes: list[ShapedEpisode]) -> None:
    cfg = policies[0].hyper
    if cfg.clip_ratio == 0.0:
        return
    gathered = []
    stack: list[list[float]] = []
    slots, actions, old_p, adv = [], [], [], []
    for policy, episode in zip(policies, episodes):
        returns = discounted_returns(episode.rewards, cfg.gamma)
        first: dict[int, int] = {}
        slots += [first.setdefault(r, len(stack) + len(first)) for r in episode.rows]
        stack += [policy.preferences[r] for r in first]
        gathered.append((policy, list(first), episode, returns))
        values = policy.values
        adv += [ret - values[r] for r, ret in zip(episode.rows, returns)]
        actions += episode.actions
        old_p += episode.behaviour_probs
    prefs = np.array(stack).T
    items = _ref_items(slots, actions, old_p, adv, cfg.clip_ratio)
    for _ in range(cfg.epochs):
        prefs = prefs + cfg.step_size * _gradient(prefs, items, cfg.entropy_weight)
    probs = _softmax(prefs)
    cdf = probs.cumsum(axis=0)
    if not np.isfinite(cdf[-1]).all():
        raise ValueError("not finite")
    cdf /= cdf[-1]
    written = zip(prefs.T.tolist(), probs.T.tolist(), cdf.T.tolist())
    for policy, rows, episode, returns in gathered:
        preferences, dists, values = policy.preferences, policy.dists, policy.values
        for r, (row, row_probs, row_cdf) in zip(rows, written):
            preferences[r] = row
            dists[r] = (row_probs, row_cdf)
        for r, ret in zip(episode.rows, returns):
            values[r] += cfg.step_size * (ret - values[r])


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_same_bytes(policy: PolicyParams, ref: ListPolicy):
    assert list(policy.rows) == list(ref.rows)
    table = policy.table
    for key, r in policy.rows.items():
        s = ref.rows[key]
        assert _bytes(table.prefs[r]) == _bytes(ref.preferences[s]), key
        assert _bytes(table.values[r]) == _bytes(ref.values[s]), key
        for ours, theirs in zip(table.dists[r], ref.dists[s]):
            assert _bytes(ours) == _bytes(theirs), key
    assert len(preferences(policy)) == len(ref.rows)
    assert _bytes(preferences(policy)) == _bytes(ref.preferences)


HYPERS = [
    learner_config(step_size=0.5, epochs=6, entropy_weight=0.03),
    learner_config(step_size=0.5, epochs=6, entropy_weight=0.0),
    learner_config(step_size=0.05, epochs=4, entropy_weight=0.01, clip_ratio=0.05),
    learner_config(clip_ratio=0.0),
]


def play_block(rng, policies, refs, pool=5):
    """Every policy's episode of one iteration, stepped in turn as lanes are: keys
    from a small pool per policy, so rows repeat within an episode and new rows are
    first seen between other policies' rows. Some rewards are NaN (a NaN advantage,
    then a NaN value), and some one-step episodes are paid their row's value (a
    zero advantage)."""
    lengths = rng.integers(1, 9, len(policies))
    episodes = [ShapedEpisode([], [], [], []) for _ in policies]
    shadows = [ShapedEpisode([], [], [], []) for _ in policies]
    for t in range(max(lengths)):
        for i, (policy, ref) in enumerate(zip(policies, refs)):
            if t >= lengths[i]:
                continue
            key = 100 * i + int(rng.integers(pool))
            r, s = policy.row(key), ref.row(key)
            action = int(rng.integers(N_ACTIONS))
            p = ref.dists[s][0][action] * rng.choice([1.0, 0.95, 0.4, 2.5])
            for episode, row in ((episodes[i], r), (shadows[i], s)):
                episode.rows.append(row)
                episode.actions.append(action)
                episode.behaviour_probs.append(float(np.clip(p, 0.01, 0.99)))
    for i, ref in enumerate(refs):
        rewards = [0.0] * (lengths[i] - 1) + [float(rng.normal(0, 3.0))]
        kind = rng.random()
        if kind < 0.05:
            rewards[-1] = float("nan")
        elif kind < 0.25 and lengths[i] == 1:
            rewards[-1] = ref.values[shadows[i].rows[0]]
        episodes[i].rewards = shadows[i].rewards = rewards
    return episodes, shadows


@pytest.mark.parametrize("hyper", HYPERS)
def test_block_table_matches_the_per_policy_list_update(hyper):
    zero_advantages = nan_advantages = repeats = interleaved = clipped = unclipped = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        table = PolicyTable(hyper)
        policies = [PolicyParams(table) for _ in range(n)]
        refs = [ListPolicy(hyper) for _ in range(n)]
        for _ in range(6):
            episodes, shadows = play_block(rng, policies, refs)
            for ref, shadow in zip(refs, shadows):
                repeats += len(set(shadow.rows)) < len(shadow.rows)
                for s, action, p in zip(shadow.rows, shadow.actions, shadow.behaviour_probs):
                    inside = abs(ref.dists[s][0][action] / p - 1.0) < (hyper.clip_ratio or 0.2)
                    unclipped += inside
                    clipped += not inside
                if len(shadow.rows) == 1:
                    adv = shadow.rewards[0] - ref.values[shadow.rows[0]]
                    zero_advantages += adv == 0.0
                    nan_advantages += adv != adv
            with np.errstate(invalid="ignore"):
                update_episodes(policies, episodes)
                _ref_update(refs, shadows)
            for policy, ref in zip(policies, refs):
                assert_same_bytes(policy, ref)
        # no two policies share a row, and every row of the table belongs to one
        owned = sorted(r for policy in policies for r in policy.rows.values())
        assert owned == list(range(len(table.values)))
        interleaved += sum(max(p.rows.values()) - min(p.rows.values()) >= len(p.rows)
                           for p in policies)
    assert zero_advantages >= 5 and nan_advantages >= 2
    assert repeats >= 100 and interleaved >= 30 and clipped >= 100 and unclipped >= 100


@pytest.mark.parametrize("adv", [0.0, -0.0, np.nan])
def test_lean_items_match_the_reference_build(adv):
    """An advantage of -0.0 never reaches update_policies (a return is never -0.0,
    and x - x is +0.0), so the build is compared on it directly, with 0.0 and NaN."""
    rng = np.random.default_rng(4)
    for clip_ratio in (0.2, 0.0):
        n = 40
        rows = [int(r) for r in rng.integers(0, 7, n)]
        actions = [int(a) for a in rng.integers(0, N_ACTIONS, n)]
        old_p = [float(p) for p in rng.uniform(0.01, 0.99, n)]
        advs = rng.normal(0, 2.0, n)
        advs[::3] = adv
        ours = _Items.build(rows, actions, old_p, advs.tolist(), clip_ratio)
        theirs = _ref_items(rows, actions, old_p, advs.tolist(), clip_ratio)
        for field in dataclasses.fields(_Items):
            a, b = getattr(ours, field.name), getattr(theirs, field.name)
            assert a.shape == b.shape and a.dtype == b.dtype, field.name
            assert a.tobytes() == b.tobytes(), field.name


def test_run_lanes_rejects_policies_of_two_tables():
    """Two blocks built apart have equal configs but a table each: run_lanes refuses
    to play them as one block, before anything is played."""
    spec = GridworldSpec(variants=("individual",))
    (first, beliefs), (second, _) = (gridworld_lanes([(spec, 0, 0, seed, 0)]) for seed in (0, 1))
    with pytest.raises(ValueError, match="one PolicyTable"):
        next(run_lanes(first + second, beliefs, 1))
    assert not any(learner.policy.rows for pair, _, _ in first + second for learner in pair)


def test_run_lanes_puts_a_block_on_one_table_and_checks_its_config_once():
    """gridworld_lanes builds a block's one PolicyTable, under the spec's config, and
    its one Beliefs, agent i of lane k in slot 2k + i; run_lanes plays the block on
    those two stores and moves nothing between stores."""
    spec = GridworldSpec(seeds=2, iterations=4, epochs=2)
    payloads = [(spec, s, v, seed, 0) for s in range(2) for v in range(4) for seed in range(2)]
    lanes, beliefs = gridworld_lanes(payloads)
    learners = [learner for pair, _, _ in lanes for learner in pair]
    table = learners[0].policy.table
    assert table.hyper == LearnerConfig(step_size=0.5, gamma=0.99, clip_ratio=0.2, epochs=2,
                                        entropy_weight=0.03, time_bucket_width=32)
    assert len({id(learner.policy) for learner in learners}) == 2 * len(lanes)
    assert all(learner.policy.table is table for learner in learners)
    assert [field.name for field in dataclasses.fields(learners[0])] == ["policy", "inequity"]
    assert beliefs.b.shape == (2, 2 * len(lanes))
    before = beliefs.b
    for _ in run_lanes(lanes, beliefs, spec.iterations):
        assert all(learner.policy.table is table for learner in learners)
    assert len(table.values) == sum(len(learner.policy.rows) for learner in learners)
    # the guilt learners' beliefs moved on the block's Beliefs, and no other's did
    moved = (beliefs.b != before).any(axis=0)
    assert moved.any() and not moved[beliefs.neg_theta == 0.0].any()


def test_run_lanes_needs_grids_of_one_label_payoff_table():
    """A block's one guilt step takes one label payoff table: a layout whose
    rewards give another is rejected before anything is played."""
    spec = GridworldSpec(variants=("tomaga",), seeds=2)
    lanes, beliefs = gridworld_lanes([(spec, 0, 0, seed, 0) for seed in range(2)])
    layout = dict(stag_start=[1, 0], agent_starts=[[0, 0], [2, 0]], hare_cells=[[0, 3], [3, 3]])
    other = config_from_dict({**layout, "rewards": {"stag_joint": 5.0}})
    with pytest.raises(ValueError, match="one label payoff table"):
        next(run_lanes([lanes[0], (lanes[1][0], other, lanes[1][2])], beliefs, 1))
    assert not any(learner.policy.rows for pair, _, _ in lanes for learner in pair)


def test_the_table_grows_by_doubling_and_keeps_its_rows():
    policy = new_policy()
    for key in range(20):
        r = policy.row(key)  # before naming table.prefs: a new row may replace the array
        policy.table.prefs[r] = key
    assert len(policy.table.prefs) == 32
    assert preferences(policy)[:, 0].tolist() == list(range(20))
    assert not policy.table.prefs[20:].any()
