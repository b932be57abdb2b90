import dataclasses
import struct
from bisect import bisect_right
from itertools import zip_longest
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engine_helpers import (
    ShapedEpisode,
    ShapingDetail,
    belief_state,
    discounted_returns,
    learner_config,
    new_policy,
    observation_key,
    outcomes,
    surrogate_gradient,
    surrogate_objective,
    update_episodes,
)
from staghunt.experiments import GridworldSpec, gridworld_lanes
from staghunt.game import C, U, UNKNOWN, PayoffMatrix
from staghunt.gridworld import GridAction, make_scenario
from staghunt.policy_learner import (
    ACTIONS,
    FIRST_VISIT,
    N_ACTIONS,
    Batch,
    LearnerConfig,
    PolicyParams,
    PolicyTable,
    _lane_ends,
    _returns,
    _shape_guilt,
    _softmax,
    iterations_to_threshold,
    run_lanes,
)


# --- references: the per-row draw the cached distributions replaced --------------


def action_probs(policy: PolicyParams, key) -> np.ndarray:
    return _softmax(policy.table.prefs[policy.row(key)])


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn with probabilities probs: numpy's own algorithm for
    rng.choice(len(probs), p=probs), draw for draw, without its checks of p."""
    cdf = probs.cumsum()
    if not np.isfinite(cdf[-1]):
        raise ValueError(f"probabilities must be finite, got {probs}")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _bits(x) -> bytes | None:
    """A float's bytes (tells -0.0 from 0.0), or None for None."""
    return None if x is None else struct.pack("<d", float(x))


# --- returns -------------------------------------------------------------------


@pytest.mark.parametrize(
    "gamma,expected",
    [
        (0.0, [1.0, 2.0, 4.0]),
        (0.5, [1.0 + 0.5 * (2.0 + 0.5 * 4.0), 2.0 + 0.5 * 4.0, 4.0]),
        (1.0, [7.0, 6.0, 4.0]),
    ],
)
def test_discounted_returns_hand_checked(gamma, expected):
    assert discounted_returns([1.0, 2.0, 4.0], gamma) == pytest.approx(expected)


# signed zeros, subnormals (a product that underflows) and wide magnitudes
_reward = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e6, 1e6))


@settings(max_examples=300, deadline=None)
@given(gamma=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0, 1)),
       lanes=st.lists(st.tuples(st.integers(1, 40), _reward, _reward), min_size=1, max_size=6))
@example(gamma=0.0, lanes=[(1, -0.0, -0.0), (3, -0.0, 0.0)])
@example(gamma=-0.0, lanes=[(2, -0.0, 5e-324)])
@example(gamma=0.25, lanes=[(2, -5e-324, 0.0)])  # 0.25 * -5e-324 is -0.0, and 0.0 + -0.0 is +0.0
def test_returns_match_discounted_returns_bit_for_bit(gamma, lanes):
    """_returns' one backward pass per slot gives every agent-step the bits that
    discounted_returns gives over its slot's rewards: 0.0 but the shaped last one."""
    batch = Batch(lengths=[n for n, _, _ in lanes], shaped=[r for _, *rs in lanes for r in rs])
    expected = []
    for slot, reward in enumerate(batch.shaped):
        expected += discounted_returns([0.0] * (batch.lengths[slot // 2] - 1) + [reward], gamma)
    assert list(map(_bits, _returns(batch, gamma))) == list(map(_bits, expected))


# --- surrogate objective and gradient --------------------------------------------


def frozen_batch():
    rng = np.random.default_rng(5)
    prefs = {}
    batch = []
    for k in range(4):
        key = ("s", k)
        prefs[key] = rng.normal(0, 0.7, len(ACTIONS))
        probs = np.exp(prefs[key]) / np.exp(prefs[key]).sum()
        action = int(rng.integers(len(ACTIONS)))
        # behaviour probability deliberately differs from the current policy
        old_p = float(np.clip(probs[action] * rng.uniform(0.6, 1.4), 0.05, 0.95))
        adv = float(rng.normal(0, 2.0))
        batch.append((key, action, old_p, adv))
    return prefs, batch


@pytest.mark.parametrize("entropy_weight", [0.0, 0.01])
def test_gradient_matches_central_finite_differences(entropy_weight):
    prefs, batch = frozen_batch()
    clip = 0.2
    grads = surrogate_gradient(prefs, batch, clip, entropy_weight)
    h = 1e-5
    for key in prefs:
        for idx in range(len(ACTIONS)):
            up = {k: v.copy() for k, v in prefs.items()}
            down = {k: v.copy() for k, v in prefs.items()}
            up[key][idx] += h
            down[key][idx] -= h
            numeric = (
                surrogate_objective(up, batch, clip, entropy_weight)
                - surrogate_objective(down, batch, clip, entropy_weight)
            ) / (2 * h)
            analytic = grads.get(key, np.zeros(len(ACTIONS)))[idx]
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)


KEY = 1234  # an observation key


def test_zero_advantages_leave_preferences_unchanged():
    policy = new_policy(entropy_weight=0.0)
    row = policy.row(KEY)
    policy.table.prefs[row] = [0.3, -0.1, 0.0, 0.2, -0.4]
    policy.table.values[row] = 1.0  # matches the return below, so advantage is zero
    episode = ShapedEpisode(rows=[row], actions=[GridAction.STAY], behaviour_probs=[0.2],
                            rewards=[1.0])
    before = policy.table.prefs[row].tolist()
    update_episodes([policy], [episode])
    assert np.allclose(policy.table.prefs[row], before)


def test_positive_advantage_increases_taken_action_probability():
    policy = new_policy()
    p_before = action_probs(policy, KEY)[0]
    episode = ShapedEpisode(
        rows=[policy.row(KEY)], actions=[0], behaviour_probs=[p_before], rewards=[4.0]
    )
    update_episodes([policy], [episode])
    assert action_probs(policy, KEY)[0] > p_before


def test_zero_clip_ratio_freezes_the_policy():
    policy = new_policy(clip_ratio=0.0)
    row = policy.row(KEY)
    episode = ShapedEpisode(rows=[row], actions=[2], behaviour_probs=[0.2], rewards=[10.0])
    update_episodes([policy], [episode])
    assert policy.table.prefs[row].tolist() == [0.0] * N_ACTIONS
    assert policy.table.values[row] == 0.0


def test_policy_stays_a_distribution_after_updates():
    policy = new_policy(step_size=0.5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        action = ACTIONS[rng.integers(5)]
        probs = action_probs(policy, KEY)
        episode = ShapedEpisode(
            rows=[policy.row(KEY)], actions=[action],
            behaviour_probs=[float(probs[list(ACTIONS).index(action)])],
            rewards=[float(rng.normal())],
        )
        update_episodes([policy], [episode])
        probs = action_probs(policy, KEY)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs > 0).all()


def test_policy_update_rejects_empty_episode():
    with pytest.raises(ValueError, match="update_policies needs a non-empty episode"):
        update_episodes([new_policy()], [ShapedEpisode([], [], [], [])])


# --- differential check against the per-item reference ------------------------------
#
# The per-item gradient and epoch loop that the array kernel replaced, kept
# verbatim, on the dict tables it ran on: the kernel must reproduce them bit
# for bit, since every grid-world CSV follows from these preferences.


def _ref_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


@dataclasses.dataclass
class RefPolicy:
    """The dict tables the reference update works on: key -> row, key -> value."""

    hyper: LearnerConfig
    preferences: dict = dataclasses.field(default_factory=dict)
    values: dict = dataclasses.field(default_factory=dict)

    def prefs(self, key):
        if key not in self.preferences:
            self.preferences[key] = np.zeros(N_ACTIONS)
        return self.preferences[key]

    def value(self, key):
        return self.values.get(key, 0.0)


def _ref_surrogate_gradient(preferences, batch, clip_ratio, entropy_weight):
    grads = {}
    for key, action, old_p, adv in batch:
        probs = _ref_softmax(preferences[key])
        ratio = probs[action] / old_p
        grad = grads.setdefault(key, np.zeros(N_ACTIONS))
        # The clipped branch has zero gradient once the ratio leaves the
        # trust region in the advantage's favoured direction.
        active = (adv > 0 and ratio < 1.0 + clip_ratio) or (
            adv < 0 and ratio > 1.0 - clip_ratio
        )
        if active:
            one_hot = np.zeros(N_ACTIONS)
            one_hot[action] = 1.0
            grad += adv * ratio * (one_hot - probs)
        if entropy_weight:
            logp = np.log(probs + 1e-12)
            entropy = -float(np.sum(probs * logp))
            grad += entropy_weight * (-probs * (logp + entropy))
    return grads


def _ref_policy_update(policy, episode):
    cfg = policy.hyper
    if not episode.keys:
        raise ValueError("policy_update needs a non-empty episode")
    if cfg.clip_ratio == 0.0:
        return policy

    returns = discounted_returns(episode.rewards, cfg.gamma)
    batch = []
    for key, action, old_p, ret in zip(episode.keys, episode.actions, episode.behaviour_probs, returns):
        adv = ret - policy.value(key)
        policy.prefs(key)  # materialise rows before differentiating
        batch.append((key, action, old_p, adv))

    for _ in range(cfg.epochs):
        grads = _ref_surrogate_gradient(policy.preferences, batch, cfg.clip_ratio, cfg.entropy_weight)
        for key, grad in grads.items():
            policy.preferences[key] = policy.prefs(key) + cfg.step_size * grad
    # single squared-error step toward the returns, after the policy epochs,
    # so the baseline tracks a running mean instead of swallowing the batch
    for (key, _, _, _), ret in zip(batch, returns):
        policy.values[key] = policy.value(key) + cfg.step_size * (ret - policy.value(key))
    return policy


@dataclasses.dataclass
class KeyEpisode:
    """An episode over observation keys, as the reference takes it."""

    keys: list
    actions: list
    behaviour_probs: list
    rewards: list


def random_case(seed, hyper, pool=4, table=3):
    """A reference policy with random rows for part of a small key pool, and an
    episode over that pool: keys repeat, some keys are new, and the behaviour
    probabilities sit both inside and far outside the clip range. Some episodes
    end on a NaN reward (a NaN advantage, then a NaN value), some pay nothing
    (zero advantages on the keys without a value), and some one-step episodes are
    paid their key's value (a zero advantage)."""
    rng = np.random.default_rng(seed)
    keys = [10 * k + 3 for k in range(pool)]
    policy = RefPolicy(hyper)
    for key in keys[:table]:
        policy.preferences[key] = rng.normal(0, 1.0, N_ACTIONS)
        policy.values[key] = float(rng.normal(0, 2.0))
    length = int(rng.integers(1, 13))
    episode_keys = [keys[i] for i in rng.integers(pool, size=length)]
    actions = [int(i) for i in rng.integers(N_ACTIONS, size=length)]
    behaviour = []
    for key, action in zip(episode_keys, actions):
        p = _ref_softmax(policy.preferences.get(key, np.zeros(N_ACTIONS)))[action]
        behaviour.append(float(np.clip(p * rng.choice([1.0, 0.95, 0.4, 2.5]), 0.01, 0.99)))
    rewards = [float(r) for r in rng.normal(0, 3.0, length)]
    kind = rng.random()
    if kind < 0.1:
        rewards[-1] = float("nan")
    elif kind < 0.25:
        rewards = [0.0] * length
    elif kind < 0.5 and length == 1:
        rewards[-1] = policy.value(episode_keys[0])
    return policy, KeyEpisode(episode_keys, actions, behaviour, rewards)


def random_block(seed, hyper, n):
    """n random_cases as policies on one table, with their episodes as rows: each
    reference's rows, then each episode's new keys, are given rows step by step
    across the policies, as lanes step them, so that the policies' rows interleave
    in the table. Returns the references, their episodes, the policies and the
    episodes as rows."""
    cases = [random_case(seed + 100 * i, hyper) for i in range(n)]
    table = PolicyTable(hyper)
    policies = [PolicyParams(table) for _ in cases]
    for keys in zip_longest(*(ref.preferences for ref, _ in cases)):
        for policy, (ref, _), key in zip(policies, cases, keys):
            if key is not None:
                r = policy.row(key)  # before naming table.prefs: a new row may replace it
                table.prefs[r] = ref.preferences[key]
                table.values[r] = ref.value(key)
    for keys in zip_longest(*(episode.keys for _, episode in cases)):
        for policy, key in zip(policies, keys):
            if key is not None:
                policy.row(key)
    shaped = [as_rows(policy, episode) for policy, (_, episode) in zip(policies, cases)]
    return [ref for ref, _ in cases], [episode for _, episode in cases], policies, shaped


def as_policy(ref: RefPolicy, table: PolicyTable | None = None) -> PolicyParams:
    """The reference's tables as PolicyParams rows, in the dicts' order, on table
    (default: a table of its own)."""
    policy = PolicyParams(PolicyTable(ref.hyper) if table is None else table)
    for key, prefs in ref.preferences.items():
        r = policy.row(key)
        policy.table.prefs[r] = prefs
        policy.table.values[r] = ref.value(key)
    return policy


def as_rows(policy: PolicyParams, episode: KeyEpisode) -> ShapedEpisode:
    rows = [policy.row(key) for key in episode.keys]
    return ShapedEpisode(rows, episode.actions, episode.behaviour_probs, episode.rewards)


def assert_same_tables(policy: PolicyParams, ref: RefPolicy):
    # a row the reference never made (a zero clip ratio skips its update)
    # reads as the reference's default: zeros and a zero value
    assert list(ref.preferences) == list(policy.rows)[: len(ref.preferences)]
    for key, r in policy.rows.items():
        expected = ref.preferences.get(key, np.zeros(N_ACTIONS))
        assert policy.table.prefs[r].tobytes() == expected.tobytes(), key
        assert _bits(policy.table.values[r]) == _bits(ref.value(key)), key


def assert_fresh_distributions(policy: PolicyParams, ref: RefPolicy, keys):
    """Each row of keys caches the action distribution of the reference's row:
    its softmax and normalised cumulative sums, as Generator.choice builds them."""
    for key in keys:
        probs = _ref_softmax(ref.preferences[key])
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        assert policy.table.dists[policy.rows[key]] == (probs.tolist(), cdf.tolist()), key


HYPERS = [
    learner_config(step_size=0.5, epochs=6, entropy_weight=0.03),
    learner_config(step_size=0.5, epochs=6, entropy_weight=0.0),
    learner_config(step_size=0.05, epochs=4, entropy_weight=0.01, clip_ratio=0.05),
    learner_config(clip_ratio=0.0),
]


SEEDS = range(40)


@pytest.mark.parametrize("hyper", HYPERS)
def test_policy_update_matches_per_item_reference(hyper):
    """Blocks of 1 to 5 policies on one table, their rows interleaved, all updated by
    one update_policies call: every policy's rows, values and cached distributions
    are the per-item reference's bytes, and every row of the table is one policy's."""
    for seed in SEEDS:
        references, episodes, policies, shaped = random_block(seed, hyper, 1 + seed % 5)
        # several updates in a row, so the rows drift away from the seed's
        for _ in range(3):
            update_episodes(policies, shaped)
            for reference, episode in zip(references, episodes):
                _ref_policy_update(reference, episode)
        for policy, reference, episode in zip(policies, references, episodes):
            assert_same_tables(policy, reference)
            if hyper.clip_ratio:
                assert_fresh_distributions(policy, reference, episode.keys)
        owned = sorted(r for policy in policies for r in policy.rows.values())
        assert owned == list(range(len(policies[0].table.values)))


@pytest.mark.parametrize("clip_ratio", [0.2, 0.0])
@pytest.mark.parametrize("entropy_weight", [0.0, 0.03])
def test_surrogate_gradient_matches_per_item_reference(clip_ratio, entropy_weight):
    for seed in SEEDS:
        policy, episode = random_case(seed, learner_config(), table=4)
        advantages = np.random.default_rng(1000 + seed).normal(0, 2.0, len(episode.keys))
        # every third item's advantage a zero, a -0.0 or a NaN: never active
        advantages[seed % 3 :: 3] = (0.0, -0.0, np.nan)[seed % 3]
        batch = [
            (key, action, p, float(adv))
            for key, action, p, adv in zip(
                episode.keys, episode.actions, episode.behaviour_probs, advantages,
            )
        ]
        grads = surrogate_gradient(policy.preferences, batch, clip_ratio, entropy_weight)
        reference = _ref_surrogate_gradient(policy.preferences, batch, clip_ratio, entropy_weight)
        assert list(grads) == list(reference)
        for key in reference:
            assert np.array_equal(grads[key], reference[key]), (seed, key)


@pytest.mark.parametrize("hyper", HYPERS)
def test_two_learners_updated_together_match_per_item_reference(hyper):
    """Both learners' rows in one pass: the same key in both tables stays two rows."""
    for seed in SEEDS:
        apart = [random_case(seed, hyper)[0], random_case(seed + 500, hyper)[0]]
        table = PolicyTable(hyper)
        together = [as_policy(ref, table) for ref in apart]
        episodes = [random_case(seed + 1000, hyper)[1], random_case(seed + 2000, hyper)[1]]
        update_episodes(together, [as_rows(p, e) for p, e in zip(together, episodes)])
        for policy, episode in zip(apart, episodes):
            _ref_policy_update(policy, episode)
        for a, b in zip(together, apart):
            assert_same_tables(a, b)


def test_run_lanes_needs_one_shared_config():
    """Two blocks' lanes under two LearnerConfigs are two tables: run_lanes refuses
    to play them as one block, before anything is played."""
    (first, beliefs), (second, _) = (gridworld_lanes([(GridworldSpec(epochs=epochs), 0, 0, 0, 0)])
                                     for epochs in (6, 2))
    with pytest.raises(ValueError, match="LearnerConfig"):
        next(run_lanes(first + second, beliefs, 1))


def test_random_cases_cover_repeats_and_both_clip_branches():
    """The differential cases above exercise what they claim to: repeated keys, both
    clip branches, zero and NaN advantages, and policies whose rows interleave."""
    repeats = clipped = unclipped = zero = nan = interleaved = 0
    for seed in SEEDS:
        policy, episode = random_case(seed, learner_config())
        repeats += len(set(episode.keys)) < len(episode.keys)
        for key, action, p in zip(episode.keys, episode.actions, episode.behaviour_probs):
            ratio = _ref_softmax(policy.prefs(key))[action] / p
            if 0.8 < ratio < 1.2:
                unclipped += 1
            else:
                clipped += 1
        references, episodes, policies, _ = random_block(seed, learner_config(), 1 + seed % 5)
        for reference, episode in zip(references, episodes):
            returns = discounted_returns(episode.rewards, 0.99)
            advantages = [ret - reference.value(key) for key, ret in zip(episode.keys, returns)]
            zero += advantages.count(0.0)
            nan += sum(adv != adv for adv in advantages)
        interleaved += sum(max(p.rows.values()) - min(p.rows.values()) >= len(p.rows)
                           for p in policies)
    assert repeats >= 10 and clipped >= 20 and unclipped >= 20
    assert zero >= 10 and nan >= 10 and interleaved >= 50


# --- the one-scatter kernel on its edge cases -----------------------------------------
#
# _gradient scatters every item's clipped term and then its entropy term with
# one bincount, whatever the rows' repeats; these cases pin that against the
# per-item reference where an ordering or a bound would show.


STILL = 40  # steps of an episode that stays on one observation until timeout


def still_case(seed, hyper, steps=STILL):
    """A reference policy over two keys and an episode that sits on KEY, as an
    agent standing still until timeout does, stepping onto KEY + 1 every 7th step."""
    rng = np.random.default_rng(seed)
    policy = RefPolicy(hyper)
    for key in (KEY, KEY + 1):
        policy.preferences[key] = rng.normal(0, 1.0, N_ACTIONS)
        policy.values[key] = float(rng.normal(0, 1.0))
    keys = [KEY + (t % 7 == 6) for t in range(steps)]
    actions = [int(GridAction.STAY) if rng.random() < 0.7 else int(rng.integers(N_ACTIONS))
               for _ in range(steps)]
    behaviour = [
        float(np.clip(_ref_softmax(policy.preferences[key])[action]
                      * rng.choice([1.0, 0.9, 0.5, 2.0]), 0.01, 0.99))
        for key, action in zip(keys, actions)
    ]
    rewards = [float(r) for r in rng.normal(0, 2.0, steps)]
    return policy, KeyEpisode(keys, actions, behaviour, rewards)


def still_batch(seed, advantages=None):
    """still_case's policy and episode as a gradient batch with the given advantages
    (default: seeded normals)."""
    policy, episode = still_case(seed, learner_config())
    if advantages is None:
        advantages = np.random.default_rng(1000 + seed).normal(0, 2.0, len(episode.keys))
    batch = [
        (key, action, p, float(adv))
        for key, action, p, adv in zip(
            episode.keys, episode.actions, episode.behaviour_probs, advantages
        )
    ]
    return policy.preferences, batch


def assert_same_gradient(preferences, batch, clip_ratio, entropy_weight):
    grads = surrogate_gradient(preferences, batch, clip_ratio, entropy_weight)
    reference = _ref_surrogate_gradient(preferences, batch, clip_ratio, entropy_weight)
    assert list(grads) == list(reference)
    for key in reference:
        assert np.array_equal(grads[key], reference[key]), key
    return grads


def test_still_cases_repeat_one_row_at_least_32_times():
    _, episode = still_case(0, learner_config())
    assert episode.keys.count(KEY) >= 32


@pytest.mark.parametrize("hyper", HYPERS)
def test_a_row_repeated_until_timeout_matches_per_item_reference(hyper):
    for seed in range(10):
        reference, episode = still_case(seed, hyper)
        policy = as_policy(reference)
        shaped = as_rows(policy, episode)
        for _ in range(3):
            update_episodes([policy], [shaped])
            _ref_policy_update(reference, episode)
        assert_same_tables(policy, reference)


@pytest.mark.parametrize("clip_ratio", [0.2, 0.0])
@pytest.mark.parametrize("entropy_weight", [0.0, 0.03])
def test_surrogate_gradient_on_a_repeated_row_matches_per_item_reference(
    clip_ratio, entropy_weight
):
    for seed in range(10):
        assert_same_gradient(*still_batch(seed), clip_ratio, entropy_weight)


@pytest.mark.parametrize("adv", [0.0, -0.0, np.nan])
@pytest.mark.parametrize("entropy_weight", [0.0, 0.03])
def test_zero_and_nan_advantages_add_no_clipped_term(adv, entropy_weight):
    """Neither `adv > 0` nor `adv < 0` holds, so the item is never active,
    whichever way its ratio lies."""
    for seed in range(5):
        advantages = np.random.default_rng(seed).normal(0, 2.0, STILL)
        advantages[::3] = adv
        grads = assert_same_gradient(*still_batch(seed, advantages), 0.2, entropy_weight)
        assert all(np.isfinite(g).all() for g in grads.values())
    # every item's advantage is adv: without the entropy bonus, no row moves
    preferences, batch = still_batch(0, [adv] * STILL)
    grads = assert_same_gradient(preferences, batch, 0.2, 0.0)
    assert all(not g.any() for g in grads.values())


@pytest.mark.parametrize("edge", ["upper", "lower"])
def test_a_ratio_exactly_at_the_clip_edge_is_inactive(edge):
    """The trust region is open: ratio == 1 + clip (positive advantage) and
    ratio == 1 - clip (negative advantage) add no clipped term."""
    preferences, batch = still_batch(3)
    key, action, _, _ = batch[0]
    p = _softmax(np.array([preferences[key]]).T)[action, 0]
    old_p = p / (1.25 if edge == "upper" else 0.75)
    ratio = p / old_p
    clip_ratio, adv = (ratio - 1.0, 1.5) if edge == "upper" else (1.0 - ratio, -1.5)
    assert (1.0 + clip_ratio if edge == "upper" else 1.0 - clip_ratio) == ratio
    # every item of the row sits on the edge
    edge_batch = [(k, action, old_p, adv) for k, _, _, _ in batch if k == key]
    grads = assert_same_gradient(preferences, edge_batch, clip_ratio, 0.0)
    assert not grads[key].any()
    # and every other item of the row on the edge, between items that are not
    mixed = [(key, action, old_p, adv) if item[0] == key and i % 2 == 0 else item
             for i, item in enumerate(batch)]
    assert_same_gradient(preferences, mixed, clip_ratio, 0.03)


@pytest.mark.parametrize("hyper", HYPERS)
def test_two_learners_standing_still_updated_together_match_per_item_reference(hyper):
    for seed in range(10):
        apart = [still_case(seed, hyper)[0], still_case(seed + 500, hyper)[0]]
        table = PolicyTable(hyper)
        together = [as_policy(ref, table) for ref in apart]
        episodes = [still_case(seed + 1000, hyper)[1], still_case(seed + 2000, hyper)[1]]
        update_episodes(together, [as_rows(p, e) for p, e in zip(together, episodes)])
        for policy, episode in zip(apart, episodes):
            _ref_policy_update(policy, episode)
        for a, b in zip(together, apart):
            assert_same_tables(a, b)


# --- iteration wiring -------------------------------------------------------------


def one_lane(variant, **kwargs):
    """A one-lane block of variant's learners under GridworldSpec(**kwargs): the
    lane's two learners and its Beliefs, agent i in slot i."""
    [(learners, _, _)], beliefs = gridworld_lanes(
        [(GridworldSpec(variants=(variant,), **kwargs), 0, 0, 0, 0)])
    return learners, beliefs


def run_n(variant, n, seed=3, scenario="near-stag", **kwargs):
    learners, beliefs = one_lane(variant, **kwargs)
    lane = (learners, make_scenario(scenario), np.random.default_rng(seed))
    records = [record for [(record, _)] in map(outcomes, run_lanes([lane], beliefs, n))]
    return beliefs, records


def test_individual_learners_keep_material_rewards():
    """With guilt off, r* equals the material terminal reward: values trained
    toward material returns only (checked through the value table's scale)."""
    beliefs, records = run_n("individual", 30)
    for record in records:
        assert record.terminal_rewards in {
            (4.0, 4.0), (2.0, 2.0), (3.0, 0.0), (0.0, 3.0), (0.0, 0.0)
        }
    # individual learners never update beliefs
    assert belief_state(beliefs, 0).zero_order.p_cooperative == 0.5


def shaped_end(lane, labels, rewards, label_matrix):
    """Agent 0's shaped end of a one-step episode, as run_lanes makes it in a
    one-lane block, lane = (learners, beliefs): the lane's end without guilt, then
    the block's guilt step."""
    learners, beliefs = lane
    [(_, _, _, psy, shaped)] = _lane_ends(learners, SimpleNamespace(ends=[("", rewards, labels)]))
    batch = Batch(rows=[0, 1], actions=[0, 0], probs=[1.0, 1.0], lengths=[1], labels=list(labels),
                  rewards=list(rewards), phi=[None, None], psy=list(psy), shaped=list(shaped))
    _shape_guilt(label_matrix, beliefs, beliefs.neg_theta != 0.0, batch)
    details = [ShapingDetail(*fields) for fields in zip(batch.phi, batch.psy, batch.shaped)]
    assert _returns(batch, 0.99) == [detail.shaped for detail in details]
    return details[0]


def test_mutual_stag_capture_with_aligned_beliefs_has_zero_guilt():
    """(C,C) labels with point-mass-C beliefs: phi = 4.0 = reward, guilt 0."""
    lane = one_lane(
        "tomaga", theta=1.0, zero_order=1.0, first_order=1.0, confidence=1.0, learning_rate=0.0
    )
    label_matrix = PayoffMatrix(4.0, 3.0, 2.0, 0.0)
    detail = shaped_end(lane, (C, C), (4.0, 4.0), label_matrix)
    assert detail.shaped == pytest.approx(4.0)
    assert detail.phi == pytest.approx(4.0)
    assert detail.psychological == 0.0


def test_hare_catcher_guilt_with_confident_beliefs():
    """(U, C) with beliefs pinned at mutual cooperation: 3 - 1*(4-0) = -1."""
    lane = one_lane(
        "tomaga", theta=1.0, zero_order=1.0, first_order=1.0, confidence=0.0, learning_rate=0.0
    )
    label_matrix = PayoffMatrix(4.0, 3.0, 2.0, 0.0)
    detail = shaped_end(lane, (U, C), (3.0, 0.0), label_matrix)
    assert detail.shaped == pytest.approx(-1.0)
    assert detail.psychological == pytest.approx(-4.0)


def test_unknown_labels_skip_beliefs_and_guilt():
    lane = one_lane("tomaga", theta=5.0)
    tom_before = belief_state(lane[1], 0)
    label_matrix = PayoffMatrix(4.0, 3.0, 2.0, 0.0)
    detail = shaped_end(lane, (U, UNKNOWN), (3.0, 0.0), label_matrix)
    assert detail.shaped == 3.0
    assert detail.psychological == 0.0
    assert belief_state(lane[1], 0) == tom_before


def test_inequity_shaping_applies_to_unequal_outcomes():
    lane = one_lane("inequity")
    label_matrix = PayoffMatrix(4.0, 3.0, 2.0, 0.0)
    assert shaped_end(lane, (U, UNKNOWN), (3.0, 0.0), label_matrix).shaped == 0.0
    assert shaped_end(lane, (UNKNOWN, UNKNOWN), (0.0, 0.0), label_matrix).shaped == 0.0


def test_integer_belief_settings_step_as_their_floats():
    """A config may give a belief, confidence or theta as an int (JSON 1): the
    learner's arrays hold floats, so a step's write-back is not truncated."""
    label_matrix = PayoffMatrix(4.0, 3.0, 2.0, 0.0)
    ends = []
    for one in (1, 1.0):
        lane = one_lane("tomaga", theta=2 * one, zero_order=one, first_order=one, confidence=one)
        ends.append((shaped_end(lane, (C, U), (0.0, 3.0), label_matrix),
                     belief_state(lane[1], 0)))
    assert ends[0] == ends[1]
    # predicted C, saw U: confidence 0.9 * 1 + 0.1 * 0
    assert ends[0][1].confidence == pytest.approx(0.9)


def test_ga_without_tom_keeps_first_order_frozen():
    beliefs, _ = run_n("ga-no-tom", 40, theta=2.0, first_order=0.4)
    assert belief_state(beliefs, 0).first_order.p_cooperative == 0.4


def test_iteration_history_reproducible_bit_for_bit():
    _, first = run_n("tomaga", 25, seed=11)
    _, second = run_n("tomaga", 25, seed=11)
    assert [r.labels for r in first] == [r.labels for r in second]
    assert [r.terminal_rewards for r in first] == [r.terminal_rewards for r in second]



def test_iterations_to_threshold_finds_first_full_window():
    history = [(U, U)] * 6 + [(C, C)] * 10
    # with window 4, the first fully cooperative window ends at iteration 9
    assert iterations_to_threshold(history, window=4, threshold=0.8) == 9
    assert iterations_to_threshold([(U, U)] * 12, window=4) is None
    assert iterations_to_threshold([(C, C)] * 3, window=10) is None


def _ref_iterations_to_threshold(history, window, threshold=0.8):
    """The rescan of every full window that the running count replaced."""
    if window > len(history):
        return None
    for t in range(window - 1, len(history)):
        chunk = history[t + 1 - window : t + 1]
        c_count = sum(1 for pair in chunk for label in pair if label is C)
        if c_count / (2 * window) >= threshold:
            return t
    return None


def test_iterations_to_threshold_matches_a_rescan_of_every_window():
    seen = {"first full window": 0, "later": 0, "never": 0, "window too long": 0}
    for seed in range(60):
        rng = np.random.default_rng(seed)
        p_c = rng.uniform(0.2, 1.0)
        n = int(rng.integers(1, 120))
        history = [
            tuple(C if rng.random() < p_c else (U, UNKNOWN)[rng.integers(2)] for _ in range(2))
            for _ in range(n)
        ]
        for window in (1, 3, 10, 50, n, n + 1):
            for threshold in (0.5, 0.8, 1.0):
                got = iterations_to_threshold(history, window, threshold)
                assert got == _ref_iterations_to_threshold(history, window, threshold), (
                    seed, window, threshold)
                if window > n:
                    seen["window too long"] += 1
                elif got is None:
                    seen["never"] += 1
                else:
                    seen["first full window" if got == window - 1 else "later"] += 1
    assert min(seen.values()) >= 20, seen


def test_observation_key_injective_at_unit_bucket_width():
    # states are (agent 0's cell, agent 1's cell, stag's cell, timestep) on 16 cells
    base = (4, 9, 1, 3)
    variants = [
        (5, 9, 1, 3),  # own moved
        (4, 10, 1, 3),  # other moved
        (4, 9, 2, 3),  # stag moved
        (4, 9, 1, 4),  # time advanced
    ]
    keys = {observation_key(s, 0, 1, 16) for s in [base, *variants]}
    assert len(keys) == 5
    # the two agents see mirrored encodings of the same state
    assert observation_key(base, 0, 1, 16) != observation_key(base, 1, 1, 16)
    # every state of a 4-cell grid over 6 timesteps gets its own key
    states = [(a, b, c, t) for a in range(4) for b in range(4) for c in range(4) for t in range(6)]
    assert len({observation_key(s, 0, 1, 4) for s in states}) == len(states)


def test_sample_action_tracks_policy_distribution():
    policy = new_policy()
    policy.table.prefs[policy.row(KEY)] = [2.0, 0.0, 0.0, 0.0, -2.0]
    rng = np.random.default_rng(8)
    draws = [ACTIONS[sample_index(action_probs(policy, KEY), rng)] for _ in range(4000)]
    freq_first = draws.count(ACTIONS[0]) / len(draws)
    expected = action_probs(policy, KEY)[0]
    assert abs(freq_first - expected) < 0.03


def test_individual_learner_keeps_material_terminal_reward():
    lane = one_lane("individual")
    label_matrix = PayoffMatrix(4.0, 3.0, 2.0, 0.0)
    for labels, rewards in [((U, C), (3.0, 0.0)), ((C, U), (0.0, 3.0)), ((U, U), (2.0, 2.0))]:
        detail = shaped_end(lane, labels, rewards, label_matrix)
        assert detail.psychological == 0.0
        assert detail.shaped == rewards[0]


@pytest.mark.parametrize(
    "probs",
    [
        np.full(N_ACTIONS, 1.0 / N_ACTIONS),
        np.array([0.6, 0.25, 0.1, 0.04, 0.01]),
        np.array([1.0 - 4e-9, 1e-9, 1e-9, 1e-9, 1e-9]),
    ],
    ids=["uniform", "skewed", "near-one-hot"],
)
def test_sample_index_matches_generator_choice_draw_for_draw(probs):
    # the cached draw: bisect_right on the cdf as update_policies builds it, stacked
    cdf = probs[None, :].cumsum(axis=1)
    cdf /= cdf[:, -1:]
    cdf = cdf[0].tolist()
    cached, ours, theirs = (np.random.default_rng(2024) for _ in range(3))
    expected = [int(theirs.choice(N_ACTIONS, p=probs)) for _ in range(20_000)]
    assert [bisect_right(cdf, cached.random()) for _ in range(20_000)] == expected
    assert [sample_index(probs, ours) for _ in range(20_000)] == expected
    # all three consumed the same stream
    assert cached.random() == ours.random() == theirs.random()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_index_rejects_a_non_finite_preference_row(bad):
    policy = new_policy()
    policy.table.prefs[policy.row(KEY)] = [0.0, bad, 0.0, 0.0, 0.0]
    with np.errstate(invalid="ignore"):  # inf - inf in the softmax shift
        probs = action_probs(policy, KEY)
    with pytest.raises(ValueError, match="finite"):
        sample_index(probs, np.random.default_rng(0))
    with pytest.raises(ValueError):  # as Generator.choice refuses it
        np.random.default_rng(0).choice(N_ACTIONS, p=probs)


# --- cached action distributions --------------------------------------------------


def _mixed_scale_rows(n=20_000):
    rng = np.random.default_rng(11)
    scales = rng.choice([1e-3, 1.0, 30.0, 700.0], (n, 1))
    return rng.normal(0.0, 1.0, (n, N_ACTIONS)) * scales


def test_stacked_softmax_matches_row_by_row_bit_for_bit():
    """Every step of _softmax works within a column of the (N_ACTIONS, rows) stack,
    so stacking rows changes no bit."""
    rows = _mixed_scale_rows()
    stacked = _softmax(rows.T)
    assert all(np.array_equal(s, _softmax(row)) for s, row in zip(stacked.T, rows))
    cdf = stacked.cumsum(axis=0)
    assert all(np.array_equal(c, s.cumsum()) for c, s in zip(cdf.T, stacked.T))


def _trained_pair(seed=3):
    """Two individual learners after one iteration, and the key of agent 0's first step."""
    learners, beliefs = one_lane("individual")
    config = make_scenario("near-stag")
    next(run_lanes([(learners, config, np.random.default_rng(seed))], beliefs, 1))
    start = (*config.grid.starts, 0)
    key = observation_key(start, 0, learners[0].policy.table.hyper.time_bucket_width, 16)
    return learners, config, key


def test_a_first_visit_gets_the_zero_row_distribution():
    probs = _softmax(np.zeros(N_ACTIONS))
    total = probs.cumsum()
    assert FIRST_VISIT == (tuple(probs.tolist()), tuple((total / total[-1]).tolist()))
    policy = new_policy()
    assert [policy.table.dists[policy.row(key)] for key in (KEY, KEY + 1)] == [FIRST_VISIT] * 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_update_policies_rejects_a_non_finite_row_and_writes_nothing(bad):
    learners, _, key = _trained_pair()
    policies = [learner.policy for learner in learners]
    r = policies[0].rows[key]
    table = policies[0].table
    table.prefs[r][1] = bad
    before = (repr([p.rows for p in policies]), table.prefs.copy(), repr(table.values),
              repr(table.dists))
    other = next(iter(policies[1].rows.values()))  # a row of the other policy
    episodes = [ShapedEpisode([r], [0], [0.2], [1.0]), ShapedEpisode([other], [0], [0.2], [1.0])]
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        update_episodes(policies, episodes)
    assert repr([p.rows for p in policies]) == before[0]
    assert np.array_equal(table.prefs, before[1], equal_nan=True)
    assert (repr(table.values), repr(table.dists)) == before[2:]
