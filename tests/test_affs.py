"""Action spaces, UCB, DSG-Sarsa, rewards, and baseline strategies."""

import math
import random

import pytest

from affsgen import affs
from affsgen.affs import (
    Action,
    Goal,
    RandomPerRunStrategy,
    SarsaStrategy,
    StaticStrategy,
    UcbStrategy,
    action_space,
    default_combination,
    feature_vector,
    make_strategy,
    single_function_action,
)
from affsgen.engine import Budget, EngineConfig, run_search
from affsgen.fitness import FitnessFunctionId as F
from affsgen.minilang import parse
from affsgen.testmodel import GenConfig


# --- action spaces -----------------------------------------------------------


def test_exception_space_has_64_actions():
    space = action_space(Goal.EXCEPTIONS)
    assert len(space) == 64  # C(7,0) + C(7,1) + C(7,2) + C(7,3)
    assert len(space) == sum(math.comb(7, k) for k in range(4))


def test_every_exception_action_contains_exception_count():
    for action in action_space(Goal.EXCEPTIONS):
        assert F.EX in action.functions
        assert 1 <= len(action.functions) <= 4


def test_diversity_space_has_52_actions_with_overlap_filter():
    space = action_space(Goal.DIVERSITY)
    assert len(space) == 52
    for action in space:
        assert F.DIVERSITY in action.functions
        assert not (F.BRANCH in action.functions and F.DIRECT_BRANCH in action.functions)
        assert not (F.METHOD in action.functions and F.MNEC in action.functions)


def test_strong_mutation_space_has_41_actions():
    space = action_space(Goal.STRONG_MUTATION)
    assert len(space) == 41
    assert len(space) == sum(math.comb(6, k) for k in (1, 2, 3))
    assert any(action.functions == (F.STRONG_MUT,) for action in space)
    assert any(F.STRONG_MUT not in action.functions for action in space)


def test_action_ids_are_dense_and_ordered():
    for goal in Goal:
        space = action_space(goal)
        assert [a.action_id for a in space] == list(range(len(space)))
        sizes = [len(a.functions) for a in space]
        assert sizes == sorted(sizes)


def test_action_space_is_built_once_per_goal_and_returned_as_a_new_list():
    for goal in Goal:
        first, second = action_space(goal), action_space(goal)
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))
        first.clear()  # changing a returned list leaves the next call as it was
        assert action_space(goal) == second
        one, other = make_strategy("ucb", goal), make_strategy("ucb", goal)
        assert one.space is not other.space
        assert all(a is b for a, b in zip(one.space, other.space, strict=True))


# --- UCB ---------------------------------------------------------------------


def _two_arms():
    return [Action((F.EX,), 0), Action((F.EX, F.BRANCH), 1)]


def _unread(action):
    raise AssertionError("this strategy must not read feature vectors")


def _bandit(observations, order=(0, 1)):
    """A two-arm UCB strategy after ``observations``, a list of (arm, reward)."""
    strategy = UcbStrategy(Goal.EXCEPTIONS, space=_two_arms())
    strategy.initial_action(_unread, random.Random(0))
    strategy.seeding_order = [strategy.space[i] for i in order]
    for t, (arm, reward) in enumerate(observations, start=1):
        strategy.current = strategy.space[arm]
        strategy.update_and_select(reward, _unread, t, random.Random(t))
    return strategy


def test_ucb_selects_untried_action_first():
    strategy = _bandit([(1, -100.0)], order=(1, 0))
    # action 0 untried: selected regardless of rewards
    assert strategy.current.action_id == 0
    assert strategy._select(5).action_id == 0


def test_ucb_greedy_limit_prefers_higher_mean(monkeypatch):
    monkeypatch.setattr(affs, "UCB_C", 1e-12)
    strategy = _bandit([(0, 2.0), (1, 0.5)])
    assert strategy._select(2).action_id == 0


def test_ucb_exploration_bonus_dominates():
    # a: n=10, sum=10; b: n=1, sum=0.9; t=11 -> bound(b) wins
    strategy = _bandit([(0, 1.0)] * 10 + [(1, 0.9)])
    bound_a = 1.0 + affs.UCB_C * math.sqrt(math.log(11) / 10)
    bound_b = 0.9 + affs.UCB_C * math.sqrt(math.log(11) / 1)
    assert bound_b > bound_a
    assert strategy._select(11).action_id == 1


def test_ucb_ties_break_toward_the_lowest_action_id():
    strategy = _bandit([(1, 1.0), (0, 1.0)], order=(1, 0))
    assert strategy._select(2).action_id == 0
    assert strategy._select(50).action_id == 0


def test_ucb_update_arithmetic():
    strategy = _bandit([(0, 1.0), (0, 3.0)])
    assert strategy.sum_reward[0] / strategy.times_selected[0] == 2.0
    # unselected arm untouched
    assert strategy.times_selected[1] == 0
    assert strategy.sum_reward[1] == 0.0
    strategy = _bandit([(0, 1.0), (0, 3.0), (1, 0.0)])
    assert strategy.times_selected[1] == 1
    assert strategy.sum_reward[1] == 0.0


def test_ucb_select_empty_space():
    with pytest.raises(ValueError):
        UcbStrategy(Goal.EXCEPTIONS, space=[])
    with pytest.raises(ValueError):
        SarsaStrategy(Goal.EXCEPTIONS, space=[])


def test_ucb_argmax_invariant_under_reward_scaling(monkeypatch):
    monkeypatch.setattr(affs, "UCB_C", 1e-12)
    for scale in (1.0, 7.5, 1000.0):
        strategy = _bandit([(0, 0.4 * scale), (1, 0.9 * scale)])
        assert strategy._select(2).action_id == 1


def test_ucb_t_is_the_generation_number_not_the_count_of_plays(monkeypatch):
    seen = []
    select = UcbStrategy._select
    monkeypatch.setattr(UcbStrategy, "_select", lambda self, t: seen.append(t) or select(self, t))
    program = parse('fn f(x:int){ if (x > 0) { throw "big"; } return 0; }')
    config = EngineConfig(population_size=4, skip_iter=3, budget=Budget(generations=9))
    run_search(program, Goal.EXCEPTIONS, UcbStrategy(Goal.EXCEPTIONS), config, 1, GenConfig())
    # run_search asks as the search starts and then every 3 generations,
    # after 1, 2 and 3 plays, passing the generation number as t
    assert seen == [0, 3, 6, 9]
    # after 3 plays, 2 of arm 0 (mean 1.0) and 1 of arm 1 (mean 0.5), the
    # bound at generation 9 picks arm 1, where UCB1's ln 3 would pick arm 0
    strategy = _bandit([(0, 1.0), (0, 1.0), (1, 0.5)])
    assert strategy._select(9).action_id == 1
    assert strategy._select(3).action_id == 0


# --- DSG-Sarsa ------------------------------------------------------------------


def _sarsa(space, weights, first_features):
    """A Sarsa strategy started on ``first_features`` with the given weights."""
    strategy = SarsaStrategy(Goal.EXCEPTIONS, space=space)
    strategy.initial_action(lambda action: first_features, random.Random(0))
    strategy.weights = list(weights)
    return strategy


def test_sarsa_hand_computed_step():
    # 1-dim features: W=[1], X(S,A)=[2], X(S',A')=[3], reward=1, alpha=beta=0.1
    assert affs.ALPHA == affs.BETA == 0.1
    action = Action((F.EX,), 0)
    strategy = _sarsa([action], weights=[1.0], first_features=(2.0,))
    chosen = strategy.update_and_select(1.0, lambda a: (3.0,), 1, random.Random(0))
    assert chosen == action
    entry = strategy.trace[-1]
    assert entry.delta == pytest.approx(2.0, abs=1e-12)
    assert strategy.weights[0] == pytest.approx(1.4, abs=1e-12)
    assert strategy.average_reward == pytest.approx(0.2, abs=1e-12)
    assert entry.q_old == pytest.approx(2.0, abs=1e-12)
    assert entry.q_new == pytest.approx(3.0, abs=1e-12)


def test_sarsa_q_is_a_left_fold_on_every_python():
    # sum() from CPython 3.12 on is compensated and gives 0.6 here
    strategy = _sarsa([Action((F.EX,), 0)], weights=[0.1, 0.2, 0.3], first_features=(0.0,) * 3)
    q = strategy._q((1.0, 1.0, 1.0))
    assert q == (0.1 + 0.2) + 0.3
    assert q != 0.6


DIM = len(F) + 3  # one-hot block plus fitness, size, and coverage slots


def test_sarsa_zero_weights_delta_equals_reward(monkeypatch):
    monkeypatch.setattr(affs, "BETA", 0.25)
    zeros = tuple([0.0] * DIM)
    strategy = _sarsa([Action((F.EX,), 0), Action((F.EX, F.LINE), 1)],
                      weights=[0.0] * DIM, first_features=zeros)
    strategy.update_and_select(4.0, lambda a: zeros, 1, random.Random(1))
    assert strategy.trace[-1].delta == pytest.approx(4.0)
    assert strategy.average_reward == pytest.approx(0.25 * 4.0)


def test_sarsa_alpha_zero_freezes_weights(monkeypatch):
    monkeypatch.setattr(affs, "ALPHA", 0.0)
    strategy = _sarsa([Action((F.EX,), 0)], weights=[5.0], first_features=(1.0,))
    strategy.update_and_select(9.0, lambda a: (1.0,), 1, random.Random(2))
    assert strategy.weights == [5.0]


def test_sarsa_dimension_mismatch():
    strategy = _sarsa([Action((F.EX,), 0)], weights=[1.0, 2.0], first_features=(1.0,))
    with pytest.raises(ValueError):
        strategy.update_and_select(1.0, lambda a: (1.0,), 1, random.Random(0))


def _counting(vector):
    """A features callable that returns ``vector`` and records who asked."""
    asked = []

    def features(action):
        asked.append(action.action_id)
        return vector

    return features, asked


def test_sarsa_epsilon_one_is_uniform(monkeypatch):
    monkeypatch.setattr(affs, "EPSILON", 1.0)
    actions = [Action((F.EX,), i) for i in range(4)]
    strategy = _sarsa(actions, weights=[0.0], first_features=(0.0,))
    rng = random.Random(77)
    features, asked = _counting((0.0,))
    for t in range(1, 4):  # the rest of the seeding
        strategy.update_and_select(0.0, features, t, rng)
    assert strategy.seeded == 4
    counts = {i: 0 for i in range(4)}
    draws = 10_000
    for t in range(draws):
        asked.clear()
        chosen = strategy.update_and_select(0.0, features, t, rng)
        counts[chosen.action_id] += 1
        assert asked == [chosen.action_id]  # an exploring step reads one vector
    for count in counts.values():
        assert abs(count / draws - 0.25) <= 0.03


def test_sarsa_reads_every_action_only_on_a_greedy_step(monkeypatch):
    monkeypatch.setattr(affs, "EPSILON", 0.0)
    actions = [Action((F.EX,), i) for i in range(5)]
    strategy = _sarsa(actions, weights=[0.0], first_features=(0.0,))
    features, asked = _counting((0.0,))
    rng = random.Random(3)
    for t in range(1, 5):
        asked.clear()
        chosen = strategy.update_and_select(0.0, features, t, rng)
        assert asked == [chosen.action_id]  # seeding reads the seeded action only
    asked.clear()
    strategy.update_and_select(0.0, features, 5, rng)
    assert asked == [0, 1, 2, 3, 4]


def test_sarsa_greedy_ties_break_at_random(monkeypatch):
    monkeypatch.setattr(affs, "EPSILON", 0.0)
    actions = [Action((F.EX,), i) for i in range(3)]
    strategy = _sarsa(actions, weights=[1.0], first_features=(0.0,))
    strategy.seeded = len(actions)
    vectors = {0: (1.0,), 1: (2.0,), 2: (2.0,)}
    chosen = {strategy.update_and_select(0.0, lambda a: vectors[a.action_id], t,
                                         random.Random(t)).action_id
              for t in range(40)}
    assert chosen == {1, 2}


# --- seeding completeness --------------------------------------------------------


def _drive_seeding(strategy, space_size):
    rng = random.Random(5)
    zeros = tuple([0.0] * DIM)
    strategy.initial_action(lambda action: zeros, rng)
    for t in range(1, space_size + 1):
        strategy.update_and_select(0.0, lambda action: zeros, t, rng)


def test_seeding_completeness_all_goals_ucb():
    for goal in Goal:
        strategy = UcbStrategy(goal)
        size = len(strategy.space)
        assert strategy.seeding_length == size
        _drive_seeding(strategy, size)
        assert all(strategy.times_selected[a.action_id] == 1 for a in strategy.space)


def test_seeding_completeness_all_goals_sarsa():
    for goal in Goal:
        strategy = SarsaStrategy(goal)
        size = len(strategy.space)
        assert strategy.seeding_length == size
        _drive_seeding(strategy, size)
        seeded = [strategy.seeding_order[0].action_id]
        seeded += [e.action_id for e in strategy.trace[:size - 1]]
        assert strategy.seeded == size
        assert sorted(seeded) == [a.action_id for a in strategy.space]


def test_ucb_reward_bookkeeping_totals():
    strategy = UcbStrategy(Goal.EXCEPTIONS)
    rng = random.Random(9)
    strategy.initial_action(_unread, rng)
    rewards = [rng.uniform(0, 5) for _ in range(100)]
    for t, reward in enumerate(rewards, start=1):
        strategy.update_and_select(reward, _unread, t, rng)
    assert sum(strategy.sum_reward.values()) == pytest.approx(sum(rewards))
    assert sum(strategy.times_selected.values()) == len(rewards)


def test_initial_action_starts_a_fresh_run():
    for strategy in (UcbStrategy(Goal.EXCEPTIONS), SarsaStrategy(Goal.EXCEPTIONS)):
        _drive_seeding(strategy, 80)
        rerun = type(strategy)(Goal.EXCEPTIONS)
        _drive_seeding(rerun, 80)
        _drive_seeding(strategy, 80)
        assert vars(strategy).keys() == vars(rerun).keys()
        for name, value in vars(rerun).items():
            assert getattr(strategy, name) == value, name


# --- baselines --------------------------------------------------------------------


def test_static_strategy_never_changes_action():
    strategy = StaticStrategy(single_function_action(Goal.EXCEPTIONS, F.EX), "static:ex")
    rng = random.Random(0)
    action = strategy.initial_action(_unread, rng)
    assert strategy.seeding_length == 0
    for t in range(1, 20):
        assert strategy.update_and_select(1.0, _unread, t, rng) == action


def test_random_per_run_is_seed_stable():
    first = RandomPerRunStrategy(Goal.DIVERSITY)
    second = RandomPerRunStrategy(Goal.DIVERSITY)
    a = first.initial_action(_unread, random.Random(123))
    b = second.initial_action(_unread, random.Random(123))
    assert a == b
    assert first.seeding_length == 0
    assert first.update_and_select(0.0, _unread, 3, random.Random(9)) == a


def test_default_combination_sizes():
    assert len(default_combination(Goal.EXCEPTIONS).functions) == 8
    assert len(default_combination(Goal.DIVERSITY).functions) == 8
    assert len(default_combination(Goal.STRONG_MUTATION).functions) == 6


def test_make_strategy_specs():
    assert make_strategy("ucb", Goal.EXCEPTIONS).name == "ucb"
    assert make_strategy("sarsa", Goal.DIVERSITY).name == "sarsa"
    assert make_strategy("static:ex", Goal.EXCEPTIONS).name == "static:ex"
    assert make_strategy("default", Goal.STRONG_MUTATION).name == "default"
    with pytest.raises(ValueError):
        make_strategy("static:nope", Goal.EXCEPTIONS)
    with pytest.raises(ValueError):
        make_strategy("zigzag", Goal.EXCEPTIONS)


def test_feature_vector_shape_and_bounds():
    action = Action((F.EX, F.BRANCH), 3)
    vec = feature_vector(action, composite_mean=0.5, suite_size=45,
                         max_suite_size=30, subgoal_coverage=0.25)
    assert len(vec) == len(F) + 3
    assert vec[int(F.EX)] == 1.0 and vec[int(F.BRANCH)] == 1.0
    assert vec[int(F.DIVERSITY)] == 0.0
    assert all(0.0 <= x <= 1.0 for x in vec)
