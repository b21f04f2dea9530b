"""Adaptive fitness function selection: action spaces, agents, and rewards.

An action is a combination of one to four fitness functions. The agent picks
a new action at fixed generation intervals, guided by a goal-specific reward.
Both agents first try every action once, in a seeded shuffled order, before
their regular selection rule takes over.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import random
from dataclasses import dataclass

from affsgen.fitness import FN_BY_NAME, FN_NAMES, FitnessFunctionId, eval_fitness

F = FitnessFunctionId


class Goal(enum.Enum):
    EXCEPTIONS = "exceptions"
    DIVERSITY = "diversity"
    STRONG_MUTATION = "strong-mutation"


@dataclass(frozen=True, slots=True)
class Action:
    functions: tuple[FitnessFunctionId, ...]
    action_id: int

    def label(self) -> str:
        return "+".join(FN_NAMES[f] for f in self.functions)


_POOLS = {
    Goal.EXCEPTIONS: (F.EX, F.BRANCH, F.DIRECT_BRANCH, F.LINE, F.METHOD, F.MNEC,
                      F.OUTPUT, F.WEAK_MUT),
    Goal.DIVERSITY: (F.DIVERSITY, F.EX, F.BRANCH, F.DIRECT_BRANCH, F.METHOD, F.MNEC,
                     F.OUTPUT, F.WEAK_MUT),
    Goal.STRONG_MUTATION: (F.STRONG_MUT, F.EX, F.BRANCH, F.MNEC, F.OUTPUT, F.WEAK_MUT),
}

_REQUIRED = {Goal.EXCEPTIONS: F.EX, Goal.DIVERSITY: F.DIVERSITY}

# pairs that measure nearly the same thing; excluded from diversity combos
_OVERLAP_PAIRS = ((F.BRANCH, F.DIRECT_BRANCH), (F.METHOD, F.MNEC))

_MAX_SIZE = {Goal.EXCEPTIONS: 4, Goal.DIVERSITY: 4, Goal.STRONG_MUTATION: 3}


def action_space(goal: Goal) -> list[Action]:
    """All selectable fitness-function combinations for a goal: 64 for
    exceptions, 52 for diversity (overlap pairs excluded), 41 for strong
    mutation. Built once per goal; each call returns a new list of the same
    ``Action`` objects."""
    return list(_actions(goal))


@functools.cache
def _actions(goal: Goal) -> tuple[Action, ...]:
    pool = _POOLS[goal]
    required = _REQUIRED.get(goal)
    combos = []
    for size in range(1, _MAX_SIZE[goal] + 1):
        for subset in itertools.combinations(pool, size):
            if required is not None and required not in subset:
                continue
            if goal is Goal.DIVERSITY and any(
                a in subset and b in subset for a, b in _OVERLAP_PAIRS
            ):
                continue
            combos.append(subset)
    combos.sort(key=lambda c: (len(c), tuple(int(f) for f in c)))
    return tuple(Action(functions=tuple(sorted(c)), action_id=i)
                 for i, c in enumerate(combos))


def default_combination(goal: Goal) -> Action:
    """The union-of-all-functions baseline action (outside the RL space)."""
    return Action(functions=tuple(sorted(_POOLS[goal])), action_id=-1)


def single_function_action(goal: Goal, fn: FitnessFunctionId) -> Action:
    space = action_space(goal)
    for action in space:
        if action.functions == (fn,):
            return action
    raise ValueError(f"{FN_NAMES[fn]} alone is not a valid action for {goal.value}")


# --- agent constants and features ---------------------------------------------------

UCB_C = 1.414  # UCB confidence level
ALPHA = 0.1  # Sarsa step size of the weights
BETA = 0.1  # Sarsa step size of the average reward
EPSILON = 0.1  # Sarsa exploration probability

FEATURE_DIM = len(FitnessFunctionId) + 3


def feature_vector(action: Action, composite_mean: float, suite_size: int,
                   max_suite_size: int, subgoal_coverage: float) -> tuple[float, ...]:
    """One-hot action block + [mean fitness, normalized size, subgoal coverage]."""
    one_hot = [0.0] * len(FitnessFunctionId)
    for fn in action.functions:
        one_hot[int(fn)] = 1.0
    size = min(1.0, suite_size / max_suite_size) if max_suite_size > 0 else 0.0
    return tuple(one_hot + [composite_mean, size, subgoal_coverage])


@dataclass(slots=True)
class SarsaTraceEntry:
    delta: float
    reward: float
    action_id: int
    q_old: float
    q_new: float


# --- rewards -----------------------------------------------------------------------


class RewardTracker:
    """Goal-specific reward bookkeeping across strategy update ticks.

    Exceptions: total discovered plus those thrown by the current best suite.
    Diversity: drop in the diversity fitness since the previous tick.
    Strong mutation: improvement in the weak/strong mutation score, weak-only
    while the agent is still seeding, then alternating weak (even tick) and
    strong (odd tick).
    """

    def __init__(self, goal: Goal, seeding_length: int):
        self.goal = goal
        self.seeding_length = seeding_length
        self.prev_diversity_fitness: float | None = None
        self.last_weak: float | None = None
        self.last_strong: float | None = None

    def prime(self, best_suite, ctx) -> None:
        if self.goal is Goal.DIVERSITY:
            self.prev_diversity_fitness = eval_fitness(F.DIVERSITY, best_suite, ctx)
        elif self.goal is Goal.STRONG_MUTATION:
            self.last_weak = ctx.mutation_score(best_suite, "weak")
            self.last_strong = ctx.mutation_score(best_suite, "strong")

    def measure(self, best_suite, ctx, tick: int) -> float:
        if self.goal is Goal.EXCEPTIONS:
            return float(len(ctx.discovered_exceptions) + len(ctx.suite_exceptions(best_suite)))
        if self.goal is Goal.DIVERSITY:
            current = eval_fitness(F.DIVERSITY, best_suite, ctx)
            previous = self.prev_diversity_fitness
            self.prev_diversity_fitness = current
            return (previous if previous is not None else 1.0) - current
        # strong mutation: alternate modes after the seeding phase
        if tick < self.seeding_length or tick % 2 == 0:
            mode = "weak"
        else:
            mode = "strong"
        score = ctx.mutation_score(best_suite, mode)
        if mode == "weak":
            previous, self.last_weak = self.last_weak, score
        else:
            previous, self.last_strong = self.last_strong, score
        return score - (previous if previous is not None else 0.0)


# --- strategies -----------------------------------------------------------------------


class Strategy:
    """One action-selection policy driving a single search run.

    ``features`` is a callable ``features(action) -> tuple`` giving the
    feature vector of an action on the current best suite. The engine builds
    a vector only when a strategy calls it, and only Sarsa does.
    ``seeding_length`` is the number of ticks the strategy spends trying
    every action once (0 for the non-learning strategies).
    ``initial_action`` starts a run and resets whatever the strategy learned.
    The agents' settings are the module constants ``UCB_C``, ``ALPHA``,
    ``BETA`` and ``EPSILON``.
    """

    name = "strategy"
    seeding_length = 0

    def initial_action(self, features, rng: random.Random) -> Action:
        raise NotImplementedError

    def update_and_select(self, reward: float, features, t: int,
                          rng: random.Random) -> Action:
        raise NotImplementedError


def _checked_space(goal: Goal, space: list[Action] | None) -> list[Action]:
    space = action_space(goal) if space is None else list(space)
    if not space:
        raise ValueError("empty action space")
    return space


class StaticStrategy(Strategy):
    def __init__(self, action: Action, name: str):
        self.action = action
        self.name = name

    def initial_action(self, features, rng) -> Action:
        return self.action

    def update_and_select(self, reward, features, t, rng) -> Action:
        return self.action


class RandomPerRunStrategy(Strategy):
    """Draws one action uniformly at run start and holds it."""

    def __init__(self, goal: Goal, space: list[Action] | None = None):
        self.name = "random"
        self.space = _checked_space(goal, space)
        self.action: Action | None = None

    def initial_action(self, features, rng) -> Action:
        self.action = self.space[rng.randrange(len(self.space))]
        return self.action

    def update_and_select(self, reward, features, t, rng) -> Action:
        return self.action


class UcbStrategy(Strategy):
    """UCB1 over the action space: untried actions first, then the largest bound.

    The bound is mean reward plus UCB_C * sqrt(ln t / times selected). Ties
    break toward the earliest action of the space, which is the lowest id for
    every space ``action_space`` builds.

    ``t`` is the generation number that ``engine.run_search`` passes to
    ``update_and_select``, not the count of plays: the agent plays once
    every ``skip_iter`` generations, so above a ``skip_iter`` of 1 its
    ``ln t`` is larger than UCB1's (Auer, Cesa-Bianchi and Fischer, 2002),
    which counts plays, and it explores more.
    """

    def __init__(self, goal: Goal, space: list[Action] | None = None):
        self.name = "ucb"
        self.space = _checked_space(goal, space)
        self.seeding_length = len(self.space)

    def initial_action(self, features, rng) -> Action:
        self.times_selected = {a.action_id: 0 for a in self.space}
        self.sum_reward = {a.action_id: 0.0 for a in self.space}
        self.seeding_order = list(self.space)
        rng.shuffle(self.seeding_order)
        self.current = self._select(0)
        return self.current

    def update_and_select(self, reward, features, t, rng) -> Action:
        self.times_selected[self.current.action_id] += 1
        self.sum_reward[self.current.action_id] += reward
        self.current = self._select(t)
        return self.current

    def _select(self, t: int) -> Action:
        for action in self.seeding_order:
            if self.times_selected[action.action_id] == 0:
                return action
        log_t = math.log(t) if t > 1 else 0.0
        best_action = None
        best_bound = -math.inf
        for action in self.space:
            n = self.times_selected[action.action_id]
            bound = self.sum_reward[action.action_id] / n + UCB_C * math.sqrt(log_t / n)
            if bound > best_bound:
                best_bound = bound
                best_action = action
        return best_action


class SarsaStrategy(Strategy):
    """Differential semi-gradient Sarsa with a linear Q over feature vectors.

    Each tick computes delta = reward - average reward + q(S',A') - q(S,A),
    moves the average reward by BETA * delta and the weights by
    ALPHA * delta * X(S,A). After seeding it picks a uniform random action
    with probability EPSILON, else one of the highest Q at random. Only the
    greedy step reads every action's features.
    """

    def __init__(self, goal: Goal, space: list[Action] | None = None):
        self.name = "sarsa"
        self.space = _checked_space(goal, space)
        self.seeding_length = len(self.space)

    def initial_action(self, features, rng) -> Action:
        self.weights = [0.0] * FEATURE_DIM
        self.average_reward = 0.0
        self.trace: list[SarsaTraceEntry] = []
        self.seeding_order = list(self.space)
        rng.shuffle(self.seeding_order)
        first = self.seeding_order[0]
        self.seeded = 1
        self.last_features = features(first)
        return first

    def update_and_select(self, reward, features, t, rng) -> Action:
        q_old = self._q(self.last_features)
        if self.seeded < len(self.seeding_order):
            action = self.seeding_order[self.seeded]
            self.seeded += 1
            new_features = features(action)
        elif rng.random() < EPSILON:
            action = self.space[rng.randrange(len(self.space))]
            new_features = features(action)
        else:
            vectors = [features(a) for a in self.space]
            qs = [self._q(x) for x in vectors]
            best = max(qs)
            top = [i for i, q in enumerate(qs) if q == best]
            chosen = top[rng.randrange(len(top))]
            action, new_features = self.space[chosen], vectors[chosen]
        q_new = self._q(new_features)
        delta = reward - self.average_reward + q_new - q_old
        self.average_reward += BETA * delta
        self.weights = [w + ALPHA * delta * x
                        for w, x in zip(self.weights, self.last_features)]
        self.trace.append(SarsaTraceEntry(delta=delta, reward=reward,
                                          action_id=action.action_id,
                                          q_old=q_old, q_new=q_new))
        self.last_features = new_features
        return action

    def _q(self, features: tuple[float, ...]) -> float:
        # a left fold, as ``fitness.composite_fitness`` sums: the same bits on every CPython
        q = 0
        for w, x in zip(self.weights, features, strict=True):
            q += w * x
        return q


def make_strategy(spec: str, goal: Goal) -> Strategy:
    """Build a strategy from its CLI name: ucb, sarsa, static:<fn>, default, random."""
    if spec == "ucb":
        return UcbStrategy(goal)
    if spec == "sarsa":
        return SarsaStrategy(goal)
    if spec == "default":
        return StaticStrategy(default_combination(goal), name="default")
    if spec == "random":
        return RandomPerRunStrategy(goal)
    if spec.startswith("static:"):
        name = spec.split(":", 1)[1]
        if name not in FN_BY_NAME:
            raise ValueError(f"unknown fitness function {name!r}")
        return StaticStrategy(single_function_action(goal, FN_BY_NAME[name]), name=spec)
    raise ValueError(f"unknown strategy {spec!r}")
