"""Genetic algorithm over test suites with periodic fitness-function swaps.

Every generation the population is scored under the currently active action,
sorted, and rebuilt from elites, tournament-selected crossover children,
mutated suites, and a few fresh random suites. Every ``skip_iter`` generations
the strategy observes a reward and installs the next action. An archive keeps
the first (shortest) test covering each goal so coverage survives the churn;
the final suite is minimized against the goal set and then topped back up
from the archive.

Suites are immutable tuples of tests, so elites and parents that are not
crossed over pass into the next generation as they are, shared rather than
copied.
"""

from __future__ import annotations

import gc
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass

from affsgen.affs import Action, Goal, RewardTracker, Strategy, feature_vector
from affsgen.fitness import (
    FitnessContext,
    FitnessFunctionId,
    bit_positions,
    evaluate_suite,
    suite_diversity,
)
from affsgen.minilang.interpreter import InterpConfig
from affsgen.minilang.nodes import Program
from affsgen.testmodel import (
    Archive,
    ExceptionGoal,
    GenConfig,
    GoalId,
    MethodGoal,
    MutantGoal,
    TestCase,
    TestSuite,
    augment_from_archive,
    crossover,
    goal_label,
    literal_pool,
    minimize,
    mutate_suite,
    random_suite,
    render_test,
)
from affsgen.mutation import MutantStatus
from affsgen.tracing import behavior_of

ELITE_COUNT = 2  # best-ranked suites carried into the next generation
CROSSOVER_RATE = 0.75  # probability that a parent pair is crossed over
MUTATION_RATE = 0.9  # probability that a child is mutated
FRESH_RANDOM_PER_GEN = 2  # random suites added to each generation


@dataclass(frozen=True, slots=True)
class Budget:
    generations: int | None = None
    seconds: float | None = None

    def __post_init__(self):
        if self.generations is None and self.seconds is None:
            raise ValueError("budget needs a generation count or a wall-clock limit")
        if self.generations is not None and (type(self.generations) is not int
                                             or self.generations < 1):
            raise ValueError(f"generation budget must be an int of at least 1, "
                             f"not {self.generations!r}")
        if self.seconds is not None and (type(self.seconds) not in (int, float)
                                         or not (math.isfinite(self.seconds) and self.seconds > 0)):
            # a NaN limit would never be reached, nor an infinite one
            raise ValueError(f"wall-clock budget must be positive and finite, not {self.seconds!r}")


@dataclass(frozen=True, slots=True)
class EngineConfig:
    population_size: int = 50
    skip_iter: int = 3
    budget: Budget = Budget(generations=200)

    def __post_init__(self):
        for name, least in (("population_size", 2), ("skip_iter", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an int of at least {least}, not {value!r}")


@dataclass(slots=True)
class GenerationRecord:
    generation: int
    action_id: int
    action: str
    reward: float | None
    best_composite: float
    archive_size: int
    elapsed_ns: int


@dataclass(slots=True)
class SearchResult:
    program_id: str
    goal: Goal
    strategy_name: str
    seed: int
    final_suite: TestSuite
    goals: set[GoalId]
    covered_goals: set[GoalId]
    log: list[GenerationRecord]
    metrics: dict
    # index of each final test -> labels of the goals it covers
    per_test_goals: dict[int, list[str]]
    # per final test, in suite order: each call's behaviour on the searched
    # program (``tracing.behavior_of``), from the search's own runs
    final_behaviors: tuple[tuple[tuple, ...], ...]

    @property
    def generations(self) -> int:
        return len(self.log)

    @property
    def rewards_logged(self) -> list[float]:
        return [rec.reward for rec in self.log if rec.reward is not None]

    @property
    def strategy_updates(self) -> int:
        return len(self.rewards_logged)

    @property
    def action_histogram(self) -> dict[int, int]:
        """Generations spent under each action id, in order of first use."""
        return dict(Counter(rec.action_id for rec in self.log))

    def to_dict(self, omit_timing: bool = False) -> dict:
        """JSON-ready form; timing can be omitted for byte-stable comparison."""
        tests = []
        for idx, test in enumerate(self.final_suite):
            tests.append({
                "calls": [
                    {"function": c.function, "args": list(args)}
                    for c, args in zip(test.calls, test.args)
                ],
                "covered_goals": self.per_test_goals.get(idx, []),
            })
        records = []
        for rec in self.log:
            row = {
                "generation": rec.generation,
                "action_id": rec.action_id,
                "action": rec.action,
                "reward": rec.reward,
                "best_composite": rec.best_composite,
                "archive_size": rec.archive_size,
            }
            if not omit_timing:
                row["elapsed_ns"] = rec.elapsed_ns
            records.append(row)
        return {
            "program_id": self.program_id,
            "goal": self.goal.value,
            "strategy": self.strategy_name,
            "seed": self.seed,
            "goals": sorted(goal_label(g) for g in self.goals),
            "covered_goals": sorted(goal_label(g) for g in self.covered_goals),
            "tests": tests,
            "metrics": self.metrics,
            "generations": [self.generations, self.strategy_updates],
            "per_generation": records,
        }

    def to_json(self, omit_timing: bool = False) -> str:
        return json.dumps(self.to_dict(omit_timing=omit_timing), indent=2, sort_keys=True)


# --- goal coverage -----------------------------------------------------------


def _killed_goals(ctx: FitnessContext, test: TestCase, wanted: int | None) -> list[MutantGoal]:
    """Goals of the mutants this test kills, among the ``wanted`` mask's
    (all when None), in mutant order."""
    killed = ctx.fold((test,), MutantStatus.KILLED, wanted)[2]
    return [MutantGoal(mutant_id) for mutant_id in bit_positions(killed)]


def make_coverage_fn(goal: Goal, ctx: FitnessContext):
    """Map a test case to the set of goal ids it covers. Nothing is kept per
    test: each call reads the context's memoized trace or fold records."""

    if goal is Goal.EXCEPTIONS:
        def compute(test: TestCase) -> set[GoalId]:
            return {ExceptionGoal(kind, fn) for kind, fn in ctx.trace(test).exceptions}
    elif goal is Goal.DIVERSITY:
        def compute(test: TestCase) -> set[GoalId]:
            return {MethodGoal(name) for name in ctx.trace(test).functions_called}
    else:
        def compute(test: TestCase) -> set[GoalId]:
            return set(_killed_goals(ctx, test, None))

    return compute


def make_archive_updater(goal: Goal, ctx: FitnessContext, archive: Archive, coverage_fn):
    """Offer goal-covering tests to the archive, once per unique test.

    Under strong mutation a fresh test is classified only against the mutants
    missing from the archive, since classifying every population test against
    every mutant would dominate those runs: an archived mutant keeps the first
    test that killed it. For the other goals every goal a fresh test covers
    is offered, so a test with fewer calls replaces an archived one.
    """
    seen: set[TestCase] = set()

    if goal is Goal.STRONG_MUTATION:
        def update(tests) -> None:
            fresh = [t for t in tests if t not in seen]
            if not fresh:
                return
            seen.update(fresh)
            # the archive's keys are the goals of the mutants killed so far
            unarchived = (((1 << len(ctx.mutants)) - 1)
                          & ~sum(1 << goal.mutant_id for goal in archive.entries))
            for test in fresh:
                for covered in _killed_goals(ctx, test, unarchived):
                    archive.offer(covered, test)
    else:
        def update(tests) -> None:
            for test in tests:
                if test in seen:
                    continue
                seen.add(test)
                for covered in coverage_fn(test):
                    archive.offer(covered, test)

    return update


def goal_universe(goal: Goal, ctx: FitnessContext) -> set[GoalId]:
    """All goals known so far; for exceptions this grows during the run."""
    if goal is Goal.EXCEPTIONS:
        return {ExceptionGoal(kind, fn) for kind, fn in ctx.discovered_exceptions}
    if goal is Goal.DIVERSITY:
        return {MethodGoal(name) for name in ctx.function_names}
    return {MutantGoal(m.mutant_id) for m in ctx.mutants}


def _subgoal_coverage(goal: Goal, suite: TestSuite, ctx: FitnessContext,
                      coverage_fn) -> float:
    universe = goal_universe(goal, ctx)
    if not universe:
        return 0.0
    covered: set[GoalId] = set()
    for test in suite:
        covered |= coverage_fn(test)
    return len(covered & universe) / len(universe)


# --- the GA ---------------------------------------------------------------------


def _tournament(rng: random.Random, size: int) -> int:
    a = rng.randrange(size)
    b = rng.randrange(size)
    return min(a, b)  # population is sorted by fitness, lower index wins


def evolve_one_generation(population: list[TestSuite],
                          functions: tuple[FitnessFunctionId, ...], program: Program,
                          ctx: FitnessContext, config: EngineConfig, gen_config: GenConfig,
                          rng: random.Random, archive_update,
                          pool) -> tuple[TestSuite, float, list[TestSuite]]:
    """Score ``population`` under ``functions``, archive its tests, and breed
    the next one. Returns (best suite, its composite, next population)."""
    scored = sorted(
        ((evaluate_suite(suite, functions, ctx), idx, suite)
         for idx, suite in enumerate(population)),
        key=lambda triple: (triple[0], triple[1]),
    )
    ranked = [suite for _, _, suite in scored]

    n_elites = min(ELITE_COUNT, config.population_size)
    n_fresh = min(FRESH_RANDOM_PER_GEN, config.population_size - n_elites)
    next_population = ranked[:n_elites]

    while len(next_population) < config.population_size - n_fresh:
        pa = ranked[_tournament(rng, len(ranked))]
        pb = ranked[_tournament(rng, len(ranked))]
        if rng.random() < CROSSOVER_RATE and pa and pb:
            child_a, child_b = crossover(pa, pb, rng, gen_config)
        else:
            child_a, child_b = pa, pb
        for child in (child_a, child_b):
            if len(next_population) >= config.population_size - n_fresh:
                break
            if rng.random() < MUTATION_RATE:
                child = mutate_suite(child, program, rng, gen_config, pool)
            next_population.append(child)

    for _ in range(n_fresh):
        next_population.append(random_suite(program, rng, gen_config, pool))

    # archive every goal-covering test seen in the scored population
    archive_update(test for suite in ranked for test in suite)
    return ranked[0], scored[0][0], next_population


def run_search(program: Program, goal: Goal, strategy: Strategy, config: EngineConfig,
               seed: int, gen_config: GenConfig = GenConfig(),
               interp: InterpConfig = InterpConfig()) -> SearchResult:
    """Run one full search, with every random draw from ``seed``, and return
    the finalized suite plus the run log.

    The cycle collector is paused while the search runs and switched back
    on afterwards, even when the search raises, if the caller had it on; no
    collection is forced on the way out. That is safe because a search
    makes no reference cycles: all it builds, its memoized call records,
    traces and schema runs included, is freed by reference counting, which
    ``tests/test_engine.py::test_a_search_leaves_no_cyclic_garbage`` checks
    for every corpus pair, goal and strategy. A full collection would walk
    every object the memos hold, for nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _search(program, goal, strategy, config, seed, gen_config, interp)
    finally:
        if enabled:
            gc.enable()


def _search(program: Program, goal: Goal, strategy: Strategy, config: EngineConfig,
            seed: int, gen_config: GenConfig, interp: InterpConfig) -> SearchResult:
    rng = random.Random(seed)
    ctx = FitnessContext(program, interp)
    pool = literal_pool(program)
    coverage_fn = make_coverage_fn(goal, ctx)

    population = [random_suite(program, rng, gen_config, pool)
                  for _ in range(config.population_size)]
    archive = Archive()
    archive_update = make_archive_updater(goal, ctx, archive, coverage_fn)

    tracker = RewardTracker(goal, seeding_length=strategy.seeding_length)

    best_suite = population[0]  # provisional, until the first generation is scored
    action = strategy.initial_action(
        _features_of(best_suite, ctx, goal, gen_config, coverage_fn), rng)
    tracker.prime(best_suite, ctx)

    log: list[GenerationRecord] = []
    started = time.monotonic()
    generation = tick = 0

    while True:
        if config.budget.generations is not None and generation >= config.budget.generations:
            break
        if config.budget.seconds is not None and time.monotonic() - started >= config.budget.seconds:
            break
        gen_started = time.perf_counter_ns()
        best_suite, best_composite, population = evolve_one_generation(
            population, action.functions, program, ctx, config, gen_config, rng,
            archive_update, pool)
        generation += 1
        reward: float | None = None
        if generation % config.skip_iter == 0:
            reward = tracker.measure(best_suite, ctx, tick)
            features = _features_of(best_suite, ctx, goal, gen_config, coverage_fn)
            action = strategy.update_and_select(reward, features, generation, rng)
            tick += 1
        log.append(GenerationRecord(
            generation=generation,
            action_id=action.action_id,
            action=action.label(),
            reward=reward,
            best_composite=best_composite,
            archive_size=len(archive),
            elapsed_ns=time.perf_counter_ns() - gen_started,
        ))

    goals = goal_universe(goal, ctx)
    minimized = minimize(best_suite, goals, coverage_fn)
    final = augment_from_archive(minimized, archive, goals, coverage_fn)

    covered: set[GoalId] = set()
    per_test_goals: dict[int, list[str]] = {}
    for idx, test in enumerate(final):
        test_goals = coverage_fn(test) & goals
        covered |= test_goals
        per_test_goals[idx] = sorted(goal_label(g) for g in test_goals)

    return SearchResult(
        program_id=program.source_id,
        goal=goal,
        strategy_name=strategy.name,
        seed=seed,
        final_suite=final,
        goals=goals,
        covered_goals=covered,
        log=log,
        metrics=_final_metrics(goal, final, ctx, covered, goals),
        per_test_goals=per_test_goals,
        # the metrics traced every final test: this only reads their traces
        final_behaviors=tuple(tuple(behavior_of(call.result) for call in ctx.trace(test).calls)
                              for test in final),
    )


def _features_of(best: TestSuite, ctx: FitnessContext, goal: Goal, gen_config: GenConfig,
                 coverage_fn):
    """``features(action)``: an action's feature vector on ``best``, built on demand.

    The subgoal coverage is computed on the first call only.
    """
    subgoals: float | None = None

    def features(action: Action) -> tuple[float, ...]:
        nonlocal subgoals
        if subgoals is None:
            subgoals = _subgoal_coverage(goal, best, ctx, coverage_fn)
        mean = evaluate_suite(best, action.functions, ctx) / len(action.functions)
        return feature_vector(action, mean, len(best), gen_config.max_suite_size,
                              subgoals)

    return features


def _final_metrics(goal: Goal, final: TestSuite, ctx: FitnessContext,
                   covered: set[GoalId], goals: set[GoalId]) -> dict:
    suite_exceptions = ctx.suite_exceptions(final)
    rendered = [render_test(t) for t in final]
    metrics: dict = {
        "suite_size": len(final),
        "rendered_chars": sum(len(r) for r in rendered),
        "exceptions_discovered": len(ctx.discovered_exceptions),
        "suite_exceptions": len(suite_exceptions),
        "goals_total": len(goals),
        "goals_covered": len(covered),
    }
    if goal is Goal.DIVERSITY:
        div, fit = suite_diversity(final, ctx)
        metrics["diversity"] = div
        metrics["diversity_fitness"] = fit
    if goal is Goal.STRONG_MUTATION:
        metrics["mutants"] = len(ctx.mutants)
        metrics["weak_mutation_score"] = ctx.mutation_score(final, "weak")
        metrics["strong_mutation_score"] = ctx.mutation_score(final, "strong")
    return metrics
