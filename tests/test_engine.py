"""Search-loop behavior: cadence, elitism, determinism, archive, finalization."""

import gc
import hashlib
import random
from pathlib import Path

import pytest

from affsgen import affs, engine
from affsgen.affs import Action, Goal, RewardTracker, SarsaStrategy, make_strategy
from affsgen.engine import (
    Budget,
    EngineConfig,
    evolve_one_generation,
    make_archive_updater,
    make_coverage_fn,
    run_search,
)
from affsgen.fitness import FitnessContext, evaluate_suite
from affsgen.fitness import FitnessFunctionId as F
from affsgen.harness import load_corpus
from affsgen.minilang import parse
from affsgen.mutation import MutantStatus
from affsgen.testmodel import (
    Archive,
    CallStmt,
    GenConfig,
    MutantGoal,
    TestCase,
    literal_pool,
    random_suite,
    render_test,
)
from oracles import full_reexecution_status

PROGRAM = parse("""
fn guarded(x:int, y:int) {
  if (x * 11 + y == 700) {
    if (y > 4) { throw "deep"; }
    return 1;
  }
  return 0;
}
fn brittle(d:int) {
  return 100 / d;
}
""", "engine-demo")


def _config(**overrides):
    defaults = dict(population_size=12, budget=Budget(generations=12))
    defaults.update(overrides)
    return EngineConfig(**defaults)


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        Budget(generations=0)
    with pytest.raises(ValueError):
        Budget()
    with pytest.raises(ValueError):
        Budget(seconds=-1.0)
    for generations in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError):
            Budget(generations=generations)
    assert Budget(generations=1).generations == 1


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(population_size=1)
    with pytest.raises(ValueError):
        EngineConfig(skip_iter=0)


@pytest.mark.parametrize("settings", [
    {"population_size": 4.5}, {"population_size": True}, {"population_size": -2},
    {"population_size": 2.0}, {"skip_iter": -3}, {"skip_iter": "2"},
    {"skip_iter": 1.5}, {"skip_iter": False},
])
def test_engine_config_counts_must_be_ints_in_range(settings):
    with pytest.raises(ValueError):
        EngineConfig(**settings)


def test_engine_config_accepts_its_edge_counts():
    EngineConfig(population_size=2, skip_iter=1)


def _one_generation(population_size):
    """A random population, ranked best first, and the next population after one
    generation."""
    ctx = FitnessContext(PROGRAM)
    rng = random.Random(3)
    gen_cfg = GenConfig()
    pool = literal_pool(PROGRAM)
    population = [random_suite(PROGRAM, rng, gen_cfg, pool) for _ in range(population_size)]
    coverage = make_coverage_fn(Goal.EXCEPTIONS, ctx)
    archive = Archive()
    updater = make_archive_updater(Goal.EXCEPTIONS, ctx, archive, coverage)
    action = make_strategy("static:ex", Goal.EXCEPTIONS).initial_action({}, rng)
    ranked = [suite for _, _, suite in sorted(
        (evaluate_suite(suite, action.functions, ctx), idx, suite)
        for idx, suite in enumerate(population))]
    best, _, next_population = evolve_one_generation(
        population, action.functions, PROGRAM, ctx, _config(population_size=population_size),
        gen_cfg, rng, updater, pool)
    assert best is ranked[0]
    return ranked, next_population


def test_pure_elitism_keeps_population(monkeypatch):
    monkeypatch.setattr(engine, "ELITE_COUNT", 6)
    monkeypatch.setattr(engine, "FRESH_RANDOM_PER_GEN", 0)
    population, next_population = _one_generation(6)

    def rendering(suites):
        return sorted(tuple(render_test(t) for t in s) for s in suites)

    assert rendering(next_population) == rendering(population)


@pytest.mark.parametrize("population_size", [2, 3, 4, 5])
def test_a_generation_keeps_its_size_and_shares_its_elites(population_size):
    ranked, next_population = _one_generation(population_size)
    assert len(next_population) == population_size
    elites = min(engine.ELITE_COUNT, population_size)
    for elite, best in zip(next_population[:elites], ranked[:elites]):
        assert elite is best


def test_update_cadence_is_floor_of_generations_over_skip_iter():
    for budget, skip, expected in [(9, 3, 3), (10, 3, 3), (12, 4, 3), (7, 1, 7)]:
        result = run_search(
            PROGRAM, Goal.EXCEPTIONS, make_strategy("ucb", Goal.EXCEPTIONS),
            _config(budget=Budget(generations=budget), skip_iter=skip), 5,
        )
        assert result.strategy_updates == expected
        assert result.generations == budget


def test_static_strategy_logs_single_action():
    result = run_search(PROGRAM, Goal.EXCEPTIONS,
                        make_strategy("static:ex", Goal.EXCEPTIONS), _config(), 5)
    assert len({rec.action_id for rec in result.log}) == 1


def test_seeded_runs_are_identical():
    results = [
        run_search(PROGRAM, Goal.EXCEPTIONS, make_strategy("sarsa", Goal.EXCEPTIONS),
                   _config(), 5)
        for _ in range(2)
    ]
    assert results[0].to_json(omit_timing=True) == results[1].to_json(omit_timing=True)


def test_different_seeds_usually_differ():
    a = run_search(PROGRAM, Goal.EXCEPTIONS, make_strategy("ucb", Goal.EXCEPTIONS),
                   _config(budget=Budget(generations=6)), 1)
    b = run_search(PROGRAM, Goal.EXCEPTIONS, make_strategy("ucb", Goal.EXCEPTIONS),
                   _config(budget=Budget(generations=6)), 2)
    assert a.to_json(omit_timing=True) != b.to_json(omit_timing=True)


def test_elitism_keeps_best_composite_non_increasing_with_static_single():
    result = run_search(PROGRAM, Goal.EXCEPTIONS,
                        make_strategy("static:ex", Goal.EXCEPTIONS),
                        _config(budget=Budget(generations=25)), 5)
    composites = [rec.best_composite for rec in result.log]
    assert all(b <= a + 1e-12 for a, b in zip(composites, composites[1:]))


def test_archive_goal_count_is_monotone():
    result = run_search(PROGRAM, Goal.EXCEPTIONS,
                        make_strategy("ucb", Goal.EXCEPTIONS),
                        _config(budget=Budget(generations=100)), 5)
    sizes = [rec.archive_size for rec in result.log]
    assert sizes == sorted(sizes)
    assert result.generations == 100


def test_finalized_suite_covers_archive_goals():
    result = run_search(PROGRAM, Goal.EXCEPTIONS,
                        make_strategy("ucb", Goal.EXCEPTIONS),
                        _config(budget=Budget(generations=40)), 5)
    ctx = FitnessContext(PROGRAM)
    coverage = make_coverage_fn(Goal.EXCEPTIONS, ctx)
    covered = set()
    for test in result.final_suite:
        covered |= coverage(test)
    assert covered >= result.goals  # re-executed from scratch


def test_wall_clock_budget_stops():
    config = EngineConfig(population_size=8, budget=Budget(seconds=0.5))
    result = run_search(PROGRAM, Goal.EXCEPTIONS,
                        make_strategy("static:ex", Goal.EXCEPTIONS), config, 1)
    assert result.generations >= 1


def test_reward_log_matches_update_count():
    result = run_search(PROGRAM, Goal.EXCEPTIONS,
                        make_strategy("ucb", Goal.EXCEPTIONS),
                        _config(budget=Budget(generations=20), skip_iter=3), 5)
    assert len(result.rewards_logged) == result.strategy_updates == 20 // 3
    ticks = [rec for rec in result.log if rec.reward is not None]
    assert len(ticks) == result.strategy_updates


def test_run_counters_are_read_from_the_log():
    result = run_search(PROGRAM, Goal.EXCEPTIONS, make_strategy("sarsa", Goal.EXCEPTIONS),
                        _config(budget=Budget(generations=7), skip_iter=2), 5)
    assert result.generations == len(result.log) == 7
    assert result.rewards_logged == [rec.reward for rec in result.log
                                     if rec.generation % 2 == 0]
    assert result.strategy_updates == 3
    assert sum(result.action_histogram.values()) == 7
    assert list(result.action_histogram) == list(dict.fromkeys(
        rec.action_id for rec in result.log))


def test_ucb_never_builds_feature_vectors(monkeypatch):
    def unread(*args, **kwargs):
        raise AssertionError("UCB reads no feature vectors")

    monkeypatch.setattr(engine, "feature_vector", unread)
    result = run_search(PROGRAM, Goal.STRONG_MUTATION,
                        make_strategy("ucb", Goal.STRONG_MUTATION),
                        _config(budget=Budget(generations=4), skip_iter=1), 5)
    assert result.strategy_updates == 4


def test_sarsa_builds_one_feature_vector_per_tick_while_seeding(monkeypatch):
    built = []
    original = engine.feature_vector

    def counting(action, *args):
        built.append(action.action_id)
        return original(action, *args)

    monkeypatch.setattr(engine, "feature_vector", counting)
    strategy = make_strategy("sarsa", Goal.EXCEPTIONS)
    generations = 5
    assert generations < len(strategy.space)
    run_search(PROGRAM, Goal.EXCEPTIONS, strategy,
               _config(budget=Budget(generations=generations), skip_iter=1), 5)
    # the initial action plus one per tick, each the action seeded then
    assert len(built) == generations + 1
    assert built == [a.action_id for a in strategy.seeding_order[:generations + 1]]


def test_subgoal_coverage_is_computed_once_per_tick(monkeypatch):
    computed = []
    original = engine._subgoal_coverage

    def counting(*args):
        computed.append(args[1])
        return original(*args)

    monkeypatch.setattr(engine, "_subgoal_coverage", counting)
    monkeypatch.setattr(affs, "EPSILON", 0.0)  # every tick after seeding is greedy
    space = [Action((F.EX,), 0), Action((F.EX, F.BRANCH), 1), Action((F.EX, F.LINE), 2)]
    strategy = SarsaStrategy(Goal.EXCEPTIONS, space=space)
    run_search(PROGRAM, Goal.EXCEPTIONS, strategy,
               _config(budget=Budget(generations=12), skip_iter=1), 5)
    assert len(computed) == 1 + 12  # the initial action and each tick


def test_exception_reward_definition():
    # discovered run-wide {A,B,C}; best suite throws {A,B} -> reward 5
    ctx = FitnessContext(PROGRAM)
    from affsgen.testmodel import CallStmt, TestCase
    t_zero = TestCase(calls=(CallStmt("brittle", (0,)),))    # DivByZero
    t_deep = TestCase(calls=(CallStmt("guarded", (60, 40)),))  # 660 + 40 = 700, y > 4
    t_big = TestCase(calls=(CallStmt("brittle", (0,)), CallStmt("guarded", (60, 40)),))
    for t in (t_zero, t_deep, t_big):
        ctx.trace(t)
    assert len(ctx.discovered_exceptions) == 2
    tracker = RewardTracker(Goal.EXCEPTIONS, seeding_length=0)
    best = (t_zero,)
    assert tracker.measure(best, ctx, tick=0) == 3.0  # 2 discovered + 1 in best
    best_both = (t_big,)
    assert tracker.measure(best_both, ctx, tick=1) == 4.0


def test_diversity_reward_is_fitness_drop():
    program = parse("fn f(x:int){ return x; }")
    ctx = FitnessContext(program)
    from affsgen.testmodel import CallStmt, TestCase
    single = (TestCase(calls=(CallStmt("f", (1,)),)),)
    varied = (TestCase(calls=(CallStmt("f", (1,)),)),
              TestCase(calls=(CallStmt("f", (31337,)),)))
    tracker = RewardTracker(Goal.DIVERSITY, seeding_length=0)
    tracker.prime(single, ctx)
    reward = tracker.measure(varied, ctx, tick=0)
    assert reward > 0.0
    # moving back to the uniform suite is a negative reward
    assert tracker.measure(single, ctx, tick=1) == pytest.approx(-reward)


def test_strong_mutation_reward_alternates_modes():
    ctx = FitnessContext(PROGRAM)
    from affsgen.testmodel import CallStmt, TestCase
    base = (TestCase(calls=(CallStmt("brittle", (2,)),)),)
    richer = (TestCase(calls=(CallStmt("brittle", (2,)),)),
              TestCase(calls=(CallStmt("brittle", (0,)),)),
              TestCase(calls=(CallStmt("guarded", (0, 700)),)))
    tracker = RewardTracker(Goal.STRONG_MUTATION, seeding_length=0)
    tracker.prime(base, ctx)
    weak_base = ctx.mutation_score(base, "weak")
    strong_base = ctx.mutation_score(base, "strong")
    weak_rich = ctx.mutation_score(richer, "weak")
    strong_rich = ctx.mutation_score(richer, "strong")
    assert tracker.measure(richer, ctx, tick=0) == pytest.approx(weak_rich - weak_base)
    assert tracker.measure(richer, ctx, tick=1) == pytest.approx(strong_rich - strong_base)
    # improvement is measured against the last same-mode score
    assert tracker.measure(richer, ctx, tick=2) == pytest.approx(0.0)


def test_goal_metrics_reported():
    result = run_search(PROGRAM, Goal.STRONG_MUTATION,
                        make_strategy("static:strong_mut", Goal.STRONG_MUTATION),
                        _config(budget=Budget(generations=8)), 5)
    metrics = result.metrics
    assert metrics["mutants"] > 0
    assert 0.0 <= metrics["strong_mutation_score"] <= metrics["weak_mutation_score"] <= 100.0


class _RecordingArchive(Archive):
    __slots__ = ("offered",)

    def __init__(self):
        super().__init__()
        self.offered = []

    def offer(self, goal, test):
        self.offered.append(goal)
        super().offer(goal, test)


def test_strong_mutation_updater_offers_only_unarchived_kills():
    ctx = FitnessContext(PROGRAM)
    test = TestCase(calls=(CallStmt("brittle", (0,)), CallStmt("brittle", (2,)),
                           CallStmt("guarded", (60, 40))))
    coverage = make_coverage_fn(Goal.STRONG_MUTATION, ctx)
    killed = {MutantGoal(m.mutant_id) for m in ctx.mutants
              if full_reexecution_status(m, test) == MutantStatus.KILLED}
    assert len(killed) >= 3
    assert coverage(test) == killed

    held = min(killed, key=lambda g: g.mutant_id)
    archive = _RecordingArchive()
    archive.entries[held] = TestCase(calls=(CallStmt("brittle", (0,)),))
    update = make_archive_updater(Goal.STRONG_MUTATION, ctx, archive, coverage)
    update([test])
    assert archive.offered == sorted(killed - {held}, key=lambda g: g.mutant_id)
    update([test])  # a test is offered once per run
    assert len(archive.offered) == len(killed) - 1


# sha256 of to_json(omit_timing=True), taken before the duplicate composite,
# strong-kill and test-execution paths were merged; any drift in seeded
# behaviour changes them
P05_DIGESTS = {
    (Goal.EXCEPTIONS, "ucb"): "3f0f8202288bab4c819802d1e455174af06e7c19f6928f9d500eb77efdea4b1b",
    (Goal.EXCEPTIONS, "sarsa"): "6a48c6c2b766480e5c43d99cd4808ea6c39450493a29b8e1ba1410527ec91b1f",
    (Goal.DIVERSITY, "ucb"): "96ac49dee30f9107c73059e8210a61254c808e7bfc79bbf65c20486793517020",
    (Goal.DIVERSITY, "sarsa"): "781636bfb5a3c2ef5ba6c118b12f55be04d4daec22bbbc5fd137e92c3b4a78dc",
    (Goal.STRONG_MUTATION, "ucb"):
        "cedd04685c688c46d7187c2b6cf5925593bdf3bb2087d3c64999d0c45213a07d",
    (Goal.STRONG_MUTATION, "sarsa"):
        "943835e196e116255c48c152fc7551e63ea3b7c122d0f0df812f21f7facf0d0f",
}


# The diversity goal under ucb on programs whose tests make several calls
# each: p07 takes strings, p09 three ints. Taken before the bit-parallel edit
# distance and the base-call memos went in.
DIVERSITY_DIGESTS = {
    "p07_string_guards": "478405e1ba2e93da9f4de2e10d1a164d1360def245c0baeb0c5d5597d734665c",
    "p09_median_pick": "66d2e10c2d14675854cf6ea0e00ce832e7400fc13bbf56b11f839c99275f68b8",
}


@pytest.mark.parametrize("fault_id", list(DIVERSITY_DIGESTS))
def test_seeded_diversity_output_is_byte_identical(fault_id):
    source = Path(__file__).resolve().parent.parent / "corpus" / fault_id / "fixed.minij"
    program = parse(source.read_text(), fault_id)
    config = EngineConfig(population_size=6, skip_iter=1, budget=Budget(generations=3))
    result = run_search(program, Goal.DIVERSITY, make_strategy("ucb", Goal.DIVERSITY), config, 11)
    digest = hashlib.sha256(result.to_json(omit_timing=True).encode()).hexdigest()
    assert digest == DIVERSITY_DIGESTS[fault_id]


@pytest.mark.parametrize("goal, strategy", list(P05_DIGESTS))
def test_seeded_output_is_byte_identical(goal, strategy):
    source = Path(__file__).resolve().parent.parent / "corpus" / "p05_terrain_gates" / "fixed.minij"
    program = parse(source.read_text(), "p05_terrain_gates")
    config = EngineConfig(population_size=6, skip_iter=1, budget=Budget(generations=3))
    result = run_search(program, goal, make_strategy(strategy, goal), config, 11)
    digest = hashlib.sha256(result.to_json(omit_timing=True).encode()).hexdigest()
    assert digest == P05_DIGESTS[goal, strategy]


# sha256 of to_json(omit_timing=True) under the default EngineConfig and
# GenConfig for 30 generations, seed 7: long enough that each distinct
# call's memoized record serves many generations of the search
LONG_DIGESTS = {
    ("p05_terrain_gates", Goal.EXCEPTIONS, "sarsa"):
        "088430b935f72c6ba750b8fb9b7c1321c63bd5fce340a05bf7d74bfb5291270e",
    ("p11_triangle_walk", Goal.STRONG_MUTATION, "ucb"):
        "91d92f0d10163b68403ec0dbb16124bff84209c2c43ad05294cab27dc359828d",
}


@pytest.mark.parametrize("fault_id, goal, strategy", list(LONG_DIGESTS))
def test_seeded_output_over_thirty_default_generations_is_byte_identical(fault_id, goal, strategy):
    source = Path(__file__).resolve().parent.parent / "corpus" / fault_id / "fixed.minij"
    program = parse(source.read_text(), fault_id)
    config = EngineConfig(budget=Budget(generations=30))
    result = run_search(program, goal, make_strategy(strategy, goal), config, 7)
    digest = hashlib.sha256(result.to_json(omit_timing=True).encode()).hexdigest()
    assert digest == LONG_DIGESTS[fault_id, goal, strategy]


@pytest.mark.parametrize("goal", list(Goal))
@pytest.mark.parametrize("strategy", ["ucb", "sarsa", "default"])
def test_a_search_leaves_no_cyclic_garbage(goal, strategy):
    # everything a search builds, the memoized call records, traces and
    # schema runs included, is freed by reference counting when it returns
    config = EngineConfig(population_size=4, budget=Budget(generations=2))
    gen_config = GenConfig(max_suite_size=4, max_calls_per_test=3)
    pairs = load_corpus(Path(__file__).resolve().parent.parent / "corpus")
    for pair in pairs:
        gc.collect()
        gc.disable()
        try:
            run_search(pair.fixed_program, goal, make_strategy(strategy, goal), config, 11,
                       gen_config)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0, pair.fault_id


@pytest.fixture
def collector_on():
    """The collector on for the test, and as the test found it afterwards."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def _short_search():
    config = EngineConfig(population_size=4, budget=Budget(generations=3))
    return run_search(PROGRAM, Goal.EXCEPTIONS, make_strategy("ucb", Goal.EXCEPTIONS), config, 11)


def test_a_search_starts_no_collection_and_leaves_the_collector_on(collector_on):
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        _short_search()
    finally:
        gc.callbacks.remove(hook)
    assert started == []
    assert gc.isenabled()


def test_a_search_leaves_a_paused_collector_paused(collector_on):
    gc.disable()
    _short_search()
    assert not gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_search_that_raises_leaves_the_collector_as_it_found_it(monkeypatch, collector_on,
                                                                  enabled):
    def failing(*args):
        assert not gc.isenabled()
        raise RuntimeError("generation failed")

    monkeypatch.setattr(engine, "evolve_one_generation", failing)
    if not enabled:
        gc.disable()
    with pytest.raises(RuntimeError, match="generation failed"):
        _short_search()
    assert gc.isenabled() is enabled
