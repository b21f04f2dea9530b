"""Test-case generation, genetic operators, rendering, archive, minimization."""

import itertools
import random
from pathlib import Path

import pytest

from affsgen import testmodel
from affsgen.harness import load_corpus
from affsgen.minilang import parse
from affsgen.minilang.parser import expr_source
from affsgen.testmodel import (
    Archive,
    CallStmt,
    ExceptionGoal,
    GenConfig,
    MethodGoal,
    MutantGoal,
    TestCase,
    augment_from_archive,
    crossover,
    crossover_at,
    literal_pool,
    minimize,
    mutate_suite,
    random_suite,
    random_test_case,
    render_lines,
    render_test,
)

TWO_FNS = parse("fn one(x:int){ return x; } fn two(s:str){ return s; }")
# one parameter of each kind
KINDS = parse("fn f(a:int, b:bool, c:str){ return a; } fn g(){ return 0; }")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _case(name, *args):
    return TestCase(calls=(CallStmt(name, tuple(args)),))


def _assert_kinds(test: TestCase, program) -> None:
    """Each call passes one argument of its parameter's kind per parameter."""
    params = {fn.name: fn.params for fn in program.functions}
    for call in test.calls:
        assert len(call.args) == len(params[call.function])
        for value, (_, kind) in zip(call.args, params[call.function]):
            assert type(value) is {"int": int, "bool": bool, "str": str}[kind], (call, kind)


# --- random generation ---------------------------------------------------------


def test_random_test_case_deterministic_per_seed():
    a = random_test_case(TWO_FNS, random.Random(42))
    b = random_test_case(TWO_FNS, random.Random(42))
    assert a == b


def test_random_test_case_respects_call_bound():
    cfg = GenConfig(max_calls_per_test=1)
    for seed in range(30):
        test = random_test_case(TWO_FNS, random.Random(seed), cfg)
        assert len(test.calls) == 1


def test_random_test_case_requires_functions():
    with pytest.raises(ValueError):
        random_test_case(parse(""), random.Random(0))


def test_function_choice_is_uniform(monkeypatch):
    monkeypatch.setattr(testmodel, "ALIAS_PROB", 0.0)
    rng = random.Random(7)
    cfg = GenConfig(max_calls_per_test=1)
    counts = {"one": 0, "two": 0}
    total = 10_000
    for _ in range(total):
        test = random_test_case(TWO_FNS, rng, cfg)
        counts[test.calls[0].function] += 1
    assert 0.45 <= counts["one"] / total <= 0.55
    assert 0.45 <= counts["two"] / total <= 0.55


def test_generated_tests_satisfy_invariants():
    rng = random.Random(5)
    cfg = GenConfig()
    for program in (TWO_FNS, KINDS):
        for _ in range(200):
            test = random_test_case(program, rng, cfg)
            assert 1 <= len(test.calls) <= cfg.max_calls_per_test
            _assert_kinds(test, program)


def test_a_test_holds_the_literals_its_calls_were_drawn_with():
    # an argument drawn as an alias is a literal too, marked by its bit
    rng = random.Random(4)
    aliased = 0
    for _ in range(300):
        test = random_test_case(KINDS, rng)
        for call in test.calls:
            assert call.aliased >> len(call.args) == 0
            assert all(type(a) in (int, bool, str) for a in call.args)
        aliased += any(call.aliased for call in test.calls)
    assert aliased > 50


# --- crossover -------------------------------------------------------------------


def test_crossover_cut_one():
    t1, t2, t3, t4 = (_case("one", i) for i in range(4))
    child_a, child_b = crossover_at((t1, t2), (t3, t4), 1, 30)
    assert child_a == (t1, t4)
    assert child_b == (t3, t2)


def test_crossover_identical_parents():
    t1, t2 = _case("one", 1), _case("one", 2)
    child_a, child_b = crossover_at((t1, t2), (t1, t2), 1, 30)
    assert child_a == (t1, t2)
    assert child_b == (t1, t2)


def test_crossover_cut_zero_swaps_parents():
    t1, t2, t3, t4 = (_case("one", i) for i in range(4))
    child_a, child_b = crossover_at((t1, t2), (t3, t4), 0, 30)
    assert child_a == (t3, t4)
    assert child_b == (t1, t2)


def test_crossover_children_only_contain_parent_tests():
    rng = random.Random(2)
    parent_a = random_suite(TWO_FNS, rng)
    parent_b = random_suite(TWO_FNS, rng)
    child_a, child_b = crossover(parent_a, parent_b, rng)
    allowed = set(parent_a) | set(parent_b)
    assert set(child_a) <= allowed
    assert set(child_b) <= allowed


def test_crossover_rejects_empty_parent():
    with pytest.raises(ValueError):
        crossover((), (_case("one", 1),), random.Random(0))


# --- suite mutation ----------------------------------------------------------------


def _mutation_probabilities(monkeypatch, add, remove, change):
    monkeypatch.setattr(testmodel, "ADD_TEST_PROB", add)
    monkeypatch.setattr(testmodel, "REMOVE_TEST_PROB", remove)
    monkeypatch.setattr(testmodel, "TEST_CHANGE_PROB", change)


def test_mutation_probability_zero_is_identity(monkeypatch):
    _mutation_probabilities(monkeypatch, add=0.0, remove=0.0, change=0.0)
    rng = random.Random(1)
    suite = random_suite(TWO_FNS, rng)
    mutated = mutate_suite(suite, TWO_FNS, random.Random(2))
    assert mutated == suite


def test_mutation_forced_add_on_empty_suite(monkeypatch):
    _mutation_probabilities(monkeypatch, add=1.0, remove=0.0, change=0.0)
    mutated = mutate_suite((), TWO_FNS, random.Random(3))
    assert len(mutated) == 1


def test_mutation_sweep_preserves_invariants():
    cfg = GenConfig()
    for program in (TWO_FNS, KINDS):
        rng = random.Random(8)
        suite = random_suite(program, rng)
        for i in range(1_000):
            suite = mutate_suite(suite, program, random.Random(i), cfg)
            assert len(suite) <= cfg.max_suite_size
            for test in suite:
                assert 1 <= len(test.calls) <= cfg.max_calls_per_test
                # a rendering names one test only while every kind holds
                _assert_kinds(test, program)


# one call at the call bound: no insertion, no deletion, so every change
# of ``_mutate_test`` is a literal tweak
ONE_CALL = GenConfig(max_calls_per_test=1)


def test_a_literal_tweak_skips_the_arguments_drawn_as_aliases():
    pool = literal_pool(KINDS)
    rng = random.Random(11)
    test = TestCase((CallStmt("f", (5, True, "x"), aliased=0b101),))
    for _ in range(1_000):
        before = test.calls[0]
        test = testmodel._mutate_test(test, KINDS, pool, rng, ONE_CALL)
        call = test.calls[0]
        assert call.aliased == 0b101 and (call.args[0], call.args[2]) == (5, "x")
        assert call.args[1] is not before.args[1]  # the one free slot, a bool, flipped
    # with every argument an alias, nothing is left to tweak
    test = TestCase((CallStmt("f", (5, True, "x"), aliased=0b111),))
    assert testmodel._mutate_test(test, KINDS, pool, rng, ONE_CALL) == test


def test_an_argument_drawn_as_an_alias_stays_as_drawn_under_literal_tweaks():
    # random calls of up to three arguments, some of them aliases
    pool = literal_pool(KINDS)
    rng = random.Random(11)
    tweaked = 0
    for _ in range(1_000):
        test = random_test_case(KINDS, rng, ONE_CALL)
        before = test.calls[0]
        call = testmodel._mutate_test(test, KINDS, pool, rng, ONE_CALL).calls[0]
        assert call.aliased == before.aliased
        for i, (old, new) in enumerate(zip(before.args, call.args)):
            if before.aliased >> i & 1:
                assert type(new) is type(old) and new == old
        tweaked += call != before
    # about half the calls are of g, which takes no argument to tweak
    assert tweaked > 350


@pytest.mark.parametrize("settings", [
    {"max_calls_per_test": 0},
    {"max_suite_size": 0},
    {"max_calls_per_test": -1},
    {"max_suite_size": -1},
    {"max_calls_per_test": ""},
    {"max_suite_size": None},
    {"max_calls_per_test": False},
    {"max_suite_size": 2.0},
    {"max_calls_per_test": 3, "max_suite_size": -3},
    {"max_suite_size": float("nan")},
    {"max_calls_per_test": 2.5},
    {"max_suite_size": True},
    {"max_calls_per_test": -1.5},
    {"max_suite_size": "9"},
    {"max_calls_per_test": 4.0},
])
def test_gen_config_rejects_settings_no_search_can_use(settings):
    with pytest.raises(ValueError):
        GenConfig(**settings)


def test_gen_config_accepts_its_edge_values():
    GenConfig(max_calls_per_test=1, max_suite_size=1)


# --- rendering ----------------------------------------------------------------------


def test_render_keeps_a_harvested_newline_literal_on_one_line():
    program = parse('fn two(s:str){ if (s == "a\\nb") { return 1; } return 0; }')
    value = "a\nb"
    assert value in literal_pool(program)[1]
    assert render_test(_case("two", value)) == 'two("a\\nb")'
    # one escaping rule with the program printer, and the literal reads back
    condition = program.functions[0].body[0].cond
    assert expr_source(condition.rhs) == '"a\\nb"'
    literal = parse('fn f(){ return "a\\nb"; }').functions[0].body[0].expr
    assert literal.value == value


def test_render_empty_test():
    assert render_test(TestCase(calls=())) == ""


def test_render_one_line_per_call_in_order():
    test = TestCase(calls=(CallStmt("one", (1,)), CallStmt("two", ("ab",))))
    assert render_test(test) == 'one(1)\ntwo("ab")'


def test_render_alias_invariance():
    # a call whose argument was drawn as an alias is the call of its literal
    direct = TestCase(calls=(CallStmt("two", ("var",)), CallStmt("one", (3,))))
    aliased = TestCase(calls=(CallStmt("two", ("var",), aliased=1), CallStmt("one", (3,), 1)))
    assert render_test(direct) == render_test(aliased) == 'two("var")\none(3)'
    assert aliased == direct and hash(aliased) == hash(direct)


def test_render_resolves_alias_chains():
    # an alias, or an alias of an alias, holds the literal at the end of its
    # chain, and the call renders that literal
    test = TestCase(calls=(CallStmt("two", ("var",), aliased=1),))
    assert render_test(test) == 'two("var")'
    rng = random.Random(5)
    drawn = 0
    for _ in range(300):
        for call in random_test_case(KINDS, rng, GenConfig(max_calls_per_test=3)).calls:
            if call.aliased:
                drawn += 1
                plain = TestCase(calls=(CallStmt(call.function, call.args),))
                assert render_test(TestCase(calls=(call,))) == render_test(plain)
    assert drawn > 20


def test_equal_tests_and_equal_renderings_go_together():
    # one id per distinct test is one id per distinct rendering only while
    # rendering is injective on a test's identity
    rng = random.Random(12)
    cfg = GenConfig(max_calls_per_test=4)
    tests = []
    for pair in load_corpus(CORPUS):
        program = pair.fixed_program
        pool = literal_pool(program)
        suites = [random_suite(program, rng, cfg, pool) for _ in range(30)]
        for _ in range(3):
            tests += [test for suite in suites for test in suite]
            suites = [mutate_suite(suite, program, rng, cfg, pool) for suite in suites]
        tests += [test for suite in suites for test in suite]
    assert len(tests) > 2_000
    renderings = {test: render_lines(test) for test in tests}
    assert len(set(renderings.values())) == len(renderings)  # distinct tests, distinct lines
    assert all(render_lines(test) == renderings[test] for test in tests)  # equal, same lines
    assert len(renderings) < len(tests)  # some tests recur, unchanged or equal


def test_render_literal_forms():
    test = TestCase(calls=(CallStmt("f", (True, False, -3, 'say "hi"')),))
    assert render_test(test) == 'f(true,false,-3,"say \\"hi\\"")'


# --- archive, minimize, augment ---------------------------------------------------------


G1, G2, G3 = MethodGoal("one"), MethodGoal("two"), ExceptionGoal("DivByZero", "one")


def test_minimize_drops_redundant_test():
    t1, t2 = _case("one", 1), _case("one", 2)
    coverage = {t1: {G1, G2}, t2: {G1}}.get
    result = minimize((t1, t2), {G1, G2}, lambda t: coverage(t, set()))
    assert result == (t1,)


def test_minimize_keeps_disjoint_tests():
    t1, t2 = _case("one", 1), _case("one", 2)
    coverage = {t1: {G1}, t2: {G2}}
    result = minimize((t1, t2), {G1, G2}, lambda t: coverage[t])
    assert result == (t1, t2)


def test_minimize_empty_goals_empties_suite():
    t1 = _case("one", 1)
    result = minimize((t1,), set(), lambda t: {G1})
    assert result == ()


def test_minimize_preserves_coverage_brute_force():
    rng = random.Random(17)
    goals = [G1, G2, G3, MutantGoal(4), MutantGoal(5), ExceptionGoal("TypeError", "two")]
    for trial in range(200):
        n_tests = rng.randint(0, 6)
        tests = [_case("one", 100 * trial + i) for i in range(n_tests)]
        coverage = {t: {g for g in goals if rng.random() < 0.4} for t in tests}
        relevant = set(g for g in goals if rng.random() < 0.7)
        suite = tuple(tests)
        result = minimize(suite, relevant, lambda t: coverage[t])
        covered_before = set().union(*(coverage[t] & relevant for t in tests)) if tests else set()
        covered_after = set().union(*(coverage[t] & relevant for t in result)) if result else set()
        assert covered_after == covered_before


def test_augment_appends_missing_goal():
    t1, t2 = _case("one", 1), _case("one", 2)
    archive = Archive()
    archive.offer(G2, t2)
    coverage = {t1: {G1}, t2: {G2}}
    result = augment_from_archive((t1,), archive, {G1, G2}, lambda t: coverage[t])
    assert result == (t1, t2)


def test_augment_empty_archive_is_identity():
    t1 = _case("one", 1)
    result = augment_from_archive((t1,), Archive(), {G1, G2}, lambda t: {G1})
    assert result == (t1,)


def test_augment_no_duplicates_when_covered():
    t1 = _case("one", 1)
    archive = Archive()
    archive.offer(G1, t1)
    result = augment_from_archive((t1,), archive, {G1}, lambda t: {G1})
    assert result == (t1,)


def test_archive_keeps_shorter_test_on_tie():
    short = _case("one", 1)
    long = TestCase(calls=(CallStmt("one", (1,)), CallStmt("one", (2,))))
    archive = Archive()
    archive.offer(G1, long)
    archive.offer(G1, short)
    assert archive.entries[G1] == short
    archive.offer(G1, long)  # longer never displaces shorter
    assert archive.entries[G1] == short


def test_coverage_preservation_end_to_end():
    # minimize then augment never loses goals the suite or archive covered
    rng = random.Random(23)
    goals = {G1, G2, G3, MutantGoal(7)}
    for trial in range(100):
        tests = [_case("one", 10_000 + 100 * trial + i) for i in range(rng.randint(0, 5))]
        coverage = {t: {g for g in goals if rng.random() < 0.4} for t in tests}
        extra = [_case("two", f"a{trial}_{i}") for i in range(rng.randint(0, 3))]
        for t in extra:
            coverage[t] = {g for g in goals if rng.random() < 0.5}
        archive = Archive()
        for t in extra:
            for g in coverage[t]:
                archive.offer(g, t)
        suite = tuple(tests)
        cov = lambda t: coverage[t]
        final = augment_from_archive(minimize(suite, goals, cov), archive, goals, cov)
        before = set().union(*(cov(t) & goals for t in tests)) if tests else set()
        after = set().union(*(cov(t) & goals for t in final)) if final else set()
        assert after >= before
        assert after >= archive.entries.keys() & goals
