"""Test-case generation, genetic operators, rendering, archive, minimization."""

import itertools
import random

import pytest

from affsgen import testmodel
from affsgen.minilang import parse
from affsgen.minilang.parser import expr_source
from affsgen.testmodel import (
    Archive,
    CallStmt,
    ExceptionGoal,
    GenConfig,
    MethodGoal,
    MutantGoal,
    Ref,
    TestCase,
    augment_from_archive,
    crossover,
    crossover_at,
    literal_pool,
    minimize,
    mutate_suite,
    random_suite,
    random_test_case,
    render_test,
)

TWO_FNS = parse("fn one(x:int){ return x; } fn two(s:str){ return s; }")


def _case(name, *args):
    return TestCase(calls=(CallStmt(name, tuple(args)),))


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
    arity = {fn.name: fn.params for fn in TWO_FNS.functions}
    for _ in range(200):
        test = random_test_case(TWO_FNS, rng, cfg)
        assert 1 <= len(test.calls) <= cfg.max_calls_per_test
        for call in test.calls:
            params = arity[call.function]
            assert len(call.args) == len(params)
            for arg, (_, kind) in zip(call.args, params):
                value = test.resolve(arg)
                expected = {"int": int, "bool": bool, "str": str}[kind]
                if kind == "int":
                    assert isinstance(value, int) and not isinstance(value, bool)
                else:
                    assert isinstance(value, expected)


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
    arity = {fn.name: len(fn.params) for fn in TWO_FNS.functions}
    rng = random.Random(8)
    suite = random_suite(TWO_FNS, rng)
    for i in range(1_000):
        suite = mutate_suite(suite, TWO_FNS, random.Random(i), cfg)
        assert len(suite) <= cfg.max_suite_size
        for test in suite:
            assert 1 <= len(test.calls) <= cfg.max_calls_per_test
            for call in test.calls:
                assert len(call.args) == arity[call.function]
                for arg in call.args:
                    test.resolve(arg)  # binding chains stay resolvable


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


def test_render_resolves_alias_chains():
    test = TestCase(
        calls=(CallStmt("two", (Ref("y"),)),),
        bindings=(("x", "var"), ("y", Ref("x"))),
    )
    assert render_test(test) == 'two("var")'


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
    direct = TestCase(calls=(CallStmt("two", ("var",)),))
    aliased = TestCase(
        calls=(CallStmt("two", (Ref("a"),)),),
        bindings=(("a", "var"),),
    )
    assert render_test(direct) == render_test(aliased)


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
