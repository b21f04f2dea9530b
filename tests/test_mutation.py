"""Mutant generation, outcome classification, and the re-execution oracle."""

import random

import pytest

from affsgen import fitness, mutation
from affsgen.fitness import FitnessContext
from affsgen.minilang import parse
from affsgen.minilang.interpreter import InterpConfig, execute
from affsgen.minilang.parser import to_source
from affsgen.mutation import (
    MutantStatus,
    classify_against_mutant,
    generate_mutants,
    schema_run,
)
from affsgen.testmodel import CallStmt, GenConfig, TestCase, random_test_case
from oracles import full_reexecution_status, oracle_run

ADD = parse("fn f(a:int, b:int){ if (a < 5) { return a + b; } return 0; }")


def _test(*calls):
    return TestCase(calls=tuple(CallStmt(f, tuple(a)) for f, a in calls))


def test_arithmetic_replacement_enumerated():
    ops = {m.operator for m in generate_mutants(parse("fn f(a:int,b:int){ return a+b; }"))}
    assert {"aor:+->-", "aor:+->*", "aor:+->/"} <= ops


def test_relational_replacement_enumerated():
    ops = {m.operator for m in generate_mutants(parse("fn f(x:int){ if (x<5) { return 1; } return 0; }"))}
    assert {"ror:<-><=", "ror:<->>", "ror:<->==", "ror:<->!=", "ror:<->>="} <= ops


def test_empty_program_yields_no_mutants():
    assert generate_mutants(parse("")) == []


def test_mutants_ordered_and_single_site():
    mutants = generate_mutants(ADD)
    sites = [m.site for m in mutants]
    assert sites == sorted(sites)
    for m in mutants:
        assert m.mutant_id == mutants.index(m)
        # differs from the base at exactly one site: source diff touches one statement
        base_lines = to_source(m.base_program).splitlines()
        mut_lines = to_source(m.mutated_program).splitlines()
        if len(base_lines) == len(mut_lines):
            differing = [i for i, (x, y) in enumerate(zip(base_lines, mut_lines)) if x != y]
            assert len(differing) == 1
        else:
            assert len(base_lines) == len(mut_lines) + 1  # deleted assignment


def test_mutants_parse_successfully():
    for m in generate_mutants(ADD):
        parse(to_source(m.mutated_program))


def _classify_call(mutant, function, args, config=InterpConfig()):
    """One call's status, from a schema run of the mutant's base program."""
    base = execute(mutant.base_program, function, args, config)
    schema = schema_run(mutant.base_program, function, args, config)
    return classify_against_mutant(mutant, function, args, base, config, schema).status


def test_classification_examples():
    mutants = generate_mutants(ADD)
    add_sub = next(m for m in mutants if m.operator == "aor:+->-")
    # 1 + 0 == 1 - 0: reached but state intact
    assert _classify_call(add_sub, "f", (1, 0)) == MutantStatus.REACHED_NOT_INFECTED
    # 1 + 2 = 3 vs 1 - 2 = -1: returned value differs
    assert _classify_call(add_sub, "f", (1, 2)) == MutantStatus.KILLED
    # branch arm not executed
    assert _classify_call(add_sub, "f", (9, 9)) == MutantStatus.NOT_REACHED


def test_a_negated_condition_that_raises_is_not_infected():
    # both runs raise at the condition's first evaluation, so it never yields
    # a value that the negation could change
    program = parse('fn f(s:str){ if (s[5] == "a") { return 1; } return 0; }')
    negation = next(m for m in generate_mutants(program) if m.operator == "negate-condition")
    assert _classify_call(negation, "f", ("",)) == MutantStatus.REACHED_NOT_INFECTED
    assert _classify_call(negation, "f", ("bcdefgh",)) == MutantStatus.KILLED


def test_a_bool_return_where_the_base_returns_an_int_kills():
    # True == 1 in Python; the behaviour must still tell them apart
    program = parse("fn f(b:bool){ let r = 1; if (b) { r = true; } return r; }")
    deletion = next(m for m in generate_mutants(program) if m.operator == "delete-assignment")
    assert _classify_call(deletion, "f", (True,)) == MutantStatus.KILLED
    assert _classify_call(deletion, "f", (False,)) == MutantStatus.NOT_REACHED
    assert full_reexecution_status(deletion, _test(("f", (True,)))) == MutantStatus.KILLED


def test_oracle_outcomes_tell_true_from_one():
    base = parse("fn f(b:bool){ let r = 1; if (b) { r = true; } return r; }")
    faulty = parse("fn f(b:bool){ let r = 1; return r; }")
    test = _test(("f", (True,)))
    assert oracle_run(base, test)[0] == (("return", "bool", True),)
    assert oracle_run(faulty, test)[0] == (("return", "int", 1),)


# statuses that comparing the two whole runs' sequences of root values gives
AND_IN_LOOP = ("fn f(x:int){ let c = 0; while (true) {"
               " if ((x > 0) and (x > 5)) { c = c + 1; } c = c + 1; } return c; }")
CALL_IN_ROOT = ("fn g(n:int){ let k = 0; while (k < n) { k = k + 1; } return 0; }"
                " fn f(x:int){ let y = g(x + 1); return y + x; }")
ASSIGN_IN_LOOP = ("fn f(x:int){ let a = 0; while (true) {"
                  " a = a + x; if (a > 1000) { return a; } } return 0; }")
SCHEMA_CASES = [
    # the mutant skips the right side of the and, so its run drifts; at this
    # limit it raises inside the condition where the base completes it
    (AND_IN_LOOP, 3, "ror:>->==", (1,), 31, MutantStatus.INFECTED),
    (AND_IN_LOOP, 4, "ror:>->!=", (1,), 31, MutantStatus.REACHED_NOT_INFECTED),
    # g returns 0 whatever its argument, in a number of steps that depends on it
    (CALL_IN_ROOT, 16, "aor:+->-", (3,), 10_000, MutantStatus.REACHED_NOT_INFECTED),
    (CALL_IN_ROOT, 19, "const:+1", (3,), 10_000, MutantStatus.REACHED_NOT_INFECTED),
    (CALL_IN_ROOT, 19, "const:+1", (3,), 45, MutantStatus.KILLED),
    # a = a + 0 never changes a; at 23 the limit strikes as the right side
    # starts, which counts as that side raising
    (ASSIGN_IN_LOOP, 6, "delete-assignment", (0,), 22, MutantStatus.REACHED_NOT_INFECTED),
    (ASSIGN_IN_LOOP, 6, "delete-assignment", (0,), 23, MutantStatus.INFECTED),
    (ASSIGN_IN_LOOP, 6, "delete-assignment", (1,), 23, MutantStatus.INFECTED),
]


@pytest.mark.parametrize("source, mutant_id, operator, args, step_limit, expected", SCHEMA_CASES)
def test_schema_rule_matches_whole_run_comparison(source, mutant_id, operator, args,
                                                  step_limit, expected):
    mutant = generate_mutants(parse(source))[mutant_id]
    assert mutant.operator == operator
    assert _classify_call(mutant, "f", args, InterpConfig(step_limit=step_limit)) == expected


def test_recursion_through_the_site_is_compared_per_evaluation():
    # both runs end in StepLimitExceeded in f. Each redo of the root raises
    # that too, as the base's evaluation does, so the schema run finds the
    # mutant neither infected nor drifted; comparing the sequences of root
    # values of the two whole runs, which nest differently, says INFECTED
    program = parse("fn f(x:int){ if (x <= 0) { return 0; } return f(x - 1) + 1; }")
    mutant = generate_mutants(program)[16]
    assert to_source(mutant.mutated_program).count("x - 2") == 1
    assert _classify_call(mutant, "f", (56,), InterpConfig(step_limit=300)) == (
        MutantStatus.REACHED_NOT_INFECTED)


# --- mutation score -----------------------------------------------------------


def test_score_formula():
    program = parse("fn f(a:int){ return a + 1; } fn g(b:int){ return b * 3 - 2 + 1; }",
                    "formula")
    ctx = FitnessContext(program)
    f_test, g_test = _test(("f", (5,))), _test(("g", (4,)))

    def killed_by(test):
        return [m for m in ctx.mutants if full_reexecution_status(m, test) == MutantStatus.KILLED]

    # twenty mutants: the five of f, which f(5) kills, and the fifteen of g,
    # which g(4) kills and f(5) never reaches
    assert len(ctx.mutants) == 20
    assert len(killed_by(f_test)) == 5 and len(killed_by(g_test)) == 15
    suite = (f_test,)
    assert ctx.mutation_score(suite, "strong") == 25.0
    assert ctx.mutation_score(suite, "weak") == 25.0
    assert ctx.mutation_score((f_test, g_test), "strong") == 100.0


def test_score_empty_suite_is_zero():
    ctx = FitnessContext(ADD)
    assert ctx.mutation_score((), "weak") == 0.0
    assert ctx.mutation_score((), "strong") == 0.0


def test_score_empty_mutants_is_error():
    with pytest.raises(ValueError):
        FitnessContext(parse("")).mutation_score((), "weak")


def test_strong_never_exceeds_weak_on_random_suites():
    program = parse("""
    fn f(a:int, b:int){ if (a < 5) { return a + b; } return a * b; }
    fn g(s:str){ if (len(s) > 2) { return s[0]; } return "z"; }
    """)
    rng = random.Random(11)
    cfg = GenConfig(max_calls_per_test=4)
    for _ in range(25):
        tests = [random_test_case(program, rng, cfg) for _ in range(rng.randint(0, 4))]
        suite = tuple(tests)
        scores = []
        # a weak score first leaves infected calls unrun for the strong one
        for modes in (("weak", "strong"), ("strong", "weak")):
            ctx = FitnessContext(program)
            scores.append({mode: ctx.mutation_score(suite, mode) for mode in modes})
        assert scores[0] == scores[1]
        assert scores[0]["strong"] <= scores[0]["weak"]


def test_adding_a_test_never_lowers_scores():
    program = ADD
    rng = random.Random(3)
    cfg = GenConfig(max_calls_per_test=3)
    tests = [random_test_case(program, rng, cfg) for _ in range(6)]
    ctx = FitnessContext(program)
    for mode in ("weak", "strong"):
        previous = 0.0
        for size in range(0, len(tests) + 1):
            score = ctx.mutation_score(tuple(tests[:size]), mode)
            assert score >= previous
            previous = score


def test_the_fold_classifies_only_what_its_stop_needs(monkeypatch):
    program = parse("fn f(a:int){ let y = a * 2; if (y > 3) { return 1; } return y; }")
    mutant = next(m for m in mutation.mutants_of(program) if m.operator == "aor:*->+")
    classified, mutant_runs = [], []
    real_classify, real_execute = fitness.classify_against_mutant, mutation.execute

    def counting_classify(m, function, args, *rest):
        classified.append(args[0])
        return real_classify(m, function, args, *rest)

    def counting_execute(prog, function, args, *rest, **kwargs):
        if prog is mutant.mutated_program:
            mutant_runs.append(args[0])
        return real_execute(prog, function, args, *rest, **kwargs)

    monkeypatch.setattr(fitness, "classify_against_mutant", counting_classify)
    monkeypatch.setattr(mutation, "execute", counting_execute)

    def f(*calls):
        return _test(*(("f", (a,)) for a in calls))

    # y = a + 2 instead: f(2) reaches it without infecting, f(3), f(4),
    # f(5) and f(7) infect it, f(0) and f(1) kill it. A call is classified
    # against the mutant only where the mutant runs: the schema run alone
    # settles f(2), and a weak fold's infection at f(3)
    ctx = FitnessContext(program)
    tests = (f(2, 3, 5), f(7), f(0))
    assert ctx.classify(mutant, tests, MutantStatus.INFECTED) == MutantStatus.INFECTED
    # the schema run of f(3) shows the infection: the weak fold ends there,
    # before f(5), without running the mutant
    assert classified == mutant_runs == []
    assert f(7) not in ctx._traces and f(0) not in ctx._traces
    # and a repeated weak fold runs nothing
    assert ctx.classify(mutant, tests, MutantStatus.INFECTED) == MutantStatus.INFECTED
    assert classified == mutant_runs == []

    # a strong fold runs the mutant on f(3), which the weak fold left unrun,
    # exactly once, and goes on to the kill at f(0)
    assert ctx.classify(mutant, tests) == MutantStatus.KILLED
    assert classified == mutant_runs == [3, 5, 7, 0]

    # and a weak fold after it still runs nothing
    classified.clear()
    mutant_runs.clear()
    assert ctx.classify(mutant, tests, MutantStatus.INFECTED) == MutantStatus.INFECTED
    assert classified == mutant_runs == []

    ctx = FitnessContext(program)
    assert ctx.classify(mutant, (f(2, 3), f(7), f(0, 4), f(1))) == MutantStatus.KILLED
    # the kill at f(0) ends the fold before f(4) and before the last test
    assert classified == mutant_runs == [3, 7, 0]


# --- agreement with the full re-execution oracle --------------------------------


ORACLE_PROGRAMS = [
    parse("fn f(a:int, b:int){ if (a < 5) { return a + b; } return 0; }", "small1"),
    parse("fn g(x:int){ let y = 1; y = x * 2; return y + 1; }", "small2"),
    parse('fn h(s:str){ if (len(s) == 2) { return s[1]; } return "?"; }', "small3"),
    parse("fn k(a:int){ let t = a; t = t - 1; if (t == 3) { return 9; } return t; }", "small4"),
]


def test_classifier_agrees_with_full_reexecution_oracle():
    rng = random.Random(99)
    cfg = GenConfig(max_calls_per_test=3)
    for program in ORACLE_PROGRAMS:
        mutants = generate_mutants(program)
        ctx = FitnessContext(program)
        tests = [random_test_case(program, rng, cfg) for _ in range(12)]
        for test in tests:
            for mutant in mutants:
                # each call on its own, then the whole test as the fold of its calls
                for call in test.calls:
                    expected = full_reexecution_status(mutant, _test((call.function, call.args)))
                    actual = _classify_call(mutant, call.function, call.args)
                    assert actual == expected, (
                        program.source_id, mutant.operator, mutant.site, call,
                        actual.name, expected.name,
                    )
                expected = full_reexecution_status(mutant, test)
                actual = ctx.classify(mutant, (test,))
                assert actual == expected, (
                    program.source_id, mutant.operator, mutant.site, test,
                    actual.name, expected.name,
                )
