"""Fitness functions: frozen examples, oracle checks, and range invariants."""

import random
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from affsgen import testmodel
from affsgen.affs import Goal, make_strategy
from affsgen.engine import Budget, EngineConfig, run_search
from affsgen.fitness import (
    FitnessContext,
    FitnessFunctionId as F,
    composite_fitness,
    eval_fitness,
    levenshtein,
    nu,
    pack_lines,
    packed_distance,
    suite_diversity,
)
from affsgen.harness import load_corpus
from affsgen.minilang import analysis, execute, parse
from affsgen.minilang.interpreter import Returned
from affsgen.mutation import MutantStatus
from affsgen.testmodel import CallStmt, GenConfig, TestCase, random_test_case
from oracles import dp_levenshtein, full_reexecution_status, naive_levenshtein

PROGRAM = parse("""
fn classify(x:int) {
  if (x == 5) { return 1; }
  return 0;
}
fn crash(which:int) {
  if (which == 1) { return 1 / 0; }
  if (which == 2) { throw "two"; }
  return 0;
}
""", "fit")


def _case(name, *args):
    return TestCase(calls=(CallStmt(name, tuple(args)),))


def _ctx():
    return FitnessContext(PROGRAM)


# --- per-function examples -------------------------------------------------------


def test_exception_fitness_counts_unique_identities():
    ctx = _ctx()
    suite = (_case("crash", 1), _case("crash", 2), _case("crash", 2))
    # two unique (kind, function) pairs -> 1 / (1 + 2)
    assert eval_fitness(F.EX, suite, ctx) == pytest.approx(1 / 3)


def test_exception_fitness_empty_suite():
    assert eval_fitness(F.EX, (), _ctx()) == 1.0


def test_line_fitness_zero_at_full_coverage():
    ctx = _ctx()
    suite = (_case("classify", 5), _case("classify", 0),
             _case("crash", 1), _case("crash", 2), _case("crash", 3))
    assert eval_fitness(F.LINE, suite, ctx) == 0.0


def test_branch_fitness_single_branch_example():
    # one branch, best distances (2, 0): (nu(2) + 0) / 2 == 1/3
    program = parse("fn f(x:int){ if (x == 5) { return 1; } return 0; }")
    ctx = FitnessContext(program)
    suite = (_case("f", 3),)
    assert eval_fitness(F.BRANCH, suite, ctx) == pytest.approx(1 / 3)


def test_branch_fitness_unexecuted_branch_counts_full():
    program = parse("fn f(x:int){ if (x == 5) { return 1; } return 0; } fn g(y:int){ if (y < 0) { return 1; } return 0; }")
    ctx = FitnessContext(program)
    suite = (_case("f", 5),)  # g's branch never evaluated
    # f's branch: taken true with (0, 1) -> nu(0) + nu(1) = 0.5; g's: 2 * nu(inf) = 2
    assert eval_fitness(F.BRANCH, suite, ctx) == pytest.approx((0.5 + 2.0) / 4.0)


def test_method_and_mnec_fitness():
    ctx = _ctx()
    suite = (_case("crash", 1),)  # raises: called but not clean
    assert eval_fitness(F.METHOD, suite, ctx) == pytest.approx(1 / 2)
    assert eval_fitness(F.MNEC, suite, ctx) == pytest.approx(1.0)
    clean = (_case("crash", 0),)
    assert eval_fitness(F.MNEC, clean, ctx) == pytest.approx(1 / 2)


def test_mnec_counts_a_function_covered_exactly_when_a_direct_call_of_it_returns():
    program = parse("fn outer(x:int){ return inner(x); }"
                    " fn inner(x:int){ return 10 / x; }"
                    " fn never(x:int){ throw \"no\"; }")
    ctx = FitnessContext(program)
    calls = [CallStmt(*call) for call in [("outer", (0,)), ("outer", (2,)), ("inner", (0,)),
                                          ("inner", (5,)), ("never", (1,))]]
    returning = {call.function for call in calls
                 if isinstance(execute(program, call.function, call.args).outcome, Returned)}
    assert returning == {"outer", "inner"}
    for picks in range(1 << len(calls)):
        chosen = [call for i, call in enumerate(calls) if picks >> i & 1]
        covered = {call.function for call in chosen
                   if isinstance(execute(program, call.function, call.args).outcome, Returned)}
        # as one test of the calls, and as one test per call
        for suite in [(TestCase(calls=tuple(chosen)),) if chosen else (),
                      tuple(TestCase(calls=(call,)) for call in chosen)]:
            assert eval_fitness(F.MNEC, suite, ctx) == pytest.approx(1 - len(covered) / 3)


def test_direct_branch_ignores_indirect_evaluations():
    program = parse(
        "fn outer(x:int){ return inner(x); }"
        " fn inner(x:int){ if (x > 0) { return 1; } return 0; }"
    )
    ctx = FitnessContext(program)
    indirect_only = (_case("outer", 5),)
    direct = (_case("inner", 5),)
    assert eval_fitness(F.BRANCH, indirect_only, ctx) < 1.0 * eval_fitness(
        F.DIRECT_BRANCH, indirect_only, ctx)
    assert eval_fitness(F.DIRECT_BRANCH, direct, ctx) < eval_fitness(
        F.DIRECT_BRANCH, indirect_only, ctx)


def test_output_fitness_rewards_bucket_coverage():
    program = parse("fn f(x:int){ return x; }")
    ctx = FitnessContext(program)
    none = ()
    some = (_case("f", 5),)
    all_buckets = (_case("f", 5), _case("f", 0), _case("f", -5))
    assert eval_fitness(F.OUTPUT, all_buckets, ctx) == 0.0
    assert eval_fitness(F.OUTPUT, some, ctx) < eval_fitness(F.OUTPUT, none, ctx)


def test_output_fitness_takes_returned_ints_past_float_range():
    # f(700) returns -3**700, past float range: its distances to the zero and
    # positive buckets stay exact ints, and nu of each is 1.0
    program = parse("fn f(n:int){ let k = 1; let i = 0;"
                    " while (i < n) { k = k * 3; i = i + 1; } return 0 - k; }")
    ctx = FitnessContext(program)
    suite = (_case("f", 700),)
    assert ctx.trace(suite[0]).returns == {"f": (-3**700,)}
    assert eval_fitness(F.OUTPUT, suite, ctx) == (0.0 + 1.0 + 1.0) / 3


def _bucket_kinds(program) -> dict[str, set[str]]:
    """The kinds whose buckets a fresh context on ``program`` has, by function."""
    kinds = {"negative": "int", "zero": "int", "positive": "int", "true": "bool",
             "false": "bool", "empty": "str", "nonempty": "str"}
    found: dict[str, set[str]] = {}
    for fname, bucket in FitnessContext(program).buckets:
        found.setdefault(fname, set()).add(kinds[bucket])
    return found


def test_a_local_of_one_proven_kind_gets_only_its_buckets():
    program = parse("fn f(x:int){ let n = x + 1; return n; }")
    assert FitnessContext(program).buckets == [("f", "negative"), ("f", "zero"),
                                               ("f", "positive")]


def test_a_local_assigned_an_int_and_a_str_gets_both_kinds_buckets():
    program = parse('fn f(x:int){ let v = 0; if (x > 0) { v = "a"; } return v; }')
    assert _bucket_kinds(program) == {"f": {"int", "str"}}


def test_an_if_else_returning_bools_on_both_arms_gets_only_true_and_false():
    program = parse("fn f(x:int){ if (x > 0) { return true; } else { return false; } }")
    assert FitnessContext(program).buckets == [("f", "true"), ("f", "false")]


def test_a_function_that_always_throws_gets_no_buckets():
    program = parse('fn f(x:int){ if (x > 0) { throw "up"; } throw "down"; }')
    ctx = FitnessContext(program)
    assert ctx.buckets == []
    assert eval_fitness(F.OUTPUT, (_case("f", 1), _case("f", -1)), ctx) == 0.0
    # the default action of the exceptions goal holds every function of its pool
    result = run_search(program, Goal.EXCEPTIONS, make_strategy("default", Goal.EXCEPTIONS),
                        EngineConfig(population_size=4, budget=Budget(generations=3)), 1)
    assert result.generations == 3
    assert all("output" in record.action.split("+") for record in result.log)


@pytest.mark.xfail(strict=True, reason=(
    "Analysis.returns is flow-insensitive and closed under the mutation operators, so "
    "output buckets can name kinds the base program never returns (CHANGES.md FOUND on "
    "analysis.py Analysis.returns)"))
def test_buckets_name_only_kinds_the_base_program_can_return():
    overwritten = parse('fn f(x:int){ let v = 1; v = "a"; return v; }')
    always_raises = parse("fn f(s:str, t:str){ return s - t; }")  # a TypeError every call
    assert (FitnessContext(overwritten).buckets, FitnessContext(always_raises).buckets) == (
        [("f", "empty"), ("f", "nonempty")], [])


def test_buckets_are_found_on_first_use_from_the_programs_own_analysis():
    program = parse("fn f(x:int){ return x > 0; } fn g(s:str){ return s; }")
    with patch("affsgen.fitness.output_buckets", side_effect=AssertionError("found eagerly")):
        ctx = FitnessContext(program)
    ctx.trace(_case("f", 1))  # the run finds the program's analysis
    with patch.object(analysis, "Analysis", side_effect=AssertionError("a second Analysis")):
        assert ctx.buckets == [("f", "true"), ("f", "false"), ("g", "empty"), ("g", "nonempty")]
        assert FitnessContext(program).buckets == ctx.buckets


def test_every_corpus_context_has_exactly_the_buckets_of_its_return_kinds():
    for pair in load_corpus(Path(__file__).resolve().parent.parent / "corpus"):
        for program in (pair.fixed_program, pair.faulty_program):
            returns = analysis.Analysis(program).returns
            assert _bucket_kinds(program) == {f: set(k) for f, k in returns.items() if k}, \
                program.source_id


def test_weak_and_strong_mutation_fitness_bounds():
    ctx = _ctx()
    empty = ()
    killing = (_case("classify", 5), _case("classify", 3),
               _case("classify", 6), _case("crash", 1),
               _case("crash", 2), _case("crash", 0), _case("crash", 3))
    for fn in (F.WEAK_MUT, F.STRONG_MUT):
        hi = eval_fitness(fn, empty, ctx)
        lo = eval_fitness(fn, killing, ctx)
        assert 0.0 <= lo < hi <= 1.0
    assert eval_fitness(F.STRONG_MUT, killing, ctx) >= eval_fitness(F.WEAK_MUT, killing, ctx)


def test_mutation_fitness_errors_without_mutants():
    ctx = FitnessContext(parse(""))
    with pytest.raises(ValueError):
        eval_fitness(F.WEAK_MUT, (), ctx)


def test_strong_mut_zero_iff_full_strong_score():
    ctx = _ctx()
    tests = []
    rng = random.Random(4)
    for _ in range(40):
        tests.append(random_test_case(PROGRAM, rng, GenConfig(max_calls_per_test=3)))
    suite = tuple(tests + [_case("classify", 5), _case("classify", 4),
                           _case("crash", 1), _case("crash", 2), _case("crash", 0)])
    score = ctx.mutation_score(suite, "strong")
    fitness = eval_fitness(F.STRONG_MUT, suite, ctx)
    assert (fitness == 0.0) == (score == 100.0)


STAGED_SOURCE = "fn f(a:int){ let t = a + 1; if (t > 0) { return 1; } return 0; }"
STAGED = parse(STAGED_SOURCE, "staged")


def test_mutation_fitness_is_the_mean_of_stage_tables():
    weak = {MutantStatus.NOT_REACHED: 1.0, MutantStatus.REACHED_NOT_INFECTED: 0.5,
            MutantStatus.INFECTED: 0.0, MutantStatus.KILLED: 0.0}
    strong = {MutantStatus.NOT_REACHED: 1.0, MutantStatus.REACHED_NOT_INFECTED: 0.75,
              MutantStatus.INFECTED: 0.25, MutantStatus.KILLED: 0.0}
    ctx = FitnessContext(parse(STAGED_SOURCE, "staged"))
    # f(5): t goes 6 -> 4 without changing the result; 6 >= 0 holds too;
    # 6 < 0 flips the branch; `return 0` is never reached
    picks = {
        MutantStatus.INFECTED: ("aor:+->-", 0),
        MutantStatus.REACHED_NOT_INFECTED: ("ror:>->>=", 1),
        MutantStatus.KILLED: ("ror:>-><", 1),
        MutantStatus.NOT_REACHED: ("const:+1", 3),
    }
    suite = (_case("f", 5),)
    statuses = [ctx.classify(m, suite) for m in ctx.mutants]
    for status, pick in picks.items():
        assert [s for m, s in zip(ctx.mutants, statuses) if (m.operator, m.site) == pick] == [status]
    assert eval_fitness(F.WEAK_MUT, suite, ctx) == sum(weak[s] for s in statuses) / len(statuses)
    assert eval_fitness(F.STRONG_MUT, suite, ctx) == (
        sum(strong[s] for s in statuses) / len(statuses))

    # every mutant, against the best status the oracle gives any test
    ctx = FitnessContext(STAGED)
    suite = (_case("f", 5), _case("f", 0))
    best = [max(full_reexecution_status(m, t) for t in suite) for m in ctx.mutants]
    assert set(best) == set(MutantStatus)
    assert eval_fitness(F.WEAK_MUT, suite, ctx) == sum(weak[s] for s in best) / len(best)
    assert eval_fitness(F.STRONG_MUT, suite, ctx) == sum(strong[s] for s in best) / len(best)


# --- levenshtein ------------------------------------------------------------------


def test_levenshtein_examples():
    assert levenshtein("", "abc") == 3
    assert levenshtein("same", "same") == 0
    assert levenshtein("kitten", "sitting") == 3


def test_levenshtein_matches_naive_oracle():
    rng = random.Random(12)
    alphabet = "ab("
    for _ in range(500):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert levenshtein(a, b) == naive_levenshtein(a, b)


def test_dp_oracle_matches_naive_oracle():
    rng = random.Random(13)
    for _ in range(300):
        a = "".join(rng.choice("ab(") for _ in range(rng.randint(0, 7)))
        b = "".join(rng.choice("ab(") for _ in range(rng.randint(0, 7)))
        assert dp_levenshtein(a, b) == naive_levenshtein(a, b)


# few symbols make long strings share structure; full unicode makes them
# differ; past 64 characters a pattern no longer fits one machine word
_LONG_TEXT = st.one_of(
    st.text(alphabet="ab(,é中", max_size=150),
    st.text(alphabet="ab(,é中", min_size=65, max_size=150),
    st.text(max_size=150),
)


@settings(max_examples=300, deadline=None)
@given(_LONG_TEXT, _LONG_TEXT)
def test_levenshtein_matches_dp_oracle_past_64_characters(a, b):
    assert levenshtein(a, b) == dp_levenshtein(a, b)
    # the same pair behind a shared prefix and suffix
    assert levenshtein("x(" + a + ");", "x(" + b + ");") == dp_levenshtein(a, b)


def test_levenshtein_on_patterns_wider_than_a_machine_word():
    rng = random.Random(5)
    for _ in range(100):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(60, 140)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 140)))
        assert levenshtein(a, b) == dp_levenshtein(a, b)
    assert levenshtein("a" * 130, "b" * 70) == 130
    assert levenshtein("ab" * 70, "ba" * 70) == 2


@settings(max_examples=300)
@given(st.text(max_size=12), st.text(max_size=12), st.text(max_size=12))
def test_levenshtein_metric_axioms(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# --- packed lines -----------------------------------------------------------------


def _summed_dp(packed_lines, other_lines):
    return sum(dp_levenshtein(x, y) for x in packed_lines for y in other_lines)


def _packed_sum(packed_lines, other_lines):
    packed = pack_lines(tuple(packed_lines))
    return sum(packed_distance(packed, line) for line in other_lines)


# empty lines, runs of one character, non-ASCII text, and lines that end
# on either side of a 64-bit word edge once packed behind other lanes
_LINE = st.one_of(
    st.just(""),
    st.text(alphabet="ab(,é中", max_size=70),
    st.builds(lambda c, n: c * n, st.sampled_from("aé"), st.integers(0, 70)),
    st.text(max_size=20),
)
_LINES = st.lists(_LINE, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_LINES, _LINES)
def test_packed_sum_matches_dp_oracle_in_both_directions(lines_a, lines_b):
    expected = _summed_dp(lines_a, lines_b)
    assert _packed_sum(lines_a, lines_b) == expected
    assert _packed_sum(lines_b, lines_a) == expected


def test_packed_sum_at_lane_and_word_edges():
    rng = random.Random(8)
    widths = (0, 1, 63, 64, 65, 130)
    for _ in range(30):
        packed_lines = ["".join(rng.choice("ab") for _ in range(rng.choice(widths)))
                        for _ in range(rng.randint(1, 4))]
        other_lines = ["".join(rng.choice("ab") for _ in range(rng.choice(widths)))
                       for _ in range(rng.randint(1, 3))]
        assert _packed_sum(packed_lines, other_lines) == _summed_dp(packed_lines, other_lines)
    # one character repeated across lanes: carries run into every guard bit
    runs = ["a" * 63, "a" * 64, "", "a" * 65, "a" * 130]
    for n in (0, 1, 63, 64, 65, 130, 131):
        assert packed_distance(pack_lines(tuple(runs)), "a" * n) == sum(
            abs(len(r) - n) for r in runs)
        assert packed_distance(pack_lines(tuple(runs)), "b" * n) == sum(
            max(len(r), n) for r in runs)


def test_packed_sum_of_empty_sides():
    assert packed_distance(pack_lines(()), "abc") == 0
    assert _packed_sum(["ab", "", "中é"], []) == 0
    assert packed_distance(pack_lines(("ab", "", "中é")), "") == 4
    assert packed_distance(pack_lines(("", "")), "xyz") == 6


def _random_tests(seed, count):
    rng = random.Random(seed)
    cfg = GenConfig(max_calls_per_test=5)
    with patch.object(testmodel, "STR_ALPHABET", "ab中"):
        return [random_test_case(PROGRAM, rng, cfg) for _ in range(count)]


def test_pair_distance_is_symmetric_and_matches_the_line_sum():
    ctx = _ctx()
    tests = _random_tests(21, 12)
    for a in tests:
        for b in tests:
            expected = _summed_dp(ctx.rendered_lines(a), ctx.rendered_lines(b))
            assert ctx.test_pair_distance(a, b) == expected
            assert ctx.test_pair_distance(b, a) == expected


def test_pair_distance_of_a_warm_context_equals_a_fresh_one():
    warm = _ctx()
    tests = _random_tests(22, 15)
    for a in tests:
        for b in tests:
            warm.test_pair_distance(a, b)
    rng = random.Random(23)
    for _ in range(60):
        a, b = rng.choice(tests), rng.choice(tests)
        assert warm.test_pair_distance(a, b) == _ctx().test_pair_distance(a, b)


# --- diversity --------------------------------------------------------------------


def test_diversity_of_tiny_suites_is_one():
    ctx = _ctx()
    assert suite_diversity((), ctx) == (0, 1.0)
    assert suite_diversity((_case("classify", 1),), ctx) == (0, 1.0)


def test_diversity_of_identical_tests_is_zero():
    ctx = _ctx()
    suite = (_case("classify", 1), _case("classify", 1))
    assert suite_diversity(suite, ctx) == (0, 1.0)


def test_diversity_two_one_line_tests():
    ctx = _ctx()
    a = _case("classify", 1)
    b = _case("crash", 21)
    # distance recomputed by hand from the rendered lines
    expected = levenshtein("classify(1)", "crash(21)")
    div, fitness = suite_diversity((a, b), ctx)
    assert div == expected
    assert fitness == pytest.approx(1 / (1 + expected))


def test_diversity_fitness_drops_when_distinct_test_added():
    ctx = _ctx()
    base = [_case("classify", 1), _case("classify", 1)]
    _, before = suite_diversity(tuple(base), ctx)
    _, after = suite_diversity(tuple(base + [_case("crash", 999)]), ctx)
    assert after < before


def test_diversity_counts_unordered_pairs_of_statements():
    ctx = _ctx()
    a = TestCase(calls=(CallStmt("classify", (1,)), CallStmt("crash", (2,))))
    b = TestCase(calls=(CallStmt("classify", (3,)),))
    lines_a = ["classify(1)", "crash(2)"]
    lines_b = ["classify(3)"]
    expected = sum(levenshtein(x, y) for x in lines_a for y in lines_b)
    div, _ = suite_diversity((a, b), ctx)
    assert div == expected


# --- composite --------------------------------------------------------------------


def test_composite_is_plain_sum():
    assert composite_fitness({F.EX: 0.2, F.LINE: 0.3}) == pytest.approx(0.5)
    assert composite_fitness({F.BRANCH: 0.77}) == pytest.approx(0.77)
    forward = composite_fitness({F.EX: 0.1, F.LINE: 0.2, F.OUTPUT: 0.3})
    backward = composite_fitness({F.OUTPUT: 0.3, F.LINE: 0.2, F.EX: 0.1})
    assert forward == backward


def test_composite_is_a_left_fold_on_every_python():
    # sum() from CPython 3.12 on is compensated and gives 0.6 here
    total = composite_fitness({F.OUTPUT: 0.3, F.EX: 0.1, F.LINE: 0.2})
    assert total == (0.1 + 0.2) + 0.3
    assert total != 0.6


def test_composite_rejects_empty_map():
    with pytest.raises(ValueError):
        composite_fitness({})


# --- range and monotonicity sweeps ---------------------------------------------------


MONOTONE = (F.EX, F.BRANCH, F.DIRECT_BRANCH, F.LINE, F.METHOD, F.MNEC,
            F.WEAK_MUT, F.STRONG_MUT)


def test_all_scores_in_unit_interval_and_monotone_under_addition():
    ctx = _ctx()
    rng = random.Random(31)
    cfg = GenConfig(max_calls_per_test=3)
    tests = [random_test_case(PROGRAM, rng, cfg) for _ in range(10)]
    previous = {fn: None for fn in F}
    for size in range(len(tests) + 1):
        suite = tuple(tests[:size])
        for fn in F:
            score = eval_fitness(fn, suite, ctx)
            assert 0.0 <= score <= 1.0, (fn, score)
            if fn in MONOTONE and previous[fn] is not None:
                assert score <= previous[fn] + 1e-12, (fn, size)
            previous[fn] = score


def test_nu_normalization():
    assert nu(0.0) == 0.0
    assert nu(2.0) == pytest.approx(2 / 3)
    assert nu(float("inf")) == 1.0
    assert nu(2) == nu(2.0) and nu(10**400) == 1.0
