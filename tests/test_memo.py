"""The per-context memos of base-program calls: same traces, same classifications."""

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from affsgen import mutation
from affsgen.fitness import FitnessContext
from affsgen.harness import load_corpus
from affsgen.minilang import ArityError, parse
from affsgen.mutation import classify_against_mutant
from affsgen.testmodel import CallStmt, GenConfig, TestCase, random_test_case
from affsgen.tracing import call_key, run_test

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PROGRAMS = [program for pair in load_corpus(CORPUS)
            for program in (pair.fixed_program, pair.faulty_program)]


def _literal_calls(test: TestCase) -> tuple[CallStmt, ...]:
    return tuple(CallStmt(c.function, tuple(test.resolve(a) for a in c.args))
                 for c in test.calls)


def _assert_same_trace(actual, expected) -> None:
    for f in dataclasses.fields(expected):
        assert getattr(actual, f.name) == getattr(expected, f.name), f.name


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_context_trace_equals_run_test_on_cold_and_warm_memo(seed):
    rng = random.Random(seed)
    cfg = GenConfig(max_calls_per_test=4)
    for program in PROGRAMS:
        tests = [random_test_case(program, rng, cfg) for _ in range(3)]
        cold = FitnessContext(program)
        _assert_same_trace(cold.trace(tests[0]), run_test(program, tests[0]))
        # warm: earlier tests put their calls in the memo first; the last
        # test repeats calls of both in a new order
        warm = FitnessContext(program)
        mixed = TestCase(calls=_literal_calls(tests[1])[::-1] + _literal_calls(tests[0]))
        for test in (tests[0], tests[1], mixed, tests[2]):
            _assert_same_trace(warm.trace(test), run_test(program, test))
        assert len(warm._calls) <= sum(len(t.calls) for t in tests)


@pytest.mark.parametrize("fault_id", ["p05", "p07", "p08", "p09", "p12"])
def test_classifications_with_warm_memo_equal_fresh_ones(fault_id):
    program = next(p for p in PROGRAMS if p.source_id.startswith(fault_id))
    rng = random.Random(17)
    cfg = GenConfig(max_calls_per_test=4)
    tests = [random_test_case(program, rng, cfg) for _ in range(8)]
    tests.append(TestCase(calls=_literal_calls(tests[0]) + _literal_calls(tests[1])))
    ctx = FitnessContext(program)
    for test in tests:
        for mutant in ctx.mutants:
            fresh = classify_against_mutant(mutant, test, run_test(program, test))
            assert ctx.classify(mutant, test) == fresh, (mutant.operator, mutant.site, test)
    assert ctx._watched_calls


def test_bool_and_int_arguments_are_different_calls():
    program = parse("fn f(x:int){ return x; } fn g(b:bool){ if (b) { return 1; } return 0; }")
    assert call_key("f", (1,)) != call_key("f", (True,))
    assert call_key("g", (0,)) != call_key("g", (False,))
    ctx = FitnessContext(program)
    ctx.trace(TestCase(calls=(CallStmt("f", (1,)), CallStmt("g", (False,)))))
    for bad in (CallStmt("f", (True,)), CallStmt("g", (0,))):
        test = TestCase(calls=(bad,))
        with pytest.raises(ArityError):
            run_test(program, test)
        with pytest.raises(ArityError):
            ctx.trace(test)


def test_second_mutant_on_a_statement_reruns_only_the_mutant(monkeypatch):
    program = parse("fn f(a:int){ let y = a * 2; return 0; }")
    ctx = FitnessContext(program)
    first, second = [m for m in ctx.mutants if m.operator in ("aor:*->+", "aor:*->-")]
    assert first.site == second.site and first.watch == second.watch
    test = TestCase(calls=(CallStmt("f", (2,)),))
    runs = []
    real_execute = mutation.execute

    def counting_execute(prog, *args, **kwargs):
        runs.append(id(prog))
        return real_execute(prog, *args, **kwargs)

    monkeypatch.setattr(mutation, "execute", counting_execute)
    ctx.classify(first, test)
    assert runs == [id(first.mutated_program), id(program)]
    runs.clear()
    ctx.classify(second, test)
    assert runs == [id(second.mutated_program)]
