"""Per-run value objects, and the test traces built from their call records."""

import copy
import random
from dataclasses import replace
from pathlib import Path

import pytest

from affsgen.harness import load_corpus
from affsgen.minilang.interpreter import ExceptionRecord, Raised, Returned, execute
from affsgen.testmodel import (
    CallStmt,
    ExceptionGoal,
    GenConfig,
    MethodGoal,
    MutantGoal,
    TestCase,
    random_test_case,
)
from affsgen.tracing import run_test

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PROGRAMS = [program for pair in load_corpus(CORPUS)
            for program in (pair.fixed_program, pair.faulty_program)]
FIELDS = ("lines_hit", "branch_best", "branch_best_direct", "functions_called",
          "exceptions", "returns")


def _least(table: dict, branches: dict) -> None:
    for branch_id, (dt, df) in branches.items():
        if branch_id in table:
            table[branch_id] = [min(table[branch_id][0], dt), min(table[branch_id][1], df)]
        else:
            table[branch_id] = [dt, df]


def _eager_trace(program, test: TestCase) -> dict:
    """Every field of the test's trace, aggregated from fresh runs of its calls."""
    lines, called, exceptions = set(), set(), set()
    best, best_direct, returns = {}, {}, {}
    for call in test.calls:
        result = execute(program, call.function, call.args)
        lines |= result.lines_hit
        called |= result.called_functions
        _least(best, result.branch_best)
        _least(best_direct, result.branch_best_direct)
        if isinstance(result.outcome, Raised):
            exceptions.add(result.outcome.record.identity)
        else:
            returns[call.function] = returns.get(call.function, ()) + (result.outcome.value,)
    return {"lines_hit": lines, "branch_best": best, "branch_best_direct": best_direct,
            "functions_called": called, "exceptions": exceptions, "returns": returns}


def test_each_trace_field_equals_an_eager_aggregation_and_leaves_the_records_unwritten():
    rng = random.Random(39)
    cfg = GenConfig(max_calls_per_test=6)
    for program in PROGRAMS:
        tests = [random_test_case(program, rng, cfg) for _ in range(6)]
        # a joined test makes the calls of two others again, in its own order
        tests.append(TestCase(calls=tuple(c for test in tests[1::-1] for c in test.calls)))
        memo: dict = {}
        traces = [run_test(program, test, memo=memo) for test in tests]
        written = {key: copy.deepcopy((record.result.branch_best, record.result.branch_best_direct))
                   for key, record in memo.items()}
        for test, trace in zip(tests, traces):
            want = _eager_trace(program, test)
            for name in rng.sample(FIELDS, len(FIELDS)):
                first, second = getattr(trace, name), getattr(trace, name)
                assert second is first, name
                assert first == want[name], name
                if isinstance(first, dict):
                    assert list(first.items()) == list(want[name].items()), name
            assert all(type(values) is tuple for values in trace.returns.values())
        assert {key: (record.result.branch_best, record.result.branch_best_direct)
                for key, record in memo.items()} == written


# the corpus programs in which a function calls a function
WITH_CALLS = {"p08_account_rules", "p10_scaled_clamp", "p12_char_scan"}


def test_a_program_without_calls_keeps_one_branch_table_per_run_and_trace():
    rng = random.Random(40)
    for program in PROGRAMS:
        one = program.source_id.split(":")[0] not in WITH_CALLS
        memo: dict = {}
        for _ in range(8):
            trace = run_test(program, random_test_case(program, rng), memo=memo)
            if not trace.calls:
                continue
            assert all((record.result.branch_best is record.result.branch_best_direct) == one
                       for record in trace.calls), program.source_id
            assert (trace.branch_best_direct is trace.branch_best) == one, program.source_id


def test_a_trace_of_no_calls_is_empty_and_an_unknown_field_raises():
    trace = run_test(PROGRAMS[0], TestCase(calls=()))
    assert all(not getattr(trace, name) for name in FIELDS)
    with pytest.raises(AttributeError, match="line_hits"):
        trace.line_hits


def test_equal_value_objects_are_equal_and_hash_as_their_field_tuples():
    # goal sets' iteration order, and with it every digest, follows these hashes
    cases = [
        (CallStmt, ("f", (1, "ab", True)), ("f", (1, "ab", False))),
        (ExceptionGoal, ("DivByZero", "f"), ("DivByZero", "g")),
        (MethodGoal, ("f",), ("g",)),
        (MutantGoal, (3,), (4,)),
        (Returned, (7,), (8,)),
        (ExceptionRecord, ("Custom", "f", "tag"), ("Custom", "f", None)),
        (Raised, (ExceptionRecord("Custom", "f", "tag"),), (ExceptionRecord("Custom", "g"),)),
    ]
    for cls, fields, other in cases:
        a, b = cls(*fields), cls(*copy.deepcopy(fields))
        assert a is not b
        assert a == b and hash(a) == hash(b) == hash(fields), cls
        assert a != cls(*other), cls
        assert len({a, b, cls(*other)}) == 2, cls
    # a call's alias bits are outside its hash and its equality
    call, aliased = CallStmt("f", (1, "ab")), CallStmt("f", (1, "ab"), 0b10)
    assert call == aliased and hash(aliased) == hash(("f", (1, "ab")))
    assert aliased != CallStmt("f", (1, "ab", True), 0b10)
    assert replace(aliased, args=(2, "ab")).aliased == 0b10
