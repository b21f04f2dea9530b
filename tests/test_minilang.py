"""Parser and interpreter behavior, branch distances, and their invariants."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from affsgen.minilang import (
    ArityError,
    ParseError,
    Raised,
    Returned,
    UnknownFunctionError,
    branch_distance,
    execute,
    parse,
)
from affsgen.minilang.interpreter import InterpConfig
from affsgen.minilang.parser import MAX_EXPR_DEPTH, to_source
from affsgen.mutation import generate_mutants

SIMPLE = "fn f(x:int){ if(x==5){return 1;} return 0; }"


def test_parse_counts_functions_branches_lines():
    program = parse(SIMPLE)
    assert len(program.functions) == 1
    assert program.branch_count == 1
    assert program.line_count == 3


def test_parse_empty_source():
    assert parse("").functions == []


def test_parse_unbalanced_brace_reports_position():
    with pytest.raises(ParseError) as err:
        parse("fn f(){")
    assert "end-of-input" in str(err.value)


def test_parse_duplicate_function_name():
    with pytest.raises(ParseError, match="duplicate function"):
        parse("fn f(){ return 1; } fn f(){ return 2; }")


def test_parse_duplicate_parameter_name():
    with pytest.raises(ParseError, match="duplicate parameter"):
        parse("fn f(a:int, a:int){ return 1; }")


def test_parse_unknown_callee_rejected():
    with pytest.raises(ParseError, match="unknown function"):
        parse("fn f(){ return g(); }")


def test_parse_admits_expressions_at_the_depth_cap():
    chain = "x" + " + 1" * (MAX_EXPR_DEPTH - 1)
    parens = "(" * (MAX_EXPR_DEPTH - 1) + "x" + ")" * (MAX_EXPR_DEPTH - 1)
    negations = "-" * (MAX_EXPR_DEPTH - 1) + "x"
    program = parse(f"fn a(x:int){{ return {chain}; }}"
                    f"fn b(x:int){{ return {parens}; }}"
                    f"fn c(x:int){{ return {negations}; }}")
    assert parse(to_source(program)).node_count == program.node_count
    assert generate_mutants(program)
    assert execute(program, "a", (1,)).outcome == Returned(MAX_EXPR_DEPTH)
    assert execute(program, "b", (1,)).outcome == Returned(1)
    assert execute(program, "c", (1,)).outcome == Returned(-1)


@pytest.mark.parametrize("expr", [
    "x" + " + x" * 3000,  # a flat sum is a left-deep tree
    "(" * 2000 + "x" + ")" * 2000,
    "-" * 3000 + "x",
    "not " * 3000 + "x",
    "f(" * 2000 + "x" + ")" * 2000,
    "x" + " + 1" * MAX_EXPR_DEPTH,
    "(" * MAX_EXPR_DEPTH + "x" + ")" * MAX_EXPR_DEPTH,
], ids=["sum-3000", "parens-2000", "negations-3000", "nots-3000", "calls-2000",
        "sum-past-cap", "parens-past-cap"])
def test_parse_rejects_expressions_past_the_depth_cap(expr):
    with pytest.raises(ParseError, match="nested deeper than"):
        parse(f"fn f(x:int){{ return {expr}; }}")


def test_parse_ids_are_stable():
    a = parse(SIMPLE)
    b = parse(SIMPLE)
    assert to_source(a) == to_source(b)
    assert a.line_count == b.line_count
    assert a.branch_count == b.branch_count


def test_roundtrip_through_to_source():
    source = """
    fn pick(s:str, i:int) { if (i < len(s) and i >= 0) { return s[i]; } return "?"; }
    fn both(a:bool, b:bool) { return a or not b; }
    """
    program = parse(source)
    again = parse(to_source(program))
    assert to_source(again) == to_source(program)


# --- execution ---------------------------------------------------------------


def test_execute_records_branch_distance_toward_true():
    # x == 5 with x = 3 needs a change of 2
    result = execute(parse(SIMPLE), "f", (3,))
    (ev,) = result.branch_evals
    assert ev.taken is False
    assert ev.distance_true == 2.0
    assert ev.distance_false == 0.0


def test_execute_satisfied_predicate_has_zero_distance():
    result = execute(parse(SIMPLE), "f", (5,))
    (ev,) = result.branch_evals
    assert ev.taken is True
    assert ev.distance_true == 0.0
    assert ev.distance_false > 0.0


def test_execute_division_by_zero():
    program = parse("fn g(a:int){ return 1/a; }")
    result = execute(program, "g", (0,))
    assert isinstance(result.outcome, Raised)
    assert result.outcome.record.kind == "DivByZero"
    assert result.outcome.record.raising_function == "g"


def test_execute_deterministic():
    program = parse(SIMPLE)
    assert execute(program, "f", (3,)) == execute(program, "f", (3,))


def test_execute_unknown_function():
    with pytest.raises(UnknownFunctionError):
        execute(parse(SIMPLE), "nope", ())


def test_execute_arity_and_kind_mismatch():
    program = parse(SIMPLE)
    with pytest.raises(ArityError):
        execute(program, "f", ())
    with pytest.raises(ArityError):
        execute(program, "f", ("text",))
    with pytest.raises(ArityError):
        execute(program, "f", (True,))  # bool is not int


def test_step_limit_terminates_infinite_loop():
    program = parse("fn h(x:int){ while (x != 0) { x = x - 3; } return x; }")
    result = execute(program, "h", (7,), InterpConfig(step_limit=500))
    assert isinstance(result.outcome, Raised)
    assert result.outcome.record.kind == "StepLimitExceeded"
    assert result.steps <= 501


def test_call_depth_capped():
    program = parse("fn f(n:int){ return f(n + 1); }")
    result = execute(program, "f", (0,))
    assert isinstance(result.outcome, Raised)
    assert result.outcome.record.kind == "StepLimitExceeded"


def test_explicit_throw_carries_tag_and_function():
    program = parse('fn f(){ throw "boom"; }')
    result = execute(program, "f", ())
    assert result.outcome.record.identity == ("ExplicitThrow:boom", "f")


def test_indirect_call_flags():
    program = parse("fn a(){ return b(); } fn b(){ return 2; }")
    result = execute(program, "a", ())
    assert ("a", True) in result.called_functions
    assert ("b", False) in result.called_functions
    assert ("b", True) not in result.called_functions


def test_indirect_branch_not_direct():
    program = parse("fn a(x:int){ return b(x); } fn b(x:int){ if (x > 0) { return 1; } return 0; }")
    result = execute(program, "a", (4,))
    (ev,) = result.branch_evals
    assert ev.direct is False
    direct = execute(program, "b", (4,))
    assert direct.branch_evals[0].direct is True


def test_string_operations():
    program = parse('fn f(s:str){ if (s == "ab") { return len(s); } return s[0]; }')
    assert execute(program, "f", ("ab",)).outcome == Returned(2)
    assert execute(program, "f", ("xy",)).outcome == Returned("x")
    out = execute(program, "f", ("",)).outcome
    assert out.record.kind == "IndexOutOfBounds"


def test_string_ordering_is_type_error():
    program = parse('fn f(s:str){ return s < "m"; }')
    assert execute(program, "f", ("a",)).outcome.record.kind == "TypeError"


def test_mixed_arithmetic_is_type_error():
    program = parse('fn f(s:str, n:int){ return s + n; }')
    assert execute(program, "f", ("a", 1)).outcome.record.kind == "TypeError"


def test_division_truncates_toward_zero():
    program = parse("fn f(a:int, b:int){ return a / b; }")
    assert execute(program, "f", (7, 2)).outcome == Returned(3)
    assert execute(program, "f", (-7, 2)).outcome == Returned(-3)
    assert execute(program, "f", (7, -2)).outcome == Returned(-3)


def test_fall_off_end_returns_zero():
    program = parse("fn f(x:int){ let y = x; }")
    assert execute(program, "f", (9,)).outcome == Returned(0)


def test_short_circuit_preserves_semantics():
    program = parse("fn f(d:int){ if (d != 0 and 10 / d > 1) { return 1; } return 0; }")
    # with short-circuit, d = 0 must not divide
    assert execute(program, "f", (0,)).outcome == Returned(0)
    assert execute(program, "f", (5,)).outcome == Returned(1)


# --- branch distance ----------------------------------------------------------


def test_branch_distance_paper_example():
    assert branch_distance("==", 3, 5) == 2.0


def test_branch_distance_satisfied_is_zero():
    assert branch_distance("==", 5, 5) == 0.0


def test_branch_distance_boundary_oracle():
    # enumerate integers near the boundary: zero exactly when the predicate holds
    for op, pred in [
        ("==", lambda l, r: l == r), ("!=", lambda l, r: l != r),
        ("<", lambda l, r: l < r), ("<=", lambda l, r: l <= r),
        (">", lambda l, r: l > r), (">=", lambda l, r: l >= r),
    ]:
        for l in range(5, 16):
            for r in range(5, 16):
                d = branch_distance(op, l, r)
                assert (d == 0.0) == pred(l, r), (op, l, r, d)
                assert d >= 0.0
    assert branch_distance("<", 10, 10) == 1.0


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_distance_soundness_random_pairs(l, r):
    for op, pred in [("==", l == r), ("<", l < r), (">=", l >= r)]:
        assert (branch_distance(op, l, r) == 0.0) == pred


@settings(max_examples=200)
@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_equality_distance_monotone(a, b, c):
    # closer operands give strictly smaller == distance
    if abs(a - c) < abs(b - c):
        assert branch_distance("==", a, c) < branch_distance("==", b, c)


def test_branch_eval_distance_matches_taken_outcome():
    program = parse(
        "fn f(x:int, y:int){ if (x > 2 and y < 7) { return 1; }"
        " while (x > 0) { x = x - 1; } return 0; }"
    )
    for args in [(0, 0), (3, 6), (3, 9), (5, 5), (-2, 7)]:
        result = execute(program, "f", args)
        for ev in result.branch_evals:
            zero_true = ev.distance_true == 0.0
            zero_false = ev.distance_false == 0.0
            assert zero_true != zero_false
            assert zero_true == ev.taken


def test_every_execution_terminates_within_step_limit():
    program = parse("fn spin(n:int){ while (n != 1) { n = n + 1; } return n; }")
    config = InterpConfig(step_limit=1000)
    for n in (-5, 0, 2, 999):
        result = execute(program, "spin", (n,), config)
        assert result.steps <= config.step_limit + 1


@pytest.mark.xfail(raises=OverflowError, strict=True, reason=(
    "p06 defect: _Interp._compare converts int operands with float(int(x)), which "
    "overflows once a value passes float range. Clamping to +-inf there turned the 36 "
    "failing p06 trials of the benchmark's sweep workload into completed runs: 62 s "
    "serial instead of 11 s, against 51 s for all 432 sweep trials today "
    "(2-vCPU Xeon), so the fix waits for a change that also pays for that work."))
def test_p06_mutant_growing_past_float_range_hits_step_limit():
    source = Path(__file__).resolve().parent.parent / "corpus" / "p06_loop_boundary" / "fixed.minij"
    program = parse(source.read_text(), "p06_loop_boundary")
    # countdown's `k = k - 3` becomes `k = k * 3`: k grows without bound
    mutant = next(m for m in generate_mutants(program)
                  if m.operator == "aor:-->*"
                  and to_source(m.mutated_program).count("k = (k * 3);") == 1)
    result = execute(mutant.mutated_program, "countdown", (1000,))
    assert isinstance(result.outcome, Raised)
    assert result.outcome.record.kind == "StepLimitExceeded"
