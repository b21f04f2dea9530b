"""Parser and interpreter behavior, branch distances, and their invariants."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from affsgen.minilang import (
    ArityError,
    ExceptionRecord,
    ParseError,
    Raised,
    Returned,
    UnknownFunctionError,
    branch_distance,
    execute,
    parse,
)
from affsgen.minilang.interpreter import FRAME_BUDGET, InterpConfig
from affsgen.minilang.parser import MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, to_source
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


def _nested_ifs(levels: int, inner: str = "return x;") -> str:
    body = inner
    for _ in range(levels):
        body = f"if (x > 0) {{ {body} }}"
    return f"fn f(x:int){{ {body} return 0; }}"


def test_parse_admits_blocks_at_the_depth_cap():
    # the function body is the first block level
    program = parse(_nested_ifs(MAX_BLOCK_DEPTH - 1))
    assert program.branch_count == MAX_BLOCK_DEPTH - 1
    assert parse(to_source(program)).line_count == program.line_count
    assert execute(program, "f", (3,)).outcome == Returned(3)


@pytest.mark.parametrize("levels", [MAX_BLOCK_DEPTH, 2000], ids=["past-cap", "ifs-2000"])
def test_parse_rejects_blocks_past_the_depth_cap(levels):
    with pytest.raises(ParseError, match="blocks nested deeper than"):
        parse(_nested_ifs(levels))
    with pytest.raises(ParseError, match="blocks nested deeper than"):
        parse(_nested_ifs(levels).replace("if (x > 0)", "while (x > 0)"))


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


DEEP_RECURSION = parse(
    "fn f(x:int){ if (x <= 0) {return 0;} return 1 + (1 + (1 + (1 + (1 + f(x-1))))); }")


def _worst_case_recursion() -> str:
    # the tallest expression the parser admits, recursing at its bottom,
    # inside the deepest blocks it admits
    expr = "g(x - 1)" + " + 1" * (MAX_EXPR_DEPTH - 4)
    body = f"return {expr};"
    for _ in range(MAX_BLOCK_DEPTH - 1):
        body = f"if (x > 0) {{ {body} }}"
    return f"fn g(x:int){{ if (x <= 0) {{ return 0; }} {body} return 0; }}"


def test_recursion_inside_deep_expressions_hits_step_limit():
    result = execute(DEEP_RECURSION, "f", (100,))
    assert result.outcome == Raised(ExceptionRecord("StepLimitExceeded", "f"))
    assert execute(DEEP_RECURSION, "f", (5,)).outcome == Returned(25)


def test_result_does_not_depend_on_the_callers_stack_depth():
    worst = parse(_worst_case_recursion())
    cases = [(DEEP_RECURSION, "f", (100,)), (DEEP_RECURSION, "f", (3,)),
             (worst, "g", (1000,)), (parse("fn f(n:int){ return f(n + 1); }"), "f", (0,))]

    def from_depth(frames, program, entry, args):
        if frames == 0:
            return execute(program, entry, args)
        return from_depth(frames - 1, program, entry, args)

    for program, entry, args in cases:
        shallow = execute(program, entry, args)
        assert from_depth(300, program, entry, args) == shallow
    assert execute(worst, "g", (1000,)).outcome.record.kind == "StepLimitExceeded"
    assert FRAME_BUDGET + 300 < 1000  # Python's default recursion limit


def test_plain_recursion_stops_at_the_call_depth_cap():
    # the frame budget must not cut plain recursion short of max_call_depth
    assert InterpConfig().max_call_depth == 50
    for source in ("fn f(n:int){ if (n <= 0) { return 0; } return f(n - 1); }",
                   "fn f(n:int){ if (n > 0) { return 1 + f(n - 1); } return 0; }",
                   "fn f(n:int){ if (n > 0) { let r = f(n - 1); return r + 1; } return 0; }",
                   "fn f(n:int){ while (n > 0 and f(n - 1) >= 0) { return n; } return 0; }"):
        program = parse(source)
        assert isinstance(execute(program, "f", (49,)).outcome, Returned), source
        assert execute(program, "f", (50,)).outcome == Raised(
            ExceptionRecord("StepLimitExceeded", "f")), source


_WRAPPERS = ["1 + ({})", "({}) * 2", "({}) == 0", "0 < ({})", "not ({})", "-({})",
             "true and ({})", "false or ({})", "len({})", "g({})", '"ab"[({})]']
_STATEMENTS = ["let r = {}; return 0;", "let r = 0; r = {}; return r;", "return {};",
               "if ({}) {{ return 1; }} return 0;", "while ({}) {{ return 1; }} return 0;"]


def _stack_profile(program, entry, args):
    """Run execute under a profiler. Return the outcome and the Python frames
    seen: the deepest stack under execute, and (actual, charged) pairs for
    each call site and for each frame within an activation."""
    import sys

    from affsgen.minilang import interpreter

    depth = 0
    active: list[tuple[int, str]] = []  # (stack depth of an activation's call, function)
    seen = {"deepest": 0, "site": [], "height": []}

    def profile(frame, event, arg):
        nonlocal depth
        if event == "call":
            depth += 1
            code = frame.f_code
            if code is interpreter.execute.__code__:
                active.append((depth, entry))
            elif active:
                seen["deepest"] = max(seen["deepest"], depth - active[0][0])
                sites, heights = interpreter._frame_costs(program)
                if code is interpreter._Interp._call.__code__:
                    seen["site"].append((depth - active[-1][0], sites[frame.f_locals["site"]]))
                    active.append((depth, frame.f_locals["name"]))
                else:
                    seen["height"].append((depth - active[-1][0], heights[active[-1][1]]))
        elif event == "return":
            if active and active[-1][0] == depth:
                active.pop()
            depth -= 1

    sys.setprofile(profile)
    try:
        outcome = execute(program, entry, args).outcome
    finally:
        sys.setprofile(None)
    return outcome, seen


@settings(max_examples=40, deadline=None)
@given(wrappers=st.lists(st.sampled_from(_WRAPPERS), max_size=6),
       statement=st.sampled_from(_STATEMENTS), blocks=st.integers(0, 4))
def test_static_frame_costs_bound_the_python_stack(wrappers, statement, blocks):
    expr = "f(n - 1)"
    for wrapper in wrappers:
        expr = wrapper.format(expr)
    body = statement.format(expr)
    for _ in range(blocks):
        body = f"if (n > 0) {{ {body} }} return 0;"
    program = parse("fn g(x:int){ return x; } "
                    f"fn f(n:int){{ if (n <= 0) {{ return 0; }} {body} }}")
    outcome, seen = _stack_profile(program, "f", (60,))
    assert outcome == Raised(ExceptionRecord("StepLimitExceeded", "f"))
    assert len(seen["site"]) >= 10
    for actual, charged in seen["site"] + seen["height"]:
        assert actual <= charged
    assert seen["deepest"] <= FRAME_BUDGET


def test_worst_case_recursion_stays_within_the_frame_budget():
    outcome, seen = _stack_profile(parse(_worst_case_recursion()), "g", (1000,))
    assert outcome == Raised(ExceptionRecord("StepLimitExceeded", "g"))
    for actual, charged in seen["site"] + seen["height"]:
        assert actual <= charged
    assert FRAME_BUDGET // 2 < seen["deepest"] <= FRAME_BUDGET


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
