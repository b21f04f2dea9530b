"""Parser and interpreter behavior, branch distances, and their invariants."""

import hashlib
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import treewalk
from affsgen.minilang import (
    ArityError,
    ExceptionRecord,
    ParseError,
    Raised,
    Returned,
    UnknownFunctionError,
    execute,
    parse,
)
from affsgen.minilang.interpreter import MAX_CALL_DEPTH, InterpConfig
from affsgen.minilang.parser import MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, to_source
from affsgen.mutation import generate_mutants

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SIMPLE = "fn f(x:int){ if(x==5){return 1;} return 0; }"
# one throw, whose tag reads like the end of one throw and the start of another
QUOTED_THROW = r'fn f(x:int){ throw "a\";\n  throw \"b"; }'


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


@pytest.mark.parametrize("literal, message", [
    ("\u00b2", "unexpected character '\u00b2'"),
    ("9" * 4300, "integer literal of 4300 digits is too long"),
    ("9" * 5000, "integer literal of 5000 digits is too long"),
], ids=["superscript-two", "digits-4300", "digits-5000"])
def test_parse_rejects_int_literals_python_cannot_read_at_the_literal(literal, message):
    # str.isdigit holds for a superscript two, which int() rejects; int() and
    # str() take at most 4300 digits, and a literal of 4300 has a neighbour
    # of 4301 (its +1 mutant, or a test's literal)
    with pytest.raises(ParseError) as err:
        parse("fn f(x:int){\n  return " + literal + "; }")
    assert str(err.value) == f"{message} (line 2, column 10)"


def test_parse_admits_int_literals_whose_neighbours_python_can_read():
    program = parse("fn f(x:int){ return x + " + "9" * 4299 + "; }")
    assert execute(program, "f", (1,)).outcome == Returned(10**4299)
    plus_one = next(m for m in generate_mutants(program) if m.operator == "const:+1")
    assert execute(plus_one.mutated_program, "f", (1,)).outcome == Returned(10**4299 + 1)


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


_ATOMS = ("x", "y", "b", "s", "0", "7", "123", "true", "false", '"ab"')
_BINARY = ("or", "and", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/")
_STRAY = ("(", ")", "[", "]", ",", "not", "-", "+", "<", "or", "x", "1", ";", "len")


def _expr_tokens(rng: random.Random, depth: int) -> list[str]:
    """A random expression's tokens, operators mixed with no regard to precedence."""
    r = rng.random()
    if depth > 5 or r < 0.25:
        return [rng.choice(_ATOMS)]
    if r < 0.35:
        return [rng.choice(("not", "-"))] * rng.randint(1, 3) + _expr_tokens(rng, depth + 1)
    if r < 0.45:
        return ["("] + _expr_tokens(rng, depth + 1) + [")"]
    if r < 0.5:
        return _expr_tokens(rng, depth + 1) + ["["] + _expr_tokens(rng, depth + 1) + ["]"]
    if r < 0.55:
        args = [_expr_tokens(rng, depth + 1) for _ in range(rng.choice((0, 1, 2, 2, 2)))]
        tokens = ["g", "("]
        for i, arg in enumerate(args):
            tokens += ([","] if i else []) + arg
        return tokens + [")"]
    if r < 0.6:
        return ["len", "("] + _expr_tokens(rng, depth + 1) + [")"]
    return _expr_tokens(rng, depth + 1) + [rng.choice(_BINARY)] + _expr_tokens(rng, depth + 1)


def _deep_expr(rng: random.Random) -> str:
    n = rng.randint(60, 70)
    return ("not " * n + "b", "-" * n + "x", "(" * n + "x" + ")" * n,
            "x" + f" {rng.choice(_BINARY)} y" * n)[rng.randrange(4)]


def _generated_sources(count: int = 3000, seed: int = 20) -> list[str]:
    """Seeded programs around random expressions: every 50th nests about as
    deep as the cap, and one in five of the others lost a token or gained a
    stray one. About half of them fail to parse."""
    rng = random.Random(seed)
    sources = []
    for i in range(count):
        if i % 50 == 0:
            expr = _deep_expr(rng)
        else:
            tokens = _expr_tokens(rng, 0)
            if rng.random() < 0.2:
                at = rng.randrange(len(tokens) + 1)
                if rng.random() < 0.5 and at < len(tokens):
                    del tokens[at]
                else:
                    tokens.insert(at, rng.choice(_STRAY))
            expr = " ".join(tokens)
        sources.append("fn g(a:int, c:int){ return a; }\n"
                       f"fn f(x:int, y:int, b:bool, s:str){{ let z = {expr}; return z; }}")
    return sources


def test_parse_trees_and_errors_are_pinned():
    # every node, id and error message, as the parser gave them when its
    # precedence levels were still one method each
    trees, errors = hashlib.sha256(), hashlib.sha256()
    texts = [path.read_text() for path in sorted(CORPUS.glob("*/*.minij"))]
    assert len(texts) == 24
    failed = 0
    for text in texts + _generated_sources():
        try:
            trees.update(repr(parse(text)).encode() + b"\n")
        except ParseError as err:
            failed += 1
            errors.update(str(err).encode() + b"\n")
    assert failed == 1708
    assert trees.hexdigest() == "51271c5b17943840fbafb51ec52358e63f3a100fa447aabfa3bad40423888aa5"
    assert errors.hexdigest() == "7e94d8f4810ea4ee33026bed4cf11f83cbf1863a05804f4d50102df5193a5ae4"


def test_roundtrip_through_to_source():
    source = """
    fn pick(s:str, i:int) { if (i < len(s) and i >= 0) { return s[i]; } return "?"; }
    fn both(a:bool, b:bool) { return a or not b; }
    """ + QUOTED_THROW
    program = parse(source)
    again = parse(to_source(program))
    assert to_source(again) == to_source(program)
    assert again.functions[2].body[0].tag == 'a";\n  throw "b'


# --- execution ---------------------------------------------------------------


def test_execute_records_branch_distance_toward_true():
    # x == 5 with x = 3 needs a change of 2
    result = execute(parse(SIMPLE), "f", (3,))
    assert result.outcome == Returned(0)
    assert result.branch_best == result.branch_best_direct == {0: [2.0, 0.0]}


def test_execute_satisfied_predicate_has_zero_distance():
    result = execute(parse(SIMPLE), "f", (5,))
    assert result.outcome == Returned(1)
    ((distance_true, distance_false),) = result.branch_best.values()
    assert distance_true == 0.0
    assert distance_false > 0.0


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


@pytest.mark.parametrize("entry, value", [("g", 2.5), ("f", 1.5), ("f", None), ("f", b"ab")])
def test_execute_rejects_python_values_that_are_no_minij_values(entry, value):
    program = parse('fn f(s:str){ return s; } fn g(x:int){ return x; }')
    kind = {"f": "str", "g": "int"}[entry]
    for run in (execute, treewalk.execute):
        with pytest.raises(ArityError, match=f"expects {kind}, got Python {type(value).__name__}$"):
            run(program, entry, (value,))


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


def test_plain_recursion_stops_at_the_call_depth_cap():
    # deep expressions and blocks around the call do not cut it short
    assert MAX_CALL_DEPTH == 50
    for source in ("fn f(n:int){ if (n <= 0) { return 0; } return f(n - 1); }",
                   "fn f(n:int){ if (n > 0) { return 1 + f(n - 1); } return 0; }",
                   "fn f(n:int){ if (n > 0) { let r = f(n - 1); return r + 1; } return 0; }",
                   "fn f(n:int){ while (n > 0 and f(n - 1) >= 0) { return n; } return 0; }"):
        program = parse(source)
        assert isinstance(execute(program, "f", (49,)).outcome, Returned), source
        assert execute(program, "f", (50,)).outcome == Raised(
            ExceptionRecord("StepLimitExceeded", "f")), source


def test_explicit_throw_carries_tag_and_function():
    program = parse('fn f(){ throw "boom"; }')
    result = execute(program, "f", ())
    assert result.outcome.record.identity == ("ExplicitThrow:boom", "f")


def test_a_throw_tag_with_quotes_runs_its_own_code():
    # compiled code is shared by programs with the same to_source text
    plain = parse('fn f(x:int){ throw "a"; throw "b"; }')
    quoted = parse(QUOTED_THROW)
    assert execute(plain, "f", (1,)).outcome.record.tag == "a"
    assert execute(quoted, "f", (1,)).outcome.record.tag == 'a";\n  throw "b'


def test_a_call_through_a_records_both_names():
    program = parse("fn a(){ return b(); } fn b(){ return 2; } fn c(){ return 3; }")
    assert execute(program, "a", ()).called_functions == {"a", "b"}


def test_indirect_branch_not_direct():
    program = parse("fn a(x:int){ return b(x); } fn b(x:int){ if (x > 0) { return 1; } return 0; }")
    result = execute(program, "a", (4,))
    assert result.branch_best == {0: [0.0, 4.0]}
    assert result.branch_best_direct == {}
    direct = execute(program, "b", (4,))
    assert direct.branch_best_direct == direct.branch_best == {0: [0.0, 4.0]}


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
    for a, b, q in [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (0, -5, 0),
                    (2**70 + 1, -2, -(2**69))]:
        assert execute(program, "f", (a, b)).outcome == Returned(q)


def _outcome(source: str, entry: str, *args):
    return execute(parse(source), entry, args).outcome


def test_a_bool_is_not_an_int():
    assert _outcome("fn f(b:bool){ return b + 1; }", "f", True).record.kind == "TypeError"
    assert _outcome("fn f(b:bool){ return -b; }", "f", True).record.kind == "TypeError"
    assert _outcome('fn f(b:bool){ return "ab"[b]; }', "f", False).record.kind == "TypeError"
    assert _outcome("fn g(x:int){ return x; } fn f(b:bool){ return g(b); }",
                    "f", True) == Raised(ExceptionRecord("TypeError", "f"))
    # yet it compares as 0 or 1
    assert _outcome("fn f(b:bool){ return b == 1; }", "f", True) == Returned(True)
    assert _outcome("fn f(b:bool){ return b < 1; }", "f", False) == Returned(True)


def test_string_equality_distance_counts_mismatches_and_length():
    program = parse('fn f(s:str){ if (s == "abcd") { return 1; } return 0; }')
    for s, distance in [("abcd", 0.0), ("abxd", 1.0), ("ab", 2.0), ("xbcdef", 3.0), ("", 4.0)]:
        (branch,) = execute(program, "f", (s,)).branch_best.values()
        assert branch == [distance, 1.0 if distance == 0.0 else 0.0]


def test_ints_compare_exactly():
    # 2**53 + 1 and 2**53 share one float, but compare as the ints they are
    big, below = 2**53 + 1, 2**53
    for op, holds in (("==", False), ("!=", True)):
        program = parse(f"fn f(a:int, b:int){{ return a {op} b; }}")
        for run in (execute, treewalk.execute):
            assert run(program, "f", (big, below)).outcome == Returned(holds)
            assert run(program, "f", (big, big)).outcome == Returned(not holds)
    # a traced run's distance for the == is the int 1, on both interpreters
    program = parse("fn f(a:int, b:int){ if (a == b) { return 1; } return 0; }")
    for run in (execute, treewalk.execute):
        (distance_true, distance_false), = run(program, "f", (big, below)).branch_best.values()
        assert type(distance_true) is int and distance_true == 1
        assert distance_false == 0


def test_fall_off_end_returns_zero():
    program = parse("fn f(x:int){ let y = x; }")
    assert execute(program, "f", (9,)).outcome == Returned(0)


def test_short_circuit_preserves_semantics():
    program = parse("fn f(d:int){ if (d != 0 and 10 / d > 1) { return 1; } return 0; }")
    # with short-circuit, d = 0 must not divide
    assert execute(program, "f", (0,)).outcome == Returned(0)
    assert execute(program, "f", (5,)).outcome == Returned(1)


# --- branch distance ----------------------------------------------------------

_COMPARISONS = {op: parse(f"fn f(a:int, b:int){{ if (a {op} b) {{ return 1; }} return 0; }}")
                for op in ("==", "!=", "<", "<=", ">", ">=")}


def branch_distance(op: str, l: int, r: int) -> float:
    """The distance toward true that a run records for the branch ``l op r``."""
    ((distance_true, _),) = execute(_COMPARISONS[op], "f", (l, r)).branch_best.values()
    return distance_true


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
    # checked on the tree walker's log: compiled runs keep only the least
    # distances, which the differential tests pin to the log's
    program = parse(
        "fn f(x:int, y:int){ if (x > 2 and y < 7) { return 1; }"
        " while (x > 0) { x = x - 1; } return 0; }"
    )
    for args in [(0, 0), (3, 6), (3, 9), (5, 5), (-2, 7)]:
        for ev in treewalk.run(program, "f", args)[1]:
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
