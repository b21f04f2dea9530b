"""The static analysis of base programs on its own: kinds, definite
assignment, and which loops may jump."""

import operator
import random

from hypothesis import given, settings, strategies as st

import treewalk
from affsgen.minilang import codegen, parse
from affsgen.minilang.analysis import NEGATION, Analysis, _exit, _least
from affsgen.minilang.interpreter import InterpConfig, kind_of
from affsgen.minilang.nodes import Assign, Binary, IntLit, Let, Unary, Var
from affsgen.mutation import DELETE_ASSIGNMENT, generate_mutants
from test_compiled import _ProgramWriter, _arguments

INT, STR = frozenset(["int"]), frozenset(["str"])


def test_a_difference_of_strs_may_be_a_str_under_the_arithmetic_operator_mutant():
    analysis = Analysis(parse("fn f(s:str, t:str){ let u = s - t; return u; }"))
    # the base always raises at s - t, but s + t is a str
    assert analysis.variables["f"]["u"] == STR
    assert analysis.returns["f"] == STR
    assert analysis.known["f"] == {"s": "str", "t": "str", "u": "str"}


def test_arithmetic_on_mixed_kinds_gives_no_value():
    analysis = Analysis(parse("fn f(s:str, x:int, b:bool){ let u = s + x; let v = b * b;"
                              " let w = x / x; return w; }"))
    assert "u" not in analysis.variables["f"] and "v" not in analysis.variables["f"]
    assert analysis.known["f"]["w"] == "int"


def test_a_parameter_reassigned_to_another_kind_becomes_unknown():
    analysis = Analysis(parse('fn f(x:int, y:int){ if (x > 0) { x = "a"; } y = y + 1;'
                              " return x; }"))
    assert analysis.variables["f"]["x"] == INT | STR
    assert analysis.known["f"] == {"x": None, "y": "int"}
    assert analysis.known_returns["f"] is None


def test_comparisons_and_not_are_bools_and_constants_ints():
    analysis = Analysis(parse('fn f(s:str, x:int){ let a = s == "q"; let b = not a;'
                              " let c = x < 3 and b; let d = -x; let e = len(s); let g = s[0];"
                              " return c; }"))
    assert analysis.known["f"] == {"s": "str", "x": "int", "a": "bool", "b": "bool",
                                   "c": "bool", "d": "int", "e": "int", "g": "str"}


def test_recursion_reaches_a_fixpoint():
    analysis = Analysis(parse(
        "fn f(n:int){ if (n > 0) { return f(n - 1) + 1; } return 0; }"
        'fn g(n:int){ if (n > 0) { return h(n - 1); } return "done"; }'
        "fn h(n:int){ let r = g(n); return r; }"))
    assert analysis.returns == {"f": INT, "g": STR, "h": STR}
    assert analysis.known["h"]["r"] == "str"


def test_a_body_that_may_fall_off_its_end_returns_int():
    analysis = Analysis(parse(
        'fn f(s:str){ if (len(s) > 0) { return s; } }'
        'fn g(s:str){ if (len(s) > 0) { return s; } else { throw "e"; } }'
        'fn h(b:bool){ while (b) { return "x"; } }'
        "fn k(b:bool){ }"))
    assert analysis.returns == {"f": INT | STR, "g": STR, "h": INT | STR, "k": INT}


def test_a_variable_is_surely_bound_where_every_path_there_binds_it():
    program = parse("fn f(x:int, b:bool){"
                    "  if (b) { let y = 1; } else { let y = 2; let z = 3; }"
                    "  while (b) { let w = 1; b = false; }"
                    "  if (b) { return 0; } else { let v = 1; }"
                    "  return y + v; }")
    bound = Analysis(program).bound
    body = program.function("f").body
    assert bound[body[0].line_id] == {"x", "b"}
    assert bound[body[1].line_id] == {"x", "b", "y"}  # z is bound on one path only
    assert bound[body[1].body[1].line_id] == {"x", "b", "y", "w"}
    # w is bound only inside the loop, and the path through return 0 ends there
    assert bound[body[3].line_id] == {"x", "b", "y", "v"}


def _within(mutated: Analysis, analysis: Analysis) -> bool:
    """Whether every kind ``mutated`` finds, ``analysis`` allows."""
    return all(kinds <= analysis.variables[f].get(v, frozenset())
               for f, bound in mutated.variables.items() for v, kinds in bound.items()) and all(
        kinds <= analysis.returns[f] for f, kinds in mutated.returns.items())


def test_no_mutant_has_a_kind_its_base_program_does_not_allow():
    # a deleted assignment keeps y's old value, an int, and s - t may be s + t
    program = parse('fn f(x:int, s:str){ let y = x; y = y + 1; let t = s - "a";'
                    " if (y > 2) { return t; } return y * 2; }")
    analysis = Analysis(program)
    assert analysis.known["f"] == {"x": "int", "s": "str", "y": "int", "t": "str"}
    assert analysis.returns["f"] == INT | STR
    for mutant in generate_mutants(program):
        assert _within(Analysis(mutant.mutated_program), analysis), mutant.operator


def test_every_loop_of_assignments_is_listed_and_each_version_decides_its_jump():
    program = parse(
        "fn f(i:int, n:int, b:bool){"
        "  let s = 0; let t = true;"
        "  while (not (i * 2 < n)) { s = s + i; i = i / 1; }"  # / may become + or -
        "  while (i < n) { if (b) { i = i + 1; } }"  # a statement that is not an assignment
        "  while (i < n) { s = s + len(\"ab\"[0]); i = i + 1; }"  # an index
        "  while (i < n and b) { i = i + 1; }"  # not one comparison
        "  while (i < n) { let z = 1; i = i + z; }"  # z is not bound at the head
        "  while (t != b) { i = i + 1; }"  # compares bools
        "  while (i < n) { t = t == b; }"  # a comparison in the body
        "  return s; }")
    analysis = Analysis(program)
    # every loop of lets and assignments, with its variables bound at its head
    assert analysis.loops == {0: ("f", ("i", "n", "s")), 3: ("f", ("i", "n", "s")),
                              4: ("f", ("b", "i", "n")), 5: ("f", ("i", "n")),
                              6: ("f", ("b", "i", "t")), 7: ("f", ("b", "i", "n", "t"))}
    assert analysis.own_jumps == {}
    jumping = {(m.site, m.operator): sorted(analysis.jumps(m.mutated_program, {}))
               for m in generate_mutants(program)}
    # the first loop jumps once / becomes + or -, or once i stops moving; the
    # third and the last once the assignment holding the index or comparison is
    # deleted
    assert {key: loops for key, loops in jumping.items() if loops} == {
        (4, "aor:/->+"): [0], (4, "aor:/->-"): [0], (4, DELETE_ASSIGNMENT): [0],
        (9, DELETE_ASSIGNMENT): [3], (19, DELETE_ASSIGNMENT): [7]}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_value_a_mutant_binds_or_returns_has_a_kind_the_analysis_allows(seed):
    rng = random.Random(seed)
    writer = _ProgramWriter(rng)
    program = parse(writer.program())
    analysis = Analysis(program)

    class Checked(treewalk._Interp):
        """Checks that each variable surely bound before a statement is, and
        each value a let, an assignment or a call gives."""

        def _exec_stmt(self, stmt, env, fname, depth):
            assert analysis.bound[stmt.line_id] <= env.keys(), stmt
            super()._exec_stmt(stmt, env, fname, depth)
            if type(stmt) in (Let, Assign):
                assert kind_of(env[stmt.name]) in analysis.variables[fname][stmt.name], stmt

        def _call(self, name, args, caller, depth, site):
            value = super()._call(name, args, caller, depth, site)
            assert kind_of(value) in analysis.returns[name], name
            return value

    for run in [program] + [m.mutated_program for m in generate_mutants(program)]:
        if run is not program:
            assert _within(Analysis(run), analysis)
        for i, kinds in enumerate(writer.signatures):
            fn = run.function(f"f{i}")
            args = _arguments(rng, kinds)
            interp = Checked(run, InterpConfig(step_limit=rng.choice([20, 200])))
            try:
                # the entry call, whose return is checked as a call's is
                interp._call(fn.name, list(args), fn.name, -1, -1)
            except treewalk.MiniJError:
                pass


_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_COMPARE)), st.integers(-12, 12), st.integers(-4, 4),
       st.integers(0, 9))
def test_a_comparison_on_a_line_holds_and_is_nearest_false_as_on_every_pass(
        op, start, slope, last):
    """``_exit`` and ``_least`` against each pass ``t`` of ``d = start +
    slope * t``, with the distance toward false that the generated code
    computes for ``d op 0``: the first pass on which it fails, which comes
    within 13 passes or never, and where it holds on every pass in
    ``0..last``, the least distance over them."""
    fails = next((t for t in range(30) if not _COMPARE[op](start + slope * t, 0)), None)
    assert _exit(op, start, slope) == fails
    if fails is None or fails > last:
        line = [start + slope * t for t in range(last + 1)]
        toward_false = codegen._distance(NEGATION[op], "d", "0")
        distances = [eval(toward_false, {}, {"d": d}) for d in line]
        least = _least(op, start, slope, last)
        assert (type(least), least) == (type(min(distances)), min(distances))


def test_an_alternative_has_a_closed_form_only_on_a_line_of_the_pass():
    program = parse("fn f(p:int, n:int, d:int){ let i = 0;"
                    " while (i < n) { p = p + i; i = i + d; } return p; }")
    loop = program.function("f").body[1]
    jump = Analysis(program).own_jumps[loop.branch_id]
    cond, accumulate, step = loop.cond, loop.body[0].expr, loop.body[1].expr
    # i and n move by fixed amounts, p by i: every alternative reading p has none
    assert jump.form(cond.node_id, Binary("!=", Var("i"), Var("n"))) is not None
    assert jump.form(step.node_id, Binary("-", Var("i"), Var("d"))) is not None
    assert jump.form(step.node_id, None) is not None
    assert jump.form(accumulate.node_id, Binary("-", Var("p"), Var("i"))) is None
    assert jump.form(accumulate.node_id, None) is None
    # nor does one that divides, or that takes another number of steps
    assert jump.form(step.node_id, Binary("/", Var("i"), Var("d"))) is None
    assert jump.form(cond.node_id, Unary("not", cond)) is None
    assert jump.form(step.node_id, Binary("+", Var("i"), Binary("+", Var("d"), IntLit(1)))) is None
