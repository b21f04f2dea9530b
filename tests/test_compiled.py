"""Compiled execution against the reference tree walker, and the semantics
that are easy to get wrong."""

import collections
import contextlib
import gc
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import treewalk
from affsgen import mutation, tracing
from affsgen.affs import Goal, make_strategy
from affsgen.engine import Budget, EngineConfig, run_search
from affsgen.fitness import FitnessContext
from affsgen.harness import load_corpus
from affsgen.minilang import ExceptionRecord, Raised, Returned, codegen, interpreter, parse
from affsgen.minilang.analysis import Analysis, Jump
from affsgen.minilang.interpreter import (
    MAX_CALL_DEPTH,
    InterpConfig,
    Sides,
    execute,
    precompile,
)
from affsgen.minilang.nodes import (
    Assign,
    If,
    Let,
    Program,
    While,
    walk_expressions,
    walk_statements,
)
from affsgen.minilang.parser import MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, to_source
from affsgen.mutation import DELETE_ASSIGNMENT, generate_mutants, mutants_of
from affsgen.testmodel import CallStmt, GenConfig, TestCase, random_test_case

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _corpus_programs() -> list:
    """Every corpus program, freshly loaded, so none has compiled code yet."""
    return [program for pair in load_corpus(CORPUS)
            for program in (pair.fixed_program, pair.faulty_program)]


PROGRAMS = _corpus_programs()
STEP_LIMITS = [1, 2, 3, 5, 8, 13, 21, 40, 90, 300, 10_000]


def _typed(table: dict) -> dict:
    return {branch: [(type(d), d) for d in best] for branch, best in table.items()}


def _assert_same_traced(compiled, walked) -> None:
    """Two traced runs' results agree, and so do the Python types of their
    branch distances, which ``==`` alone would not tell apart (0 == 0.0)."""
    assert compiled == walked
    assert _typed(compiled.branch_best) == _typed(walked.branch_best)
    assert _typed(compiled.branch_best_direct) == _typed(walked.branch_best_direct)


def _assert_same_runs(program, entry, args, config, mutants) -> None:
    """Traced, schema and kill runs of one call agree with the tree walker;
    kill runs both with sides that count root evaluations and without.
    ``mutants`` are some of ``program``'s, whose schema its runs with sides
    redo."""
    compiled = execute(program, entry, args, config)
    _assert_same_traced(compiled, treewalk.execute(program, entry, args, config))
    ours, theirs = Sides(), Sides()
    schema = execute(program, entry, args, config, ours)
    walked = treewalk.execute(program, entry, args, config, theirs)
    # a schema run, like a kill run, fills only the outcome and the step count
    assert (schema.outcome, schema.steps) == (walked.outcome, walked.steps)
    assert not (schema.lines_hit or schema.branch_best or schema.branch_best_direct
                or schema.called_functions)
    assert (ours.evals, ours.infected, ours.drifted) == (
        theirs.evals, theirs.infected, theirs.drifted)
    for mutant in mutants:
        # a kill run fills only the outcome and the step count
        ours, theirs = Sides(), Sides()
        killed = execute(mutant.mutated_program, entry, args, config, ours)
        walked = treewalk.execute(mutant.mutated_program, entry, args, config, theirs)
        assert (killed.outcome, killed.steps) == (walked.outcome, walked.steps), mutant.operator
        assert not (killed.lines_hit or killed.branch_best or killed.branch_best_direct
                    or killed.called_functions)
        assert ours.evals == theirs.evals, mutant.operator
        # without sides, which only a kill run without them may cut short
        plain = execute(mutant.mutated_program, entry, args, config)
        assert (plain.outcome, plain.steps) == (walked.outcome, walked.steps), mutant.operator


@contextlib.contextmanager
def _every_loop_checked():
    """Programs compiled meanwhile look for a repeated control state at
    every loop head from the run's first step on; programs compiled before
    keep their code."""
    with mock.patch.object(codegen, "CYCLE_CHECK_AFTER", 0), \
            mock.patch.object(interpreter, "_MODULES", {}):
        yield


def _corpus_runs_as_the_tree_walker_does(seed: int, programs) -> None:
    rng = random.Random(seed)
    for program in programs:
        mutants = mutants_of(program)
        calls: dict[str, tuple] = {}  # one call of each function, drawn from random tests
        while len(calls) < len(program.functions):
            test = random_test_case(program, rng, GenConfig(max_calls_per_test=4))
            for call in test.calls:
                calls.setdefault(call.function, tuple(test.resolve(a) for a in call.args))
        for function, args in calls.items():
            config = InterpConfig(step_limit=rng.choice(STEP_LIMITS))
            _assert_same_runs(program, function, args, config,
                              rng.sample(mutants, min(6, len(mutants))))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_corpus_function_runs_as_the_tree_walker_does(seed):
    _corpus_runs_as_the_tree_walker_does(seed, PROGRAMS)


@settings(max_examples=2, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_corpus_function_runs_as_the_tree_walker_does_with_every_loop_checked(seed):
    with _every_loop_checked():
        _corpus_runs_as_the_tree_walker_does(seed, _corpus_programs())


# --- generated programs ------------------------------------------------------------


class _ProgramWriter:
    """Random MiniJ source: mostly well-kinded, sometimes not, with loops,
    calls (recursion included), variables bound in one branch only, and
    throws, so that every in-language error and step-limit hits occur."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.signatures = [tuple(rng.choice(("int", "int", "bool", "str"))
                                 for _ in range(rng.randint(0, 2)))
                           for _ in range(rng.randint(1, 3))]

    def program(self) -> str:
        functions = []
        for i, kinds in enumerate(self.signatures):
            scope = {f"p{j}": kind for j, kind in enumerate(kinds)}
            params = ", ".join(f"p{j}:{kind}" for j, kind in enumerate(kinds))
            body = self.block(scope, 3)
            if self.rng.random() < 0.3:  # where it is surely reached
                body = f"{self.counted_loop(scope)} {body}"
            functions.append(f"fn f{i}({params}) {{ {body} }}")
        return "\n".join(functions)

    def block(self, scope: dict, depth: int) -> str:
        return " ".join(self.statement(scope, depth) for _ in range(self.rng.randint(1, 4)))

    def statement(self, scope: dict, depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3 or not scope:
            name = rng.choice(["a", "b", "c", "d"])
            kind = rng.choice(("int", "int", "bool", "str"))
            scope[name] = kind
            return f"let {name} = {self.expr(kind, scope, 3)};"
        if roll < 0.5:
            name = rng.choice(sorted(scope) + ["zz"])  # zz is never bound
            return f"{name} = {self.expr(scope.get(name, 'int'), scope, 3)};"
        if roll < 0.65 and depth > 0:
            inner = dict(scope)
            then = self.block(inner, depth - 1)
            other = self.block(dict(scope), depth - 1) if rng.random() < 0.5 else ""
            return f"if ({self.expr('bool', scope, 3)}) {{ {then} }} else {{ {other} }}"
        if roll < 0.8 and depth > 0:
            body = self.block(dict(scope), depth - 1)
            return f"while ({self.expr('bool', scope, 3)}) {{ {body} }}"
        if 0.8 <= roll < 0.85:
            return self.counted_loop(scope)
        if roll < 0.95:
            return f"return {self.expr(rng.choice(('int', 'bool', 'str')), scope, 3)};"
        return f'throw "t{rng.randint(0, 2)}";'

    def counted_loop(self, scope: dict) -> str:
        """A loop of the shape that jumps (see ``analysis.Jump``): i moves
        by a fixed δ and s sums an affine e, from values that leave the
        loop within a few passes, or never."""
        rng = self.rng
        op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        cond = f"i {op} n" if rng.random() < 0.7 else f"not (i {op} n)"
        delta = rng.choice([-3, -1, 0, 1, 2])
        step = f"i = i - {-delta};" if delta < 0 else f"i = i + {delta};"
        e = rng.choice(["i", "n", "(2 * i)", "(n - i)", "3"])
        # n lies about up to three of i's steps away, for a few passes at most
        i = rng.randint(-4, 4)
        n = i + delta * rng.randint(0, 3) + rng.choice([-1, 0, 0, 1])
        scope.update(i="int", n="int", s="int")
        loop = (f"let i = {i}; let n = {n}; let s = {self.expr('int', scope, 1)};"
                f" while ({cond}) {{ s = s {rng.choice('+-')} {e}; {step} }}")
        return loop + " return s;" if rng.random() < 0.5 else loop

    def expr(self, kind: str, scope: dict, depth: int) -> str:
        rng = self.rng
        if rng.random() < 0.05:
            kind = rng.choice(("int", "bool", "str"))  # sometimes the wrong kind
        names = [n for n, k in scope.items() if k == kind]
        if depth == 0 or rng.random() < 0.3:
            if names and rng.random() < 0.6:
                return rng.choice(names)
            if kind == "int":
                return str(rng.choice([0, 1, 2, 3, 7, 100, 2**53 + 1]))
            if kind == "bool":
                return rng.choice(["true", "false"])
            return rng.choice(['""', '"a"', '"ab"', '"ba"'])
        sub = lambda k: self.expr(k, scope, depth - 1)
        roll = rng.random()
        if roll < 0.1:
            calls = [i for i, _ in enumerate(self.signatures)]
            i = rng.choice(calls)
            args = ", ".join(sub(k) for k in self.signatures[i])
            return f"f{i}({args})"
        # one side of * and of str + is a literal: a loop that squares a
        # value or doubles a string would outgrow memory within the limit
        if kind == "int":
            if roll < 0.45:
                return f"({sub('int')} {rng.choice('+-/')} {sub('int')})"
            if roll < 0.6:
                return f"({sub('int')} * {rng.choice([-2, 0, 3, 10])})"
            if roll < 0.8:
                return f"(-{sub('int')})"
            return f"len({sub('str')})"
        if kind == "bool":
            if roll < 0.5:
                op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
                operand = rng.choice(("int", "int", "bool", "str"))
                return f"({sub(operand)} {op} {sub(operand)})"
            if roll < 0.8:
                return f"({sub('bool')} {rng.choice(['and', 'or'])} {sub('bool')})"
            return f"(not {sub('bool')})"
        if roll < 0.6:
            return "(" + sub("str") + " + " + rng.choice(['""', '"a"', '"ba"']) + ")"
        return f"{sub('str')}[{sub('int')}]"


def _arguments(rng: random.Random, kinds) -> tuple:
    pools = {"int": [0, 1, 2, -3, 5, 2**60], "bool": [True, False], "str": ["", "a", "ab", "xyz"]}
    return tuple(rng.choice(pools[kind]) for kind in kinds)


def _generated_program_runs_as_the_tree_walker_does(seed: int) -> None:
    rng = random.Random(seed)
    writer = _ProgramWriter(rng)
    program = parse(writer.program())
    mutants = mutants_of(program)
    for _ in range(3):
        i = rng.randrange(len(writer.signatures))
        # a root that recurses redoes each alternative, a run as long as the
        # limit allows, at each of its evaluations: keep the limits small
        config = InterpConfig(step_limit=rng.choice(STEP_LIMITS[:-2]))
        _assert_same_runs(program, f"f{i}", _arguments(rng, writer.signatures[i]), config,
                          rng.sample(mutants, min(8, len(mutants))))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_programs_run_as_the_tree_walker_does(seed):
    _generated_program_runs_as_the_tree_walker_does(seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_programs_run_as_the_tree_walker_does_with_every_loop_checked(seed):
    with _every_loop_checked():
        _generated_program_runs_as_the_tree_walker_does(seed)


def test_a_branch_evaluated_in_and_below_the_entry_frame_keeps_both_minima():
    # no corpus call evaluates one branch at both depths
    program = parse("fn f(n:int){ if (n > 0) { return f(n - 1); } return 0; }")
    result = execute(program, "f", (3,))
    # n = 3 in the entry frame; n = 2, 1 and 0 below it
    assert result.branch_best == {0: [0.0, 0.0]}
    assert result.branch_best_direct == {0: [0.0, 3.0]}
    assert result == treewalk.execute(program, "f", (3,))


# --- variables, hooks and the compiled-code cache -------------------------------------


def test_an_unbound_variable_is_a_type_error_where_it_is_read():
    source = "fn f(x:int){ if (x > 0) { let y = 1; } return y; }"
    assert execute(parse(source), "f", (1,)).outcome == Returned(1)
    result = execute(parse(source), "f", (0,))
    assert result == treewalk.execute(parse(source), "f", (0,))
    assert result.outcome.record.kind == "TypeError"


def test_a_deleted_assignment_skips_its_statement_and_its_step():
    program = parse("fn f(x:int){ let y = 1; y = x + 1; return y; }")
    deletion = next(m for m in generate_mutants(program) if m.operator == "delete-assignment")
    base = execute(program, "f", (5,))
    killed = execute(deletion.mutated_program, "f", (5,))
    assert (base.outcome, killed.outcome) == (Returned(6), Returned(1))
    assert base.steps - killed.steps == 4  # the statement, +, x and 1


def test_compiled_code_is_shared_by_equal_programs_and_by_mutants():
    source = "fn f(x:int){ if (x > 1) { return x - 1; } return x; }"
    first, second = parse(source), parse(source)
    execute(first, "f", (1,))
    execute(second, "f", (1,))
    mutant = generate_mutants(first)[0]
    execute(mutant.mutated_program, "f", (1,))
    assert first._compiled[0] is second._compiled[0] is mutant.mutated_program._compiled[0]


def test_a_mutant_of_a_mutant_keeps_both_changes():
    program = parse("fn f(x:int){ let y = x + 1; if (y > 3) { return y * 2; } return y - 1; }")
    for first in generate_mutants(program)[::3]:
        for second in generate_mutants(first.mutated_program)[::4]:
            for x in (-2, 2, 3, 7):
                ours = execute(second.mutated_program, "f", (x,))
                theirs = treewalk.execute(second.mutated_program, "f", (x,))
                assert (ours.outcome, ours.steps) == (theirs.outcome, theirs.steps)


def test_nothing_compiles_before_the_first_run_and_a_copy_compiles_its_own(monkeypatch):
    monkeypatch.setattr(interpreter, "_MODULES", {})  # no module of the text has run yet
    program = parse("fn f(x:int){ let y = x * 2; if (y > 3) { return y; } return 0; }")
    context = FitnessContext(program)
    assert context.mutants
    assert program._compiled is None
    assert all(m.mutated_program._compiled is None for m in context.mutants)
    first = execute(program, "f", (2,))
    assert program._compiled is not None
    copy = pickle.loads(pickle.dumps(program))
    assert copy._compiled is None
    assert execute(copy, "f", (2,)) == first


def test_schema_runs_under_different_step_limits_share_one_set_of_hooks():
    # a base program's first run with sides builds what its later ones run
    # on, under any step limit and on any call
    program = next(p for p in PROGRAMS if p.function("walk") is not None)
    mutants_of(program)
    built = []
    for args in ((2, 5), (0, 40), (3, 3)):
        for limit in (5, 10_000, 5):
            execute(program, "walk", args, InterpConfig(step_limit=limit), Sides())
            built.append(interpreter.module_of(program)._schema)
    assert built[0] is not None and all(plan is built[0] for plan in built)


def test_programs_of_one_text_share_its_mutants_and_its_schema_shape(monkeypatch):
    monkeypatch.setattr(interpreter, "_MODULES", {})
    source = "fn f(x:int){ let y = x * 2; if (y > 3) { return y; } return 0; }"
    first, second = parse(source), parse(source)
    mutants = FitnessContext(first).mutants
    assert mutants_of(second) is mutants
    assert [m.mutant_id for m in mutants] == list(range(len(mutants)))
    ours, theirs = Sides(), Sides()
    result = execute(first, "f", (2,), InterpConfig(), ours)
    assert execute(second, "f", (2,), InterpConfig(), theirs) == result
    module = interpreter.module_of(first)
    assert interpreter.module_of(second) is module
    assert module.schema()[0] is interpreter.module_of(second).schema()[0]
    assert (ours.evals, ours.infected, ours.drifted) == (
        theirs.evals, theirs.infected, theirs.drifted)
    assert ours.evals and ours.infected
    # a copy drops its plan, and finds the same module and list again
    copy = pickle.loads(pickle.dumps(first))
    assert copy._compiled is None
    assert mutants_of(copy) is mutants
    assert execute(copy, "f", (2,), InterpConfig(), Sides()) == result


def test_a_parsed_program_is_freed_as_soon_as_its_caller_drops_it(monkeypatch):
    # the module keeps a copy of the program of its own, so no program a
    # caller parses is part of a reference cycle, and no collection is needed
    monkeypatch.setattr(interpreter, "_MODULES", {})
    source = next(CORPUS.glob("p05_*/fixed.minij")).read_text()
    test = TestCase(calls=(CallStmt("terrain", (78, 84)), CallStmt("plateau", (430, 7))))

    def programs_alive() -> list:
        return [id(o) for o in gc.get_objects() if type(o) is Program]

    gc.collect()
    gc.disable()
    try:
        alive = []
        for _ in range(3):
            program = parse(source)
            context = FitnessContext(program)
            assert context.fold((test,))[0]
            caller = id(program)
            del program, context
            found = programs_alive()
            assert caller not in found
            alive.append(len(found))
    finally:
        gc.enable()
    assert alive[0] == alive[1] == alive[2]


def test_a_mutated_program_has_no_mutants_of_its_own():
    mutant = mutants_of(parse("fn f(x:int){ return x + 1; }"))[0]
    with pytest.raises(ValueError):
        mutants_of(mutant.mutated_program)


def test_generating_mutants_imports_neither_the_analysis_nor_the_code_generator():
    # a fresh process, since this one has imported both: finding a text's
    # module for its mutants compiles nothing
    script = ("import sys; from affsgen.harness import load_corpus; "
              "from affsgen.mutation import mutants_of; "
              f"assert all(mutants_of(p.fixed_program) for p in load_corpus({str(CORPUS)!r})); "
              "print(*sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(CORPUS.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    imported = done.stdout.split()
    assert "affsgen.minilang.interpreter" in imported
    assert "affsgen.minilang.analysis" not in imported
    assert "affsgen.minilang.codegen" not in imported


def test_no_corpus_program_or_alternative_checks_a_kind_at_run_time():
    # every variable and return of the corpus has one proven kind, so its
    # code calls no type(): a check left in means the analysis fell back to
    # an unknown kind, and costs time on every pass of a loop
    for program in PROGRAMS:
        analysis = Analysis(program)
        assert "type(" not in codegen.program_source(program, "I", analysis)[0]
        sites = tuple({m.mutated_program.root_id: 0 for m in mutants_of(program)})
        schema = codegen.program_source(program, "Q", analysis, sites)[0]
        # a redo compares its value's type with the root's, which is no kind check
        assert "type(" not in schema.replace("type(w) is not type(", "")
        source, roots = codegen.program_source(program, "K", analysis)
        assert "type(" not in source, program.source_id
        for mutant in mutants_of(program):
            mutated = mutant.mutated_program
            if mutated.alt_root is not None:
                source = codegen.root_source("A", roots[mutated.root_id], mutated.alt_root,
                                             program, analysis)
                assert "type(" not in source, (program.source_id, mutant.operator)


def test_a_400_digit_literal_compares_exactly():
    literal = int("1" * 400)
    program = parse("fn f(x:int){ if (x < 3) { return 1; }"
                    f" if (x > {literal}) {{ return 2; }} return 0; }}")
    analysis, mutants = Analysis(program), mutants_of(program)
    sites = tuple({m.mutated_program.root_id: 0 for m in mutants})
    lean, roots = codegen.program_source(program, "K", analysis)
    shapes = [lean, codegen.program_source(program, "I", analysis)[0],
              codegen.program_source(program, "Q", analysis, sites)[0]]
    shapes += [codegen.root_source("A", roots[m.mutated_program.root_id],
                                   m.mutated_program.alt_root, program, analysis)
               for m in mutants]
    assert not any("float(" in source for source in shapes)
    for x, returned in ((10**400, 2), (literal + 1, 2), (literal, 0)):
        assert execute(program, "f", (x,)).outcome == Returned(returned)
        assert execute(program, "f", (x,), InterpConfig(), Sides()).outcome == Returned(returned)
    # kill runs, among them those of x > literal + 1 and x > literal - 1
    for mutant in mutants:
        for x in (10**400, literal + 1, literal, literal - 1):
            killed = execute(mutant.mutated_program, "f", (x,))
            assert killed.outcome == treewalk.execute(mutant.mutated_program, "f", (x,)).outcome
    # the literal's own mutants: x > literal + 1 and x > literal - 1
    moved = [m.mutated_program for m in mutants
             if str(literal) not in to_source(m.mutated_program)]
    returns = sorted(tuple(execute(mutated, "f", (x,)).outcome.value
                           for x in (10**400, literal, literal + 1)) for mutated in moved)
    assert returns == [(2, 0, 0), (2, 2, 2)]


# --- CPython's limits and the stack --------------------------------------------------


def _chain() -> str:
    """A right-nested and/or chain MAX_EXPR_DEPTH high. Its leaves are
    comparisons, a bool parameter and calls, whose kind the generated code
    does not know: as far as the analysis can tell, ``h`` may return an int.
    With ``p`` true it holds for x >= 1."""
    leaves = ("(x > 0)", "p", "h(x)")
    chain = "(x > 0)"
    for i in range(MAX_EXPR_DEPTH - 2):
        chain = f"({leaves[i % 3]} {'and' if i % 2 else 'or'} {chain})"
    return chain


_RECURSE = "return g(x - 1, p) + 1;"
# statements whose root is the chain, the recursion after or inside them
_BOTTOMS = {
    "if": "if ({chain}) { " + _RECURSE + " }",
    "while": "while ({chain}) { " + _RECURSE + " }",
    "let": "let z = {chain}; " + _RECURSE,
    "assign": "y = {chain}; " + _RECURSE,
    "return": "return {chain};",
}


def _deepest_program(block: str = "while", bottom: str = "if") -> str:
    """A ``bottom`` statement (see ``_BOTTOMS``) as deep as the parser
    admits, inside ``block`` statements: whiles, ifs, or a mix of both."""
    body = _BOTTOMS[bottom].replace("{chain}", _chain())
    # the function body is the first block; an if or while at the bottom holds one more
    for i in range(MAX_BLOCK_DEPTH - (2 if bottom in ("if", "while") else 1)):
        kind = ("while", "if")[i % 2] if block == "mix" else block
        body = f"{kind} (x > 0) {{ {body} }}"
    return ("fn h(x:int){ let r = 0; r = x > 0; return r; }"
            f"fn g(x:int, p:bool){{ let y = false; {body} return 0; }}"
            "fn f(x:int, p:bool){ return g(x, p); }")


@pytest.mark.parametrize("block", ["while", "if", "mix"])
def test_generated_code_compiles_and_runs_at_both_parser_caps(block):
    for bottom in _BOTTOMS:
        program = parse(_deepest_program(block, bottom))
        for args, steps in [((3, True), 10_000), ((10, False), 10_000),
                            ((MAX_CALL_DEPTH, True), 200)]:
            config = InterpConfig(step_limit=steps)
            assert (execute(program, "f", args, config)
                    == treewalk.execute(program, "f", args, config)), bottom
        # every alternative of the chain, each compiled as a function of its own.
        # The tree walker stacks too many Python frames at these caps to redo
        # the recursion's mutants too: its schema runs redo the chain alone,
        # which a module of their own lists alone
        with mock.patch.object(interpreter, "_MODULES", {}):
            program = parse(_deepest_program(block, bottom))
            mutants = mutants_of(program)
            chain = max((m.root for m in mutants), key=lambda r: len(list(walk_expressions(r))))
            mutants = interpreter.module_of(program).mutants = [
                m for m in mutants if m.root.node_id == chain.node_id]
            assert len(mutants) > 100
            for args in [(1, True), (2, False)]:
                _assert_same_runs(program, "f", args, InterpConfig(step_limit=2_000), mutants)
    # recursed down to x == 0
    assert execute(parse(_deepest_program(block)), "f", (10, True)).outcome == Returned(10)


@pytest.mark.parametrize("block", ["while", "if"])
def test_recursion_at_the_call_depth_cap_stops_at_the_step_limit_from_deep_python_frames(block):
    assert sys.getrecursionlimit() >= 1000
    config = InterpConfig(step_limit=10**7)
    program = parse(_deepest_program(block))
    # the recursion's root (its only arithmetic), hooked at every level
    mutants = [m for m in mutants_of(program) if m.operator.startswith("aor")]
    # compiled first, from a shallow depth, as an experiment does: compiling
    # this program stacks a few hundred Python frames (see ``MAX_CALL_DEPTH``)
    precompile(program)

    def from_depth(frames, run):
        return run() if frames == 0 else from_depth(frames - 1, run)

    expected = Raised(ExceptionRecord("StepLimitExceeded", "g"))
    for run in (lambda: execute(program, "f", (10**6, True), config),
                lambda: execute(program, "f", (10**6, True), config, Sides()),
                lambda: execute(mutants[-1].mutated_program, "f", (10**6, True), config)):
        assert from_depth(700, run).outcome == expected
    assert execute(program, "f", (MAX_CALL_DEPTH - 2, True), config).outcome == Returned(
        MAX_CALL_DEPTH - 2)


@pytest.mark.parametrize("interp", [
    {"step_limit": "x"}, {"step_limit": 0}, {"step_limit": True}, {"step_limit": 2.5},
    {"step_limit": None}, {"step_limit": -1}, {"step_limit": 10.0},
])
def test_interp_config_rejects_bad_values(interp):
    with pytest.raises(ValueError):
        InterpConfig(**interp)


# --- loops cut short --------------------------------------------------------------

# how a loop's control variable i moves: stuck four ways (the last has no
# step at all), diverging, counting up to the loop's end, or counting up
# past an end that != never meets
_CONTROL_STEPS = ["i = i * 1;", "i = i / 1;", "i = i + 0;", "", "i = i - 1;", "i = i + 1;",
                  "i = i + 3;"]
# statements around the control step: accumulators outside the control slice;
# an int that becomes a bool (``x * 2`` raises then, though ``x == 1`` still
# holds); k, which the base only adds but a mutant divides by; p, which
# only a bare condition reads; w, in the slice, which takes q into it; a
# branch and a call on the control variable
_LOOP_STATEMENTS = [
    "n = n + 1;",
    's = s + "a";',
    "m = x * 2; x = true;",
    "acc = acc + k; k = k - 1;",
    "if (p) { n = n + g(i, t); } p = not p;",
    "w = q / 400; q = q + 7; if (w > 0) { n = g(w, t); }",
    "if (i > 5) { n = n - 1; }",
    "n = n + g(i, t);",
]


def _loop_program(warm_up: int, cond: str, body: str) -> str:
    """A function ``f`` whose loop ``while (cond) { body }`` comes after a
    warm-up loop of ``warm_up`` passes, about 7 steps each."""
    return ("fn g(a:int, t:str) { if (a > 3) { return len(t); } return a; }\n"
            "fn f(i:int, k:int, t:str) {\n"
            '  let n = 0; let acc = 0; let x = 1; let m = 0; let s = ""; let p = true;\n'
            "  let q = 0; let w = 0; let j = 0;\n"
            f"  while (j < {warm_up}) {{ j = j + 1; }}\n"
            f"  while ({cond}) {{ {body} }}\n"
            "  return n;\n"
            "}")


def _loop_mutants(program, mutants) -> list:
    """The mutants at the condition or in the body of ``f``'s last loop."""
    loop = [stmt for stmt in program.function("f").body if type(stmt) is While][-1]
    sites = {stmt.line_id for stmt in walk_statements([loop])}
    return [m for m in mutants if m.site in sites]


def _endless_loop(rng: random.Random) -> str:
    """A loop that runs until the step limit, ends, or raises, after a
    warm-up past ``CYCLE_CHECK_AFTER`` steps or none."""
    body = rng.sample(_LOOP_STATEMENTS, rng.randint(1, 4))
    body.insert(rng.randint(0, len(body)), rng.choice(_CONTROL_STEPS))
    cond = rng.choice(["i < 10", "i != 10", "(i < 10 and x == 1)", "(x == 1 or i < 10)",
                       "not (i >= 10)", "i - k < 10"])
    return _loop_program(rng.choice([0, 300]), cond, " ".join(body))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_endless_loops_run_as_the_tree_walker_does(seed):
    rng = random.Random(seed)
    program = parse(_endless_loop(rng))
    mutants = mutants_of(program)
    # every deletion (of the control step among them) and division (acc / k
    # among them) in the loop, and a sample of its other mutants
    looped = _loop_mutants(program, mutants)
    chosen = [m for m in looped if m.operator == DELETE_ASSIGNMENT or m.operator.endswith("/")]
    rest = [m for m in looped if m not in chosen]
    chosen += rng.sample(rest, min(6, len(rest)))
    args = (rng.choice([0, 3, 9]), rng.choice([0, 200]), rng.choice(["", "abcde"]))
    config = InterpConfig(step_limit=rng.choice([1_500, 4_000, 10_000]))
    _assert_same_runs(program, "f", args, config, chosen)


# one loop body for each part of the control state a cut relies on, after
# the warm-up loop, with the control variable stuck
_CUT_CASES = {
    # x == 1 holds for both 1 and true, which only x * 2 tells apart
    "bool-int-in-slice": ("(i < 10 and x == 1)", "i = i * 1; m = x * 2; x = true;"),
    "bool-int-outside": ("i < 10", "i = i * 1; m = x * 2; x = true;"),
    # acc / k, a mutant's, raises once k reaches 0
    "mutant-divisor": ("i < 10", "i = i + 0; acc = acc + k; k = k - 1;"),
    # p alternates, so one period is two passes, with a call in one of them
    "bare-condition": ("i < 10", "if (p) { n = n + g(i, t); } p = not p;"),
    # k falls until t[k / 100] raises, and until g(k, t) returns by another line
    "index": ("i < 10", "i = i * 1; m = t[k / 100]; k = k - 1;"),
    "call-argument": ("i < 10", "i = i * 1; n = g(k, t); k = k - 1;"),
    # w stays 0 until q reaches 400; only the closure puts q in the slice
    "closure": ("i != 10", "i = i / 1; w = q / 400; q = q + 7; if (w > 0) { n = g(w, t); }"),
    # loops that never repeat a state, and jump instead (see analysis.Jump):
    # i falls forever, and i + 3 never meets 10
    "jump-diverging": ("i < 10", "n = n + 1; i = i - 1;"),
    "jump-not-divisible": ("i != 10", 's = s + "a"; acc = acc + k; i = i + 3;'),
}


@pytest.mark.parametrize("case", sorted(_CUT_CASES))
def test_loops_cut_short_run_as_the_tree_walker_does(case):
    program = parse(_loop_program(300, *_CUT_CASES[case]))
    mutants = mutants_of(program)
    args = (0, 200, "abcde")
    _assert_same_runs(program, "f", args, InterpConfig(step_limit=10_000),
                      _loop_mutants(program, mutants))
    # m only takes values, so this mutant's kill runs go through the loop as
    # the base program's do; its loop may be cut at every place within two
    # passes of the loop where a run can cross the limit
    m = next(s for s in program.function("f").body if type(s) is Let and s.name == "m")
    mutated = next(mutant.mutated_program for mutant in mutants
                   if mutant.site == m.line_id and mutant.operator == "const:+1")
    for limit in range(5_000, 5_060):
        config = InterpConfig(step_limit=limit)
        killed = execute(mutated, "f", args, config)
        walked = treewalk.execute(mutated, "f", args, config)
        assert (killed.outcome, killed.steps) == (walked.outcome, walked.steps)


def test_a_loop_whose_control_state_repeats_is_cut_at_any_step_limit():
    source = ('fn f(i:int) { let n = 0; let s = ""; '
              'while (i < 10) { n = n + 1; s = s + "a"; i = i + 1; } return n; }')
    program = parse(source)
    deletion = next(m for m in generate_mutants(program) if m.operator == DELETE_ASSIGNMENT
                    and m.site == 5)
    limit = 10**12  # far more steps than a run could take one at a time
    config = InterpConfig(step_limit=limit)
    expected = Raised(ExceptionRecord("StepLimitExceeded", "f"))
    killed = execute(deletion.mutated_program, "f", (0,), config)
    assert (killed.outcome, killed.steps) == (expected, limit + 1)
    assert execute(program, "f", (0,), config).outcome == Returned(10)


# --- loops that jump to the step limit -----------------------------------------------

# loops whose kill runs may jump (see analysis.Jump), with calls that leave
# the loop and calls that run until the step limit. The first statement of
# each program's f has mutants that run the loop as it is
_JUMPS = {
    # i != n holds until i meets n when 3 divides n - i, and forever
    # otherwise; i == n, a mutant's, holds for one pass at most
    "not-equal": ("fn f(i:int, n:int){ let s = 0; while (i != n) { s = s + i; i = i + 3; }"
                  " return s; }", [(0, 30), (1, 30), (40, 31), (30, 30)]),
    # an ordered comparison under a not, with a loop-invariant step d that
    # is not a constant, and none when d is 0; the loop ends g, which
    # returns to f without a step of its own
    "ordered": ('fn g(i:int, n:int, d:int){ let s = ""; while (not (2 * i >= n + 1))'
                ' { s = s + "a"; i = i + d; } }'
                "fn f(i:int, n:int, d:int){ let m = 0; let r = g(i, n, d); return r + m; }",
                [(0, 40, 1), (0, 40, 0), (5, 40, -2)]),
    # ints compare exactly where floats cannot tell them apart: i passes
    # n = 2**53 from 2**53 - 99 and meets it from 2**53 - 100
    "near-2**53": ("fn f(i:int, n:int){ let m = 0; while (i != n) { i = i + 2; }"
                   " return i + m; }",
                   [(2**53 - 99, 2**53), (2**53 - 100, 2**53), (-2**53 + 1, -2**53 + 41)]),
    # operands that start beyond 2**53, where no float holds them exactly
    "beyond-2**53": ("fn f(i:int, n:int){ let m = 0; while (i != n) { i = i + 3; }"
                     " return i + m; }",
                     [(2**70, 2**70 + 30), (2**70 + 1, 2**70 + 30), (-2**70 - 30, -2**70)]),
    # p06's countdown: every call but 99 runs to the limit, some with
    # k != 1, k != -1, k < 0 or k <= 0 pending to the end of their schema
    # runs; from 4, k / 3 agrees with k - 3 on the first pass
    "countdown": ("fn f(k:int){ let m = 0; while (k != 0) { k = k - 3; } return k + m; }",
                  [(1,), (2,), (4,), (5,), (-7,), (100,), (99,)]),
    # p11's walk: p is moved by i, not by a fixed amount, so the alternatives
    # at p = p + i have no closed form, and keep a schema run from jumping
    # while they are pending: to the limit when d is 0, past the second
    # pass from (3, 10**6, 1)
    "accumulator": ("fn f(p:int, n:int, d:int){ let m = 0; let i = 0;"
                    " while (i < n) { p = p + i; i = i + d; } return p + m; }",
                    [(0, 40, 1), (0, 40, 0), (3, 10**6, 1)]),
    # q is moved by i and r by q, so neither by a fixed amount: from i = 0, q
    # is 0 on the first two passes and moves on the third, where r - q and
    # the other alternatives at r = r + q are infected
    "second-order": ("fn f(n:int, d:int){ let m = 0; let q = 0; let r = 0; let i = 0;"
                     " while (i < n) { r = r + q; q = q + i; i = i + d; } return r + m; }",
                     [(10**6, 1), (10**6, 0), (30, 1)]),
    # k = k + d with d 0 keeps k - d, k * d and the deletion pending to the
    # limit, and a raise at that root infects only the deletion, which does
    # not tick
    "pending-deletion": ("fn f(i:int, d:int){ let m = 0; let k = 0;"
                         " while (i != 1) { k = k + d; i = i + 2; } return i + k + m; }",
                         [(0, 0), (0, 1), (1, 0)]),
    # loops that leave within the limit, and jump to the pass they leave on.
    # p06's sum_up: t sums i; from n = 0 the condition fails before the first
    # pass, and from 1, 2 and 3 the loop leaves 0, 1 and 2 passes past the
    # head of its second, where traced and schema runs jump
    "exit-sum-up": ("fn f(n:int){ let m = 0; let t = 0; let i = 1;"
                    " while (i <= n) { t = t + i; i = i + 1; } return t + m; }",
                    [(0,), (1,), (2,), (3,), (40,), (-5,)]),
    # i == n holds for one pass at most when d moves i, and to the limit when
    # it does not; s sums the invariant n and i, which moves before it
    "exit-equal": ("fn f(i:int, n:int, d:int){ let m = 0; let s = 0;"
                   " while (i == n) { i = i + d; s = s + (n - i); } return s + m; }",
                   [(3, 3, 1), (3, 3, 0), (2, 3, 1), (3, 3, -2)]),
    # a negative δ under a not, and a sum that falls by 2 * i; from 41 the
    # last pass takes i to -1
    "exit-falling": ("fn f(i:int, n:int){ let m = 0; let s = 0;"
                     " while (not (i <= n)) { s = s - 2 * i; i = i - 2; } return s + m; }",
                     [(40, 0), (41, 0), (0, 5), (7, 6), (-3, -30)]),
}


@pytest.mark.parametrize("case", sorted(_JUMPS))
def test_loops_that_jump_run_as_the_tree_walker_does_at_consecutive_limits(case):
    source, calls = _JUMPS[case]
    program = parse(source)
    # the loop's mutants, among them some that make the step zero or flip
    # its sign, and those of f's first statement
    loop = next(stmt for fn in program.functions for stmt in fn.body if type(stmt) is While)
    sites = {stmt.line_id for stmt in walk_statements([loop])}
    sites.add(program.function("f").body[0].line_id)
    mutants = [m for m in mutants_of(program) if m.site in sites]
    for args in calls:
        _assert_same_runs(program, "f", args, InterpConfig(step_limit=600), mutants)
        # traced and schema runs, which jump from the loop's second pass on,
        # at every limit of the first passes, and within two passes of where
        # the run leaves the loop, or of the limit of 600 where it does not
        walked = treewalk.execute(program, "f", args, InterpConfig(step_limit=600))
        end = walked.steps if type(walked.outcome) is Returned else 600
        for limit in [*range(1, 40), *range(max(40, end - 30), end + 3)]:
            config = InterpConfig(step_limit=limit)
            _assert_same_traced(execute(program, "f", args, config),
                                treewalk.execute(program, "f", args, config))
            _schema_run(program, "f", args, config)
        for mutant in mutants:
            # every limit within two passes of where the run leaves the
            # loop, or of the limit of 600 where it does not
            walked = treewalk.execute(mutant.mutated_program, "f", args,
                                      InterpConfig(step_limit=600))
            end = walked.steps if type(walked.outcome) is Returned else 600
            for limit in range(max(1, end - 30), end + 3):
                config = InterpConfig(step_limit=limit)
                killed = execute(mutant.mutated_program, "f", args, config)
                walked = treewalk.execute(mutant.mutated_program, "f", args, config)
                assert (killed.outcome, killed.steps) == (walked.outcome, walked.steps), (
                    mutant.operator, args, limit)


def test_a_loop_that_never_repeats_a_state_jumps_to_any_step_limit():
    program = parse("fn f(i:int) { let n = 0; while (i < 10) { n = n + 1; i = i + 1; }"
                    " return n; }")
    step = program.function("f").body[1].body[1]
    # i falls on every pass, so no cycle check can cut the loop
    falling = next(m for m in generate_mutants(program)
                   if m.site == step.line_id and m.operator == "aor:+->-")
    limit = 10**12  # far more steps than a run could take one at a time
    config = InterpConfig(step_limit=limit)
    killed = execute(falling.mutated_program, "f", (0,), config)
    assert (killed.outcome, killed.steps) == (Raised(ExceptionRecord("StepLimitExceeded", "f")),
                                              limit + 1)
    assert execute(program, "f", (0,), config).outcome == Returned(10)


def test_a_loop_stepped_by_a_length_runs_as_the_tree_walker_does():
    # i moves by len(s), loop-invariant but not an affine int expression, so
    # the loop has no jump; the empty s never moves it
    program = parse("fn f(i:int, s:str){ let m = 0; while (i < 10) { i = i + len(s); }"
                    " return i + m; }")
    for args in ((0, "ab"), (0, "")):
        _assert_same_runs(program, "f", args, InterpConfig(step_limit=600), mutants_of(program))


def _countdown():
    """A fresh copy of p06's fixed program, with its mutants, and its
    countdown loop: ``while (k != 0) { k = k - 3; }``."""
    program = parse(next(CORPUS.glob("p06_*/fixed.minij")).read_text())
    return program, mutants_of(program), program.function("countdown").body[0]


def test_a_traced_run_jumps_to_any_step_limit():
    program, _, loop = _countdown()
    limit = 10**12  # far more steps than a run could take one at a time
    config = InterpConfig(step_limit=limit)
    # k != 0 holds on every pass, so its distance toward true is 0.0; toward
    # false it is |k|: 1 on the first pass from 1, and at k = -1, on the 35th
    # pass from 101
    for k in (1, 101):
        result = execute(program, "countdown", (k,), config)
        assert (result.outcome, result.steps) == (
            Raised(ExceptionRecord("StepLimitExceeded", "countdown")), limit + 1)
        assert result.lines_hit == {loop.line_id, loop.body[0].line_id}
        assert result.called_functions == {"countdown"}
        for table in (result.branch_best, result.branch_best_direct):
            assert _typed(table) == {loop.branch_id: [(float, 0.0), (int, 1)]}


def test_a_schema_run_jumps_to_any_step_limit():
    program, mutants, loop = _countdown()
    limit = 10**12  # far more steps than a run could take one at a time
    sides = Sides()
    result = execute(program, "countdown", (1,), InterpConfig(step_limit=limit), sides)
    assert (result.outcome, result.steps) == (
        Raised(ExceptionRecord("StepLimitExceeded", "countdown")), limit + 1)
    # the while statement takes the first step and each pass 7 more, so
    # 142 857 142 857 passes complete, and the next one's condition crosses
    # the limit: a raise there, which every pending alternative shares
    cond, step = loop.cond.node_id, loop.body[0].expr.node_id
    passes = 142_857_142_857
    assert sides.evals == {cond: [passes, 1], step: [passes, 0]}
    # k = 1, -2, -5, ... never meets -1, and every other alternative at the
    # loop disagrees with its root on the first or second pass
    at_loop = {m.mutant_id: m.operator for m in mutants if m.root.node_id in (cond, step)}
    assert [at_loop[key] for key in set(at_loop) - sides.infected] == ["const:-1"]
    assert sides.infected <= set(at_loop) and not sides.drifted


# p11's walk(0, 10**11) at a limit it stays within: 10**11 passes, which a
# run finishes in well under a second only by jumping to the pass it leaves
# the loop on, where pos holds 0 + 1 + ... + (10**11 - 1)
_WALK, _FAR = 10**11, InterpConfig(step_limit=10**13)
_POS = _WALK * (_WALK - 1) // 2


def _walk():
    """A fresh copy of p11's fixed program, with its mutants, and the exact
    step count of walk(0, n) for n of at least 3, which the tree walker
    finds linear in n."""
    program = parse(next(CORPUS.glob("p11_*/fixed.minij")).read_text())
    few, more = (treewalk.execute(program, "walk", (0, n)).steps for n in (10, 20))
    return program, mutants_of(program), few + (more - few) // 10 * (_WALK - 10)


def test_a_kill_run_jumps_to_the_pass_its_loop_leaves_on():
    program, mutants, steps = _walk()
    # start + start for start * start after the loop: the loop as the base has it
    mutant = next(m for m in mutants if m.site == 7 and m.operator == "aor:*->+")
    killed = execute(mutant.mutated_program, "walk", (0, _WALK), _FAR)
    assert (killed.outcome, killed.steps) == (Returned(_POS), steps)


def test_a_traced_run_jumps_to_the_pass_its_loop_leaves_on():
    program, _, steps = _walk()
    result = execute(program, "walk", (0, _WALK), _FAR)
    assert (result.outcome, result.steps) == (Returned(_POS), steps)
    assert result.lines_hit == {0, 2, 3, 4, 5, 6, 7, 9}  # all but the early return and throw
    guard, loop, landing = (stmt for stmt in program.function("walk").body
                            if type(stmt) in (If, While))
    # steps < 3 fails by steps - 2; i < steps holds on every pass but the
    # last, where it fails, and pos == 0 fails by pos
    for table in (result.branch_best, result.branch_best_direct):
        assert _typed(table) == {guard.branch_id: [(int, _WALK - 2), (float, 0.0)],
                                 loop.branch_id: [(float, 0.0), (float, 0.0)],
                                 landing.branch_id: [(int, _POS), (float, 0.0)]}


def test_a_schema_run_jumps_to_the_pass_its_loop_leaves_on():
    program, mutants, steps = _walk()
    sides = Sides()
    result = execute(program, "walk", (0, _WALK), _FAR, sides)
    assert (result.outcome, result.steps) == (Returned(_POS), steps)
    guard, loop, landing = (stmt for stmt in program.function("walk").body
                            if type(stmt) in (If, While))
    counter = program.function("walk").body[2].expr  # the 0 of let i = 0
    roots = [guard.cond, counter, loop.cond, *(stmt.expr for stmt in loop.body), landing.cond]
    assert sides.evals == dict(zip((root.node_id for root in roots), (
        [1, 0], [1, 0], [_WALK + 1, 0], [_WALK, 0], [_WALK, 0], [1, 0])))
    # the value of pos is all the rest of the walk changes: once past the
    # first two passes, no infection depends on how far it goes
    walked = Sides()
    treewalk.execute(program, "walk", (0, 100), _FAR, walked)
    assert sides.infected == walked.infected and not sides.drifted
    assert len(sides.infected) < len(mutants)


def test_a_deletion_jumps_a_loop_whose_base_version_cannot():
    # the call keeps the base loop from jumping; deleting its assignment
    # leaves i = i - 1, which passes i < n on every pass
    program = parse("fn g(x:int){ return x; }"
                    "fn f(i:int, n:int){ let s = 0; while (i < n) { s = g(i); i = i - 1; }"
                    " return s; }")
    loop = program.function("f").body[1]
    deletion = next(m.mutated_program for m in mutants_of(program)
                    if m.site == loop.body[0].line_id and m.operator == DELETE_ASSIGNMENT)
    for run in (program, deletion):
        execute(run, "f", (0, 5))
    assert loop.branch_id not in program._compiled[2]
    assert type(deletion._compiled[2][loop.branch_id]) is Jump
    for args in ((0, 5), (5, 0)):
        for limit in range(1, 40):
            config = InterpConfig(step_limit=limit)
            killed = execute(deletion, "f", args, config)
            walked = treewalk.execute(deletion, "f", args, config)
            assert (killed.outcome, killed.steps) == (walked.outcome, walked.steps), (args, limit)
    limit = 10**12  # far more steps than a run could take one at a time
    killed = execute(deletion, "f", (0, 5), InterpConfig(step_limit=limit))
    assert (killed.outcome, killed.steps) == (Raised(ExceptionRecord("StepLimitExceeded", "f")),
                                              limit + 1)


# --- schema runs ---------------------------------------------------------------------


def _schema_run(program, entry, args, config):
    """A schema run of ``program`` and what it found, after checking both
    against the tree walker's."""
    ours, theirs = Sides(), Sides()
    result = execute(program, entry, args, config, ours)
    walked = treewalk.execute(program, entry, args, config, theirs)
    assert (result.outcome, result.steps) == (walked.outcome, walked.steps), config
    assert (ours.evals, ours.infected, ours.drifted) == (
        theirs.evals, theirs.infected, theirs.drifted), config
    return result, ours


# calls whose loop keeps alternatives pending at every pass until the step
# limit: i != steps in walk, k != -1 in countdown, i < n and i != n in sum_up
_LONG_SCHEMA_RUNS = {"walk": (5, 900), "countdown": (100,), "sum_up": (800,)}


@pytest.mark.parametrize("entry", sorted(_LONG_SCHEMA_RUNS))
def test_schema_runs_keep_alternatives_pending_for_hundreds_of_passes(entry):
    program = next(p for p in PROGRAMS if p.function(entry) is not None)
    mutants = mutants_of(program)
    # consecutive limits stop a pass before, inside and after each of its
    # roots; walk and sum_up return within the default one
    for limit in [*range(3_000, 3_014), 10_000]:
        result, sides = _schema_run(program, entry, _LONG_SCHEMA_RUNS[entry],
                                    InterpConfig(step_limit=limit))
        if limit < 10_000:
            assert result.outcome == Raised(ExceptionRecord("StepLimitExceeded", entry))
        assert max(values for values, _ in sides.evals.values()) > 250
        assert {m.mutant_id for m in mutants} - sides.infected


# a mutation site's root that raises: some mutants there raise the same
# error, some another one or none
_RAISING_ROOTS = {
    # i * 1, i / 1 and i + 0 divide by zero too; i - 1 and i + 2 index out of range
    "div-by-zero": ("fn f(s:str, i:int, y:int){ let z = len(s[i + 1]) / y; return z; }",
                    ("ab", 0, 0), "DivByZero"),
    # i / 2 and 2 - 1 are in range
    "index": ("fn f(s:str, i:int){ let c = s[i * 2]; return c; }", ("ab", 1), "IndexOutOfBounds"),
    # y - 2 divides by zero before the bool is added
    "type-error": ("fn f(x:int, y:int, b:bool){ let z = x / (y - 1) + b; return z; }",
                   (7, 2, True), "TypeError"),
    # g reaches the limit within the root's call; k - 2 divides by zero
    "limit": ("fn g(n:int){ while (n > 0) { n = n - 1; } return n; }"
              "fn f(n:int, k:int){ let z = g(n / (k - 1)); return z; }",
              (10**6, 2), "StepLimitExceeded"),
}


@pytest.mark.parametrize("case", sorted(_RAISING_ROOTS))
def test_a_schema_run_redoes_the_alternatives_of_a_root_that_raises(case):
    source, args, kind = _RAISING_ROOTS[case]
    program = parse(source)
    root = program.function("f").body[0].expr.node_id
    at_root = {m.mutant_id for m in mutants_of(program) if m.root.node_id == root}
    # small limits strike inside the root's own steps; in the limit case, the
    # larger ones strike inside its call
    for limit in [*range(1, 9), 200, 10_000]:
        result, sides = _schema_run(program, "f", args, InterpConfig(step_limit=limit))
        if limit >= 200:
            assert result.outcome.record.kind == kind
            assert sides.evals[root] == [0, 1]
            assert 0 < len(at_root - sides.infected) < len(at_root)


def test_a_schema_run_redoes_a_pending_call_and_a_pending_deletion():
    # at i = 0, s - g(i) and the deletion of its statement agree with
    # s + g(i); at i = 1 both are infected
    program = parse("fn g(a:int){ return a * 2; }"
                    "fn f(n:int){ let s = 0; let i = 0;"
                    " while (i < n) { s = s + g(i); i = i + 1; } return s; }")
    root = next(stmt.expr.node_id for stmt in walk_statements(program.function("f").body)
                if type(stmt) is Assign and stmt.name == "s")
    pending = {m.mutant_id for m in mutants_of(program)
               if m.root.node_id == root and m.operator in ("aor:+->-", DELETE_ASSIGNMENT)}
    assert len(pending) == 2
    after_first = 0
    # limits that stop the run anywhere in its first two passes, and none
    for limit in [*range(1, 60), 10_000]:
        _, sides = _schema_run(program, "f", (5,), InterpConfig(step_limit=limit))
        if sides.evals.get(root) == [1, 0]:
            assert not pending & sides.infected
            after_first += 1
    assert after_first and pending <= sides.infected


def test_a_schema_run_redoes_an_alternative_only_until_it_is_infected(monkeypatch):
    monkeypatch.setattr(interpreter, "_MODULES", {})  # a module of its own, counted below
    program = parse(next(CORPUS.glob("p11_*/fixed.minij")).read_text())
    mutants = mutants_of(program)
    precompile(program)
    # count each mutant's redos: ours through its alternative in the
    # module's schema, and the tree walker's through each mutated run it starts
    ours, theirs = collections.Counter(), collections.Counter()

    def counted(key, alternative):
        def redo(*args):
            ours[key] += 1
            return alternative(*args)
        return redo

    module = interpreter.module_of(program)
    functions, roots, redos = module.schema()
    module._schema = (functions, roots, tuple(
        [(key, alternative and counted(key, alternative), own) for key, alternative, own in redo]
        for redo in redos))
    keys = {id(m.mutated_program): m.mutant_id for m in mutants}

    class Walker(treewalk._Interp):
        def __init__(self, program, config, sides=None):
            super().__init__(program, config, sides)
            if program.base is not None:
                theirs[keys[id(program)]] += 1

    monkeypatch.setattr(treewalk, "_Interp", Walker)
    _, sides = _schema_run(program, "walk", (5, 10), InterpConfig())
    assert ours == theirs
    # the loop's condition is evaluated 11 times, and i != steps is never infected
    condition = next(stmt.cond for stmt in program.function("walk").body if type(stmt) is While)
    assert sides.evals[condition.node_id] == [11, 0]
    assert [ours[m.mutant_id] for m in mutants
            if m.root.node_id == condition.node_id and m.operator == "ror:<->!="] == [11]
    # pos = pos + i and i = i + 1 are evaluated 10 times each; once their
    # alternatives are all infected, their later evaluations redo nothing
    at = collections.defaultdict(set)
    for m in mutants:
        at[m.root.node_id].add(m.mutant_id)
    settled = [node for node, (values, _) in sides.evals.items()
               if values == 10 and at[node] <= sides.infected]
    assert len(settled) == 2
    for node in settled:
        assert max(ours[key] for key in at[node]) <= 2, node


# --- whole searches --------------------------------------------------------------------


def _searches() -> dict:
    """Small seeded searches on every corpus pair, under every goal: each
    one's ``to_json(omit_timing=True)``; none may end in an error."""
    config = EngineConfig(population_size=6, skip_iter=1, budget=Budget(generations=3))
    gen_config = GenConfig(max_calls_per_test=3, max_suite_size=5)
    outputs = {}
    for pair in load_corpus(CORPUS):
        for goal in Goal:
            for strategy in ("ucb", "sarsa"):
                result = run_search(pair.fixed_program, goal, make_strategy(strategy, goal),
                                    config, 7, gen_config)
                outputs[pair.fault_id, goal, strategy] = result.to_json(omit_timing=True)
    return outputs


def test_whole_searches_run_as_they_do_on_the_tree_walker(monkeypatch):
    # every run a search makes, traced, schema and kill runs, goes through
    # these two names; the folds above them, memos, archive and finalization,
    # then see the walker's results
    compiled = _searches()
    monkeypatch.setattr(mutation, "execute", treewalk.execute)
    monkeypatch.setattr(tracing, "execute", treewalk.execute)
    walked = _searches()
    assert compiled == walked
