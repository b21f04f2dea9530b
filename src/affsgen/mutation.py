"""First-order mutant generation and weak/strong outcome classification.

Operator table (rank order):
  0. arithmetic-operator replacement  (+ - * / each swapped for the others)
  1. relational-operator replacement  (== != < <= > >= each swapped)
  2. boolean negation of if/while conditions
  3. integer constant perturbation (+1 / -1)
  4. deletion of assignment statements

Mutants keep the base program's line, branch, and expression ids, so traces
from the base program line up with the mutated one. Classification takes
one call at a time (calls share no state) and watches the mutated site in
both runs: the mutant is infected once the site produces a different value
than the base run, and killed once any observable outcome (return values,
exception identities) differs. A test's status is the highest of its calls'.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from affsgen.minilang.interpreter import ExecutionResult, InterpConfig, execute, kind_of
from affsgen.minilang.nodes import (
    ARITHMETIC_OPS,
    Assign,
    Binary,
    BoolLit,
    Call,
    COMPARISON_OPS,
    Expr,
    FunctionDef,
    If,
    Index,
    IntLit,
    Len,
    Let,
    Program,
    Return,
    Stmt,
    StrLit,
    Throw,
    Unary,
    Var,
    While,
)
from affsgen.testmodel import TestCase, TestSuite
from affsgen.tracing import behavior_of, call_key


class MutantStatus(enum.IntEnum):
    NOT_REACHED = 0
    REACHED_NOT_INFECTED = 1
    INFECTED = 2
    KILLED = 3


@dataclass(frozen=True, slots=True)
class MutantOutcome:
    status: MutantStatus


_OUTCOMES = {status: MutantOutcome(status) for status in MutantStatus}


@dataclass(frozen=True, slots=True)
class Mutant:
    mutant_id: int
    base_program: Program
    site: int  # line id of the mutated statement
    operator: str
    mutated_program: Program
    # what to watch during classification: ("node", node_id) or ("line", line_id)
    watch: tuple[str, int]
    # constant perturbation and condition negation differ from the base value
    # on every evaluation, so any evaluation at all means infection
    always_infects_on_eval: bool = False


# --- program cloning -------------------------------------------------------

ExprTransform = Callable[[Expr, Callable[[Expr], Expr]], "Expr | None"]


def _clone_expr(expr: Expr, transform: ExprTransform | None) -> Expr:
    if transform is not None:
        replaced = transform(expr, lambda e: _clone_expr(e, transform))
        if replaced is not None:
            return replaced
    cls = type(expr)
    if cls is IntLit:
        return IntLit(expr.value, expr.node_id)
    if cls is BoolLit:
        return BoolLit(expr.value, expr.node_id)
    if cls is StrLit:
        return StrLit(expr.value, expr.node_id)
    if cls is Var:
        return Var(expr.name, expr.node_id)
    if cls is Unary:
        return Unary(expr.op, _clone_expr(expr.operand, transform), expr.node_id)
    if cls is Binary:
        return Binary(expr.op, _clone_expr(expr.lhs, transform),
                      _clone_expr(expr.rhs, transform), expr.node_id)
    if cls is Call:
        return Call(expr.name, [_clone_expr(a, transform) for a in expr.args], expr.node_id)
    if cls is Len:
        return Len(_clone_expr(expr.operand, transform), expr.node_id)
    if cls is Index:
        return Index(_clone_expr(expr.base, transform),
                     _clone_expr(expr.index, transform), expr.node_id)
    raise TypeError(f"unknown expression node {expr!r}")


def _clone_body(body: list[Stmt], transform: ExprTransform | None,
                delete_line: int) -> list[Stmt]:
    out: list[Stmt] = []
    for stmt in body:
        cls = type(stmt)
        if cls is Assign and stmt.line_id == delete_line:
            continue
        if cls is Let:
            out.append(Let(stmt.name, _clone_expr(stmt.expr, transform), stmt.line_id))
        elif cls is Assign:
            out.append(Assign(stmt.name, _clone_expr(stmt.expr, transform), stmt.line_id))
        elif cls is Return:
            out.append(Return(_clone_expr(stmt.expr, transform), stmt.line_id))
        elif cls is Throw:
            out.append(Throw(stmt.tag, stmt.line_id))
        elif cls is If:
            out.append(If(_clone_expr(stmt.cond, transform),
                          _clone_body(stmt.then_body, transform, delete_line),
                          _clone_body(stmt.else_body, transform, delete_line),
                          stmt.line_id, stmt.branch_id))
        elif cls is While:
            out.append(While(_clone_expr(stmt.cond, transform),
                             _clone_body(stmt.body, transform, delete_line),
                             stmt.line_id, stmt.branch_id))
        else:
            raise TypeError(f"unknown statement node {stmt!r}")
    return out


def _clone_program(program: Program, transform: ExprTransform | None = None,
                   delete_line: int = -1) -> Program:
    functions = [
        FunctionDef(fn.name, list(fn.params), _clone_body(fn.body, transform, delete_line))
        for fn in program.functions
    ]
    return Program(
        functions=functions,
        source_id=program.source_id,
        line_count=program.line_count,
        branch_count=program.branch_count,
        node_count=program.node_count + 1,  # headroom for one wrapper node
    )


# --- mutant generation -------------------------------------------------------


def _statement_sites(program: Program):
    """Yield (line_id, stmt) for every statement, in line order."""
    from affsgen.minilang.nodes import walk_statements

    sites = []
    for fn in program.functions:
        for stmt in walk_statements(fn.body):
            sites.append((stmt.line_id, stmt))
    sites.sort(key=lambda pair: pair[0])
    return sites


def _expr_nodes(stmt: Stmt):
    from affsgen.minilang.nodes import statement_expressions, walk_expressions

    for root in statement_expressions(stmt):
        yield from walk_expressions(root)


def _replace_op(node_id: int, new_op: str) -> ExprTransform:
    def transform(expr: Expr, clone_child):
        if isinstance(expr, Binary) and expr.node_id == node_id:
            return Binary(new_op, clone_child(expr.lhs), clone_child(expr.rhs), expr.node_id)
        return None

    return transform


def _perturb_const(node_id: int, delta: int) -> ExprTransform:
    def transform(expr: Expr, clone_child):
        if isinstance(expr, IntLit) and expr.node_id == node_id:
            return IntLit(expr.value + delta, expr.node_id)
        return None

    return transform


def _negate_condition(node_id: int, fresh_id: int) -> ExprTransform:
    def transform(expr: Expr, clone_child):
        if expr.node_id == node_id:
            inner = _clone_expr(expr, None)
            # the wrapper takes over the watched id; the original node gets a
            # fresh one so the watch sees exactly one value per evaluation
            inner.node_id = fresh_id
            return Unary("not", inner, node_id)
        return None

    return transform


def _stmt_root(stmt: Stmt) -> int:
    """The statement's root expression node; its value is what touches state.

    Infection is judged there rather than at the mutated node itself: a
    changed sub-expression only corrupts state once the difference reaches
    the value the statement actually consumes.
    """
    if isinstance(stmt, (Let, Assign, Return)):
        return stmt.expr.node_id
    if isinstance(stmt, (If, While)):
        return stmt.cond.node_id
    return -1


def generate_mutants(program: Program) -> list[Mutant]:
    """Deterministic first-order mutants, ordered by (line id, operator rank)."""
    candidates: list[tuple[int, int, int, str, ExprTransform | None, int, tuple[str, int]]] = []
    seq = 0
    for line_id, stmt in _statement_sites(program):
        root = _stmt_root(stmt)
        for expr in _expr_nodes(stmt):
            if isinstance(expr, Binary) and expr.op in ARITHMETIC_OPS:
                for op in ARITHMETIC_OPS:
                    if op != expr.op:
                        candidates.append((line_id, 0, seq, f"aor:{expr.op}->{op}",
                                           _replace_op(expr.node_id, op), -1,
                                           ("node", root)))
                        seq += 1
            elif isinstance(expr, Binary) and expr.op in COMPARISON_OPS:
                for op in COMPARISON_OPS:
                    if op != expr.op:
                        candidates.append((line_id, 1, seq, f"ror:{expr.op}->{op}",
                                           _replace_op(expr.node_id, op), -1,
                                           ("node", root)))
                        seq += 1
        if isinstance(stmt, (If, While)):
            cond_id = stmt.cond.node_id
            candidates.append((line_id, 2, seq, "negate-condition",
                               _negate_condition(cond_id, program.node_count), -1,
                               ("node", cond_id)))
            seq += 1
        for expr in _expr_nodes(stmt):
            if isinstance(expr, IntLit):
                for delta in (1, -1):
                    candidates.append((line_id, 3, seq, f"const:{delta:+d}",
                                       _perturb_const(expr.node_id, delta), -1,
                                       ("node", root)))
                    seq += 1
        if isinstance(stmt, Assign):
            candidates.append((line_id, 4, seq, "delete-assignment",
                               None, line_id, ("line", line_id)))
            seq += 1

    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    mutants = []
    for mutant_id, (line_id, rank, _, operator, transform, delete_line, watch) in enumerate(candidates):
        mutated = _clone_program(program, transform, delete_line)
        mutants.append(Mutant(
            mutant_id=mutant_id,
            base_program=program,
            site=line_id,
            operator=operator,
            mutated_program=mutated,
            watch=watch,
            # negating a condition flips its value on every evaluation
            always_infects_on_eval=rank == 2,
        ))
    return mutants


# --- classification ---------------------------------------------------------


def _value_key(value):
    return (kind_of(value), value)  # True == 1, yet they are different values


def _node_key(entry: tuple):
    """A node watch entry, ("v", value) or ("raise",), with its value's kind."""
    return ("v", _value_key(entry[1])) if entry[0] == "v" else entry


def classify_against_mutant(mutant: Mutant, function: str, args: tuple,
                            base: ExecutionResult, config: InterpConfig = InterpConfig(),
                            base_memo: dict | None = None) -> MutantOutcome:
    """Classify one call against one mutant, given the base program's result for it.

    A call that does not reach the mutated line is NOT_REACHED. Otherwise
    the mutant is run on the call: it is KILLED when its behaviour differs
    from ``base``, INFECTED when the watched site's sequence of values
    differs from the base run's, else REACHED_NOT_INFECTED. The base program
    is re-run with the watch only when that comparison needs it.
    ``base_memo`` maps (watch, ``call_key``) to the values such a run
    records; one dict shared across the mutants of ``mutant.base_program``
    (and one config) lets every mutant watching the same site reuse them.
    """
    if mutant.site not in base.lines_hit:
        return _OUTCOMES[MutantStatus.NOT_REACHED]
    kind, target = mutant.watch
    result = execute(mutant.mutated_program, function, args, config,
                     watch_node=target if kind == "node" else -1)
    if behavior_of(result) != behavior_of(base):
        return _OUTCOMES[MutantStatus.KILLED]
    if kind == "node" and not result.watch:
        # the site was never evaluated, so the two runs were identical
        return _OUTCOMES[MutantStatus.REACHED_NOT_INFECTED]
    if kind == "node" and mutant.always_infects_on_eval:
        return _OUTCOMES[MutantStatus.INFECTED]

    key = (mutant.watch, call_key(function, args))
    if base_memo is None:
        base_memo = {}
    base_values = base_memo.get(key)
    if base_values is None:
        base_values = base_memo[key] = execute(
            mutant.base_program, function, args, config,
            watch_node=target if kind == "node" else -1,
            watch_line=target if kind == "line" else -1).watch
    if kind == "line":
        # deletion: infected when the assignment ever changed the variable
        # (or its right-hand side raised, which the mutant would skip)
        infected = any(
            entry == ("raise",)
            or (entry[0] == "a" and _value_key(entry[1]) != _value_key(entry[2]))
            for entry in base_values
        )
    else:
        infected = list(map(_node_key, base_values)) != list(map(_node_key, result.watch))
    return _OUTCOMES[MutantStatus.INFECTED if infected else MutantStatus.REACHED_NOT_INFECTED]


def best_status(mutant: Mutant, tests: Iterable[TestCase],
                classify: Callable[[Mutant, TestCase], MutantStatus],
                stop: MutantStatus) -> MutantStatus:
    """Highest status the tests reach on a mutant, stopping once one reaches ``stop``."""
    best = MutantStatus.NOT_REACHED
    for test in tests:
        status = classify(mutant, test)
        if status > best:
            best = status
            if best >= stop:
                break
    return best


def mutation_score(suite: TestSuite, mutants: list[Mutant], mode: str,
                   classify: Callable[[Mutant, TestCase], MutantStatus]) -> float:
    """Percentage of mutants detected: infected-or-killed (weak) or killed (strong)."""
    if not mutants:
        raise ValueError("mutation score is undefined for an empty mutant list")
    if mode not in ("weak", "strong"):
        raise ValueError(f"unknown mutation mode {mode!r}")
    threshold = MutantStatus.INFECTED if mode == "weak" else MutantStatus.KILLED
    detected = sum(best_status(mutant, suite.tests, classify, threshold) >= threshold
                   for mutant in mutants)
    return 100.0 * detected / len(mutants)
