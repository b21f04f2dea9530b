"""First-order mutant generation and weak/strong outcome classification.

Operator table (rank order):
  0. arithmetic-operator replacement  (+ - * / each swapped for the others)
  1. relational-operator replacement  (== != < <= > >= each swapped)
  2. boolean negation of if/while conditions
  3. integer constant perturbation (+1 / -1)
  4. deletion of assignment statements

Mutants keep the base program's line, branch, and expression ids, so traces
from the base program line up with the mutated one. A mutated program
copies only the path from its function down to the swapped node and shares
every other node with the base program. It also records its base program,
the node id of the statement root it replaces and the root that replaces
it (none for a deleted assignment). That is all a mutant run needs: it runs
the base program's compiled module, whose guard at that root evaluates the
mutant's root, compiled on its own, or skips the deleted statement, tick
included (see ``interpreter``). Such a kill run reports only its outcome
and step count.

Classification takes one call at a time (calls share no state). One schema
run of the base program per call (Untch, Offutt and Harrold, ISSTA 1993)
decides infection for every mutant at once: at each evaluation of a
mutation site's statement root it redoes the root as each mutant would, in
the same state, until the mutant is infected. Its schema is the mutant list
of the program's text, kept on its compiled module (``mutants_of``), one
alternative per mutant (see ``Sides``), and the run takes the module's
schema shape, compiled from that list, which evaluates each root inline
and calls the mutants' alternatives beside it (see ``interpreter``). A
mutant is infected once a redo gives a different value or raise, and
drifted when one agrees but takes a different number of steps. A reached
mutant that is neither runs exactly as the base program does, so it is not
run. Any other mutant runs on the call at most once, when a fold needs it
(see below): it is killed when an observable outcome (return value,
exception identity) differs, and infected when a redo was, or when it
drifted and its run, which counts the evaluations of its own root,
evaluated the root a different number of times. A deleted assignment is infected when its right
side raises or changes the variable, and runs even when it is neither.
This equals comparing the sequences of root values of the two whole runs,
except when the root calls back into its own function: then each redo
runs the mutant's whole recursion, while the base's nested evaluations are
each compared on their own, so the statuses can differ.
``FitnessContext.fold`` folds a suite's calls test by test for many
mutants at once, as bit masks over the mutant list, in the manner of the
mutant-by-test kill matrix of Ammann, Delamaro and Offutt (ICST 2014): each
distinct call keeps the masks of the mutants its base run reaches, its
schema run shows infected, and its mutant runs infected or killed, so the
fold calls ``classify_against_mutant`` only for a mutant that must run. A
fold that stops at INFECTED, as weak-mutation scoring does (Howden, TSE
1982), needs no run of a mutant the schema run shows infected, so that run
waits for the first fold that asks whether the call kills it; a drifted
mutant or a deleted assignment runs on the first fold that reaches the
call while it still wants the mutant.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from affsgen.minilang.interpreter import ExecutionResult, InterpConfig, Sides, execute, module_of
from affsgen.minilang.nodes import (
    ARITHMETIC_OPS,
    Assign,
    Binary,
    Call,
    COMPARISON_OPS,
    Expr,
    FunctionDef,
    If,
    Index,
    IntLit,
    Len,
    Program,
    Stmt,
    Throw,
    Unary,
    Var,
    While,
    walk_expressions,
    walk_statements,
)
from affsgen.tracing import behavior_of


class MutantStatus(enum.IntEnum):
    NOT_REACHED = 0
    REACHED_NOT_INFECTED = 1
    INFECTED = 2
    KILLED = 3


@dataclass(frozen=True, slots=True)
class MutantOutcome:
    status: MutantStatus


_OUTCOMES = {status: MutantOutcome(status) for status in MutantStatus}

DELETE_ASSIGNMENT = "delete-assignment"


@dataclass(frozen=True, slots=True)
class Mutant:
    mutant_id: int
    base_program: Program
    site: int  # line id of the mutated statement
    operator: str
    mutated_program: Program
    # what the mutant evaluates where the base evaluates the site's root
    # expression, under the same node id: the mutated root or, for a deleted
    # assignment, a read of the variable, which keeps its old value
    root: Expr


# --- mutant generation -------------------------------------------------------


def _swap_expr(expr: Expr, target: Expr, new: Expr) -> Expr:
    """``expr`` with ``target`` replaced by ``new``, copying only the nodes
    above it; ``expr`` itself when ``target`` is not below it."""
    if expr is target:
        return new
    cls = type(expr)
    if cls is Binary:
        lhs, rhs = _swap_expr(expr.lhs, target, new), _swap_expr(expr.rhs, target, new)
        if lhs is not expr.lhs or rhs is not expr.rhs:
            return Binary(expr.op, lhs, rhs, expr.node_id)
    elif cls is Unary or cls is Len:
        operand = _swap_expr(expr.operand, target, new)
        if operand is not expr.operand:
            return Unary(expr.op, operand, expr.node_id) if cls is Unary else Len(operand, expr.node_id)
    elif cls is Index:
        base, index = _swap_expr(expr.base, target, new), _swap_expr(expr.index, target, new)
        if base is not expr.base or index is not expr.index:
            return Index(base, index, expr.node_id)
    elif cls is Call:
        args = [_swap_expr(arg, target, new) for arg in expr.args]
        if any(a is not b for a, b in zip(args, expr.args)):
            return Call(expr.name, args, expr.node_id)
    return expr


def _swap_body(body: list[Stmt], target: Stmt, new: Stmt | None) -> list[Stmt]:
    """``body`` with ``target`` replaced by ``new``, or dropped when None,
    copying only the statements and bodies on the path down to it; ``body``
    itself when ``target`` is not in it."""
    for i, stmt in enumerate(body):
        if stmt is target:
            swapped = [] if new is None else [new]
        elif type(stmt) is If:
            then_body = _swap_body(stmt.then_body, target, new)
            else_body = _swap_body(stmt.else_body, target, new)
            if then_body is stmt.then_body and else_body is stmt.else_body:
                continue
            swapped = [If(stmt.cond, then_body, else_body, stmt.line_id, stmt.branch_id)]
        elif type(stmt) is While:
            inner = _swap_body(stmt.body, target, new)
            if inner is stmt.body:
                continue
            swapped = [While(stmt.cond, inner, stmt.line_id, stmt.branch_id)]
        else:
            continue
        return body[:i] + swapped + body[i + 1:]
    return body


def _swap(program: Program, target: Stmt, new: Stmt | None, root_id: int,
          alt_root: Expr | None) -> Program:
    """``program`` with one statement replaced or deleted, sharing every
    function, statement and expression off the path down to it. The result
    records the base program, the node id of the replaced statement's root
    and the root that replaces it (None for a deletion)."""
    functions = []
    for fn in program.functions:
        body = _swap_body(fn.body, target, new)
        functions.append(fn if body is fn.body else FunctionDef(fn.name, fn.params, body))
    return Program(
        functions=functions,
        source_id=program.source_id,
        line_count=program.line_count,
        branch_count=program.branch_count,
        node_count=program.node_count + 1,  # the negated condition's fresh id
        base=program,
        root_id=root_id,
        alt_root=alt_root,
    )


def generate_mutants(program: Program) -> list[Mutant]:
    """Deterministic first-order mutants, ordered by (line id, operator rank)."""
    statements = sorted((stmt for fn in program.functions for stmt in walk_statements(fn.body)),
                        key=lambda stmt: stmt.line_id)
    candidates: list[tuple[int, int, int, str, Expr, Program]] = []
    for stmt in statements:
        line_id = stmt.line_id
        if type(stmt) is Throw:
            continue
        attr = "cond" if type(stmt) in (If, While) else "expr"
        base_root = getattr(stmt, attr)

        def add(rank: int, operator: str, root: Expr, mutated: Program | None = None) -> None:
            if mutated is None:
                mutated = _swap(program, stmt, dataclasses.replace(stmt, **{attr: root}),
                                base_root.node_id, root)
            candidates.append((line_id, rank, len(candidates), operator, root, mutated))

        nodes = list(walk_expressions(base_root))
        for expr in nodes:
            if type(expr) is Binary and expr.op in ARITHMETIC_OPS:
                rank, ops, label = 0, ARITHMETIC_OPS, "aor"
            elif type(expr) is Binary and expr.op in COMPARISON_OPS:
                rank, ops, label = 1, COMPARISON_OPS, "ror"
            else:
                continue
            for op in ops:
                if op != expr.op:
                    add(rank, f"{label}:{expr.op}->{op}",
                        _swap_expr(base_root, expr, Binary(op, expr.lhs, expr.rhs, expr.node_id)))
        if type(stmt) in (If, While):
            # the negation takes over the condition's id, so the site's root
            # keeps it; the condition moves to a fresh one
            inner = dataclasses.replace(base_root, node_id=program.node_count)
            add(2, "negate-condition", Unary("not", inner, base_root.node_id))
        for expr in nodes:
            if type(expr) is IntLit:
                for delta in (1, -1):
                    add(3, f"const:{delta:+d}",
                        _swap_expr(base_root, expr, IntLit(expr.value + delta, expr.node_id)))
        if type(stmt) is Assign:
            add(4, DELETE_ASSIGNMENT, Var(stmt.name, base_root.node_id),
                _swap(program, stmt, None, base_root.node_id, None))

    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    return [
        Mutant(mutant_id=mutant_id, base_program=program, site=line_id, operator=operator,
               mutated_program=mutated, root=root)
        for mutant_id, (line_id, _, _, operator, root, mutated) in enumerate(candidates)
    ]


# --- classification ---------------------------------------------------------


def mutants_of(program: Program) -> list[Mutant]:
    """The mutants of a base program's text, generated on first use from
    its compiled module's own copy (``interpreter.module_of``) and kept
    there, so every program of the text shares them and none keeps the
    caller's program. A mutant's id is its position in the list. The list is
    also the program's schema, which its runs with sides redo (see
    ``Sides``); nothing compiles here. A mutated program raises ValueError."""
    if program.base is not None:
        raise ValueError(f"{program.source_id}: a mutated program has no mutants of its own")
    module = module_of(program)
    if module.mutants is None:
        module.mutants = generate_mutants(module.program)
    return module.mutants


def schema_run(program: Program, function: str, args: tuple,
               config: InterpConfig = InterpConfig()) -> Sides:
    """Run a base program once on a call, redoing each of its mutants' roots on the side."""
    mutants_of(program)  # the schema the run redoes
    sides = Sides()
    execute(program, function, args, config, sides)
    return sides


def classify_against_mutant(mutant: Mutant, function: str, args: tuple,
                            base: ExecutionResult, config: InterpConfig,
                            schema: Sides) -> MutantOutcome:
    """Classify one call against one mutant, given the base program's result for it.

    A call that does not reach the mutated line is NOT_REACHED. Otherwise
    ``schema``, the ``schema_run`` of the call on the mutant's base
    program, tells whether the mutant is infected or drifted.
    When it is neither, the mutant would run exactly as the base does:
    REACHED_NOT_INFECTED, without a run.
    Otherwise the mutant runs once: KILLED when its behaviour differs from
    ``base``; else INFECTED when it is infected or, drifted and not a
    deletion, evaluated its root a different number of times, or raised
    there a different number of times, than the base did; else
    REACHED_NOT_INFECTED. A deleted assignment always runs. Statuses differ
    from comparing the whole runs' sequences of root values only when the
    root can call back into its own function.
    """
    if mutant.site not in base.lines_hit:
        return _OUTCOMES[MutantStatus.NOT_REACHED]
    infected = mutant.mutant_id in schema.infected
    deletion = mutant.operator == DELETE_ASSIGNMENT
    if not (infected or deletion or mutant.mutant_id in schema.drifted):
        return _OUTCOMES[MutantStatus.REACHED_NOT_INFECTED]
    root = mutant.root.node_id
    counts = None if infected or deletion else Sides()
    result = execute(mutant.mutated_program, function, args, config, counts)
    if behavior_of(result) != behavior_of(base):
        return _OUTCOMES[MutantStatus.KILLED]
    if infected or (counts is not None and counts.evals.get(root) != schema.evals.get(root)):
        return _OUTCOMES[MutantStatus.INFECTED]
    return _OUTCOMES[MutantStatus.REACHED_NOT_INFECTED]
