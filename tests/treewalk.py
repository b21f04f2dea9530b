"""The reference tree-walking interpreter of MiniJ, for differential tests.

It walks the syntax tree node by node, as ``execute`` in
``affsgen.minilang.interpreter`` is specified to behave: the same steps,
lines, best branch distances, called functions, outcomes and side
evaluations (``Sides``). A mutated program runs as the whole tree it is, not
on its base program's compiled code, and its result is as full as a base
program's. It logs every branch-predicate evaluation (see ``run``) and
folds the log into the result's two tables of best distances itself.
"""

from __future__ import annotations

from typing import NamedTuple

from affsgen.minilang.interpreter import (
    DIV_BY_ZERO,
    EXPLICIT_THROW,
    INDEX_OUT_OF_BOUNDS,
    MAX_CALL_DEPTH,
    STEP_LIMIT_EXCEEDED,
    TYPE_ERROR,
    ArityError,
    ExceptionRecord,
    ExecutionResult,
    InterpConfig,
    Outcome,
    Raised,
    Returned,
    Sides,
    UnknownFunctionError,
    Value,
    kind_of,
    module_of,
    string_eq_distance,
)
from affsgen.minilang.codegen import K
from affsgen.minilang.nodes import (
    Binary,
    BoolLit,
    Call,
    Expr,
    If,
    Index,
    IntLit,
    Len,
    Let,
    Assign,
    Program,
    Return,
    Stmt,
    StrLit,
    Throw,
    Unary,
    Var,
    While,
)

_NEGATION = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def branch_distance(op: str, l: int, r: int) -> float:
    """Distance ``>= 0`` from ``l op r`` to the predicate holding.

    Zero exactly when the predicate holds; otherwise grows with how far the
    operands are from satisfying it. Booleans should be passed as 0/1.
    """
    if op == "==":
        return abs(l - r)
    if op == "!=":
        return K if l == r else 0.0
    if op == "<":
        return l - r + K if l >= r else 0.0
    if op == "<=":
        return l - r if l > r else 0.0
    if op == ">":
        return r - l + K if r >= l else 0.0
    if op == ">=":
        return r - l if r > l else 0.0
    raise ValueError(f"not a comparison operator: {op!r}")


def _nu(x: float) -> float:
    return x / (x + 1)


class Evaluation(NamedTuple):
    """One evaluation of a branch predicate."""

    branch_id: int
    taken: bool
    distance_true: float
    distance_false: float
    direct: bool  # in the entry frame


class MiniJError(Exception):
    """In-language exception; caught at the entry boundary."""

    def __init__(self, kind: str, raising_function: str, tag: str | None = None):
        super().__init__(kind)
        self.record = ExceptionRecord(kind=kind, raising_function=raising_function, tag=tag)


class _ReturnSignal(Exception):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


def _schema(program: Program) -> dict:
    """The roots that a run of ``program`` with sides evaluates, each with
    its ``(key, mutated program, root)`` alternatives: a mutated program's
    own root, which it counts and never redoes, or the root of each mutant
    that ``mutation.mutants_of`` keeps on a base program's compiled module,
    in mutant order. A deleted assignment has no mutated program to redo."""
    if program.base is not None:
        return {program.root_id: ()}
    mutants = module_of(program).mutants
    if mutants is None:
        raise ValueError(f"{program.source_id} has no mutants; mutation.mutants_of makes them")
    roots: dict[int, list[tuple]] = {}
    for mutant in mutants:
        mutated = mutant.mutated_program
        roots.setdefault(mutated.root_id, []).append(
            (mutant.mutant_id, None if mutated.alt_root is None else mutated, mutant.root))
    return roots


class _Interp:
    __slots__ = (
        "program",
        "functions",
        "config",
        "steps",
        "lines_hit",
        "evaluations",
        "called",
        "sides",
        "roots",
    )

    def __init__(self, program: Program, config: InterpConfig, sides: Sides | None = None):
        self.program = program
        self.functions = program.fn_map()
        self.config = config
        self.steps = 0
        self.lines_hit: set[int] = set()
        self.evaluations: list[Evaluation] = []
        self.called: set[str] = set()
        self.sides = sides
        self.roots = {} if sides is None else _schema(program)

    # -- bookkeeping -------------------------------------------------------

    def _tick(self, fname: str) -> None:
        self.steps += 1
        if self.steps > self.config.step_limit:
            raise MiniJError(STEP_LIMIT_EXCEEDED, fname)

    # -- expression evaluation ----------------------------------------------

    def eval(self, node: Expr, env: dict, fname: str, depth: int) -> Value:
        if node.node_id in self.roots:
            return self._side(node, env, fname, depth, False)
        self._tick(fname)
        return self._eval_inner(node, env, fname, depth)

    def _eval_inner(self, node: Expr, env: dict, fname: str, depth: int) -> Value:
        cls = type(node)
        if cls is IntLit or cls is BoolLit or cls is StrLit:
            return node.value
        if cls is Var:
            try:
                return env[node.name]
            except KeyError:
                raise MiniJError(TYPE_ERROR, fname) from None
        if cls is Binary:
            op = node.op
            if op in ("+", "-", "*", "/"):
                return self._arith(node, env, fname, depth)
            # comparison / and / or: reuse the predicate path for the value
            value, _, _ = self._pred_inner(node, env, fname, depth)
            return value
        if cls is Unary:
            if node.op == "neg":
                v = self.eval(node.operand, env, fname, depth)
                if isinstance(v, bool) or not isinstance(v, int):
                    raise MiniJError(TYPE_ERROR, fname)
                return -v
            value, _, _ = self._pred_inner(node, env, fname, depth)
            return value
        if cls is Call:
            args = [self.eval(a, env, fname, depth) for a in node.args]
            return self._call(node.name, args, fname, depth, node.node_id)
        if cls is Len:
            v = self.eval(node.operand, env, fname, depth)
            if not isinstance(v, str):
                raise MiniJError(TYPE_ERROR, fname)
            return len(v)
        if cls is Index:
            base = self.eval(node.base, env, fname, depth)
            idx = self.eval(node.index, env, fname, depth)
            if not isinstance(base, str) or isinstance(idx, bool) or not isinstance(idx, int):
                raise MiniJError(TYPE_ERROR, fname)
            if idx < 0 or idx >= len(base):
                raise MiniJError(INDEX_OUT_OF_BOUNDS, fname)
            return base[idx]
        raise TypeError(f"unknown expression node {node!r}")

    def _arith(self, node: Binary, env: dict, fname: str, depth: int) -> Value:
        l = self.eval(node.lhs, env, fname, depth)
        r = self.eval(node.rhs, env, fname, depth)
        op = node.op
        if op == "+" and isinstance(l, str) and isinstance(r, str):
            return l + r
        if (isinstance(l, bool) or not isinstance(l, int)
                or isinstance(r, bool) or not isinstance(r, int)):
            raise MiniJError(TYPE_ERROR, fname)
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        # division truncates toward zero, like most curly-brace languages
        if r == 0:
            raise MiniJError(DIV_BY_ZERO, fname)
        q = abs(l) // abs(r)
        return q if (l >= 0) == (r >= 0) else -q

    def _call(self, name: str, args: list[Value], caller: str, depth: int, site: int) -> Value:
        if depth + 1 >= MAX_CALL_DEPTH:
            raise MiniJError(STEP_LIMIT_EXCEEDED, name)
        fn = self.functions[name]
        env: dict = {}
        for (pname, pkind), value in zip(fn.params, args):
            if kind_of(value) != pkind:
                raise MiniJError(TYPE_ERROR, caller)
            env[pname] = value
        self.called.add(name)
        try:
            self._exec_body(fn.body, env, name, depth + 1)
        except _ReturnSignal as sig:
            return sig.value
        return 0  # falling off the end yields int 0

    # -- predicate evaluation -----------------------------------------------

    def pred(self, node: Expr, env: dict, fname: str, depth: int) -> tuple[bool, float, float]:
        """Evaluate a branch predicate: (value, distance-to-true, distance-to-false)."""
        if node.node_id in self.roots:
            return self._side(node, env, fname, depth, True)
        self._tick(fname)
        return self._pred_inner(node, env, fname, depth)

    def _side(self, node: Expr, env: dict, fname: str, depth: int, as_pred: bool):
        """Evaluate a root that ``self.sides`` lists, count it, and redo its alternatives."""
        start = self.steps
        counts = self.sides.evals.setdefault(node.node_id, [0, 0])
        try:
            self._tick(fname)
            if as_pred:
                result = self._pred_inner(node, env, fname, depth)
            else:
                result = self._eval_inner(node, env, fname, depth)
        except MiniJError as err:
            counts[1] += 1
            self._redo(node, ("raise", err.record.identity), -1, env, fname, depth, as_pred,
                       start)
            raise
        counts[0] += 1
        value = result[0] if as_pred else result
        self._redo(node, (kind_of(value), value), self.steps, env, fname, depth, as_pred,
                   start)
        return result

    def _redo(self, node: Expr, seen: tuple, steps: int, env: dict, fname: str, depth: int,
              as_pred: bool, start: int) -> None:
        """Redo a root's alternatives that are not yet infected, given what the
        root gave (``seen``) and the step count after it (``steps``)."""
        sides = self.sides
        for key, program, expr in self.roots[node.node_id]:
            if key in sides.infected:
                continue
            if program is None:
                value = env[expr.name]
                if (kind_of(value), value) != seen:
                    sides.infected.add(key)
                continue
            side = _Interp(program, self.config)
            side.steps = start
            try:
                if as_pred:
                    value = side.pred(expr, env, fname, depth)[0]
                else:
                    value = side.eval(expr, env, fname, depth)
            except MiniJError as err:
                if ("raise", err.record.identity) != seen:
                    sides.infected.add(key)
                continue
            if (kind_of(value), value) != seen:
                sides.infected.add(key)
            elif side.steps != steps:
                sides.drifted.add(key)

    def _pred_inner(self, node: Expr, env: dict, fname: str, depth: int) -> tuple[bool, float, float]:
        if type(node) is Binary:
            op = node.op
            if op == "and":
                va, ta, fa = self.pred(node.lhs, env, fname, depth)
                if not va:
                    # right side not evaluated: contributes the maximal
                    # normalized distance toward true
                    return (False, _nu(ta) + 1.0, 0.0)
                vb, tb, fb = self.pred(node.rhs, env, fname, depth)
                return (vb, _nu(ta) + _nu(tb), min(fa, fb))
            if op == "or":
                va, ta, fa = self.pred(node.lhs, env, fname, depth)
                if va:
                    return (True, 0.0, _nu(fa) + 1.0)
                vb, tb, fb = self.pred(node.rhs, env, fname, depth)
                return (vb, min(ta, tb), _nu(fa) + _nu(fb))
            if op in _NEGATION:
                return self._compare(node, env, fname, depth)
        if type(node) is Unary and node.op == "not":
            v, t, f = self.pred(node.operand, env, fname, depth)
            return (not v, f, t)
        value = self._eval_inner(node, env, fname, depth)
        if not isinstance(value, bool):
            raise MiniJError(TYPE_ERROR, fname)
        return (value, 0.0 if value else K, K if value else 0.0)

    def _compare(self, node: Binary, env: dict, fname: str, depth: int) -> tuple[bool, float, float]:
        op = node.op
        l = self.eval(node.lhs, env, fname, depth)
        r = self.eval(node.rhs, env, fname, depth)
        if isinstance(l, str) or isinstance(r, str):
            if not (isinstance(l, str) and isinstance(r, str)) or op not in ("==", "!="):
                raise MiniJError(TYPE_ERROR, fname)
            d_eq = string_eq_distance(l, r)
            d_ne = K if l == r else 0.0
            if op == "==":
                return (l == r, d_eq, d_ne)
            return (l != r, d_ne, d_eq)
        ln, rn = int(l), int(r)
        d_true = branch_distance(op, ln, rn)
        d_false = branch_distance(_NEGATION[op], ln, rn)
        return (d_true == 0, d_true, d_false)

    # -- statements -----------------------------------------------------------

    def _exec_body(self, body: list[Stmt], env: dict, fname: str, depth: int) -> None:
        for stmt in body:
            self._exec_stmt(stmt, env, fname, depth)

    def _exec_stmt(self, stmt: Stmt, env: dict, fname: str, depth: int) -> None:
        self._tick(fname)
        self.lines_hit.add(stmt.line_id)
        cls = type(stmt)
        if cls is Let:
            env[stmt.name] = self.eval(stmt.expr, env, fname, depth)
            return
        if cls is Assign:
            if stmt.name not in env:
                raise MiniJError(TYPE_ERROR, fname)
            env[stmt.name] = self.eval(stmt.expr, env, fname, depth)
            return
        if cls is If:
            taken, d_true, d_false = self.pred(stmt.cond, env, fname, depth)
            self.evaluations.append(
                Evaluation(stmt.branch_id, taken, d_true, d_false, depth == 0)
            )
            self._exec_body(stmt.then_body if taken else stmt.else_body, env, fname, depth)
            return
        if cls is While:
            while True:
                taken, d_true, d_false = self.pred(stmt.cond, env, fname, depth)
                self.evaluations.append(
                    Evaluation(stmt.branch_id, taken, d_true, d_false, depth == 0)
                )
                if not taken:
                    return
                self._exec_body(stmt.body, env, fname, depth)
        if cls is Return:
            raise _ReturnSignal(self.eval(stmt.expr, env, fname, depth))
        if cls is Throw:
            raise MiniJError(EXPLICIT_THROW, fname, tag=stmt.tag)
        raise TypeError(f"unknown statement node {stmt!r}")


def _best(evaluations: list[Evaluation]) -> dict[int, list[float]]:
    """branch_id -> [least distance_true, least distance_false] over ``evaluations``."""
    best: dict[int, list[float]] = {}
    for ev in evaluations:
        best_true, best_false = best.get(ev.branch_id, (float("inf"), float("inf")))
        best[ev.branch_id] = [min(best_true, ev.distance_true),
                              min(best_false, ev.distance_false)]
    return best


def execute(
    program: Program,
    entry: str,
    args: tuple[Value, ...] | list[Value],
    config: InterpConfig = InterpConfig(),
    sides: Sides | None = None,
) -> ExecutionResult:
    """Run one entry call and return the full instrumented result.

    With ``sides``, the run also evaluates its program's own schema at
    its roots and records what it finds there in ``sides`` (see
    ``Sides``); the result is the same as without.

    Raises UnknownFunctionError / ArityError for malformed entry calls; every
    in-language failure is captured as a Raised outcome instead.
    """
    return run(program, entry, args, config, sides)[0]


def run(
    program: Program,
    entry: str,
    args: tuple[Value, ...] | list[Value],
    config: InterpConfig = InterpConfig(),
    sides: Sides | None = None,
) -> tuple[ExecutionResult, list[Evaluation]]:
    """``execute``'s result of one entry call, and every branch-predicate
    evaluation of the call, in order."""
    fn = program.function(entry)
    if fn is None:
        raise UnknownFunctionError(f"no function named {entry!r}")
    if len(args) != len(fn.params):
        raise ArityError(f"{entry} expects {len(fn.params)} args, got {len(args)}")
    for (pname, pkind), value in zip(fn.params, args):
        # only exact ints, bools and strs are MiniJ values
        kind = kind_of(value) if type(value) in (int, bool, str) else None
        if kind != pkind:
            got = kind or f"Python {type(value).__name__}"
            raise ArityError(f"{entry} parameter {pname!r} expects {pkind}, got {got}")

    interp = _Interp(program, config, sides)
    env = dict(zip((p for p, _ in fn.params), args))
    interp.called.add(entry)
    outcome: Outcome
    try:
        try:
            interp._exec_body(fn.body, env, entry, 0)
            outcome = Returned(0)
        except _ReturnSignal as sig:
            outcome = Returned(sig.value)
    except MiniJError as err:
        outcome = Raised(err.record)
    result = ExecutionResult(
        lines_hit=frozenset(interp.lines_hit),
        branch_best=_best(interp.evaluations),
        branch_best_direct=_best([ev for ev in interp.evaluations if ev.direct]),
        called_functions=frozenset(interp.called),
        outcome=outcome,
        steps=interp.steps,
    )
    return result, interp.evaluations
