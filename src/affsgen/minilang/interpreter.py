"""Instrumented tree-walking interpreter for MiniJ.

Every execution records the statements reached, every branch-predicate
evaluation with distances toward both outcomes, the set of functions called
(flagged direct for the entry frame), and the final outcome. Execution is
deterministic and bounded by a step limit.

Semantics worth knowing:
  * Arithmetic is integer-only; division truncates toward zero and raises
    ``DivByZero`` on a zero divisor.
  * ``+`` concatenates two strings; all other operand mixes are a
    ``TypeError`` (the in-language kind, not Python's).
  * Ordering comparisons require numeric operands (bools count as 0/1);
    ``==``/``!=`` additionally accept two strings.
  * ``s[i]`` raises ``IndexOutOfBounds`` outside ``0 <= i < len(s)``.
  * A function body that ends without ``return`` yields the int 0.
  * Exceeding the step limit, the call-depth cap or the frame budget
    raises ``StepLimitExceeded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from affsgen.minilang.nodes import (
    Assign,
    Binary,
    BoolLit,
    Call,
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
    statement_expressions,
)

K = 1.0  # offset for strict inequalities and != when the predicate just fails

DIV_BY_ZERO = "DivByZero"
INDEX_OUT_OF_BOUNDS = "IndexOutOfBounds"
EXPLICIT_THROW = "ExplicitThrow"
STEP_LIMIT_EXCEEDED = "StepLimitExceeded"
TYPE_ERROR = "TypeError"

Value = Union[int, bool, str]

# Python frames the tree walker stacks for one MiniJ activation: two per
# statement block (_exec_body, _exec_stmt), at most four per expression
# level (e.g. eval, _eval_inner, _pred_inner, _compare), and a few fixed ones
# (helpers or constructors at the innermost node).
_FRAMES_PER_BLOCK = 2
_FRAMES_PER_EXPR_LEVEL = 4
_FRAMES_FIXED = 8

# Each active MiniJ call is charged the frames stacked at its call site, and
# the innermost one its callee's whole height as well; a call that would take
# the sum past this raises StepLimitExceeded, as one past max_call_depth does.
# Plain recursion stops at max_call_depth first. The budget sits far enough
# below Python's default recursion limit (1000) that deep MiniJ recursion ends
# the same way whether execute is called from a shallow Python stack or from
# one about 300 frames deep. The parser's nesting caps keep any single
# function's height well below it. Side evaluations (``Sides``) are not
# charged: they stack one frame more per active root they hook, which only
# recursion through that root multiplies, and two more during a redo.
FRAME_BUDGET = 600


class UnknownFunctionError(ValueError):
    """Entry call names a function that does not exist in the program."""


class ArityError(ValueError):
    """Entry call argument count or kinds do not match the signature."""


@dataclass(frozen=True, slots=True)
class ExceptionRecord:
    kind: str
    raising_function: str
    tag: str | None = None

    @property
    def identity(self) -> tuple[str, str]:
        """(kind label, raising function) pair; the tag is part of the label."""
        label = self.kind if self.tag is None else f"{self.kind}:{self.tag}"
        return (label, self.raising_function)


class MiniJError(Exception):
    """In-language exception; caught at the entry boundary."""

    def __init__(self, kind: str, raising_function: str, tag: str | None = None):
        super().__init__(kind)
        self.record = ExceptionRecord(kind=kind, raising_function=raising_function, tag=tag)


@dataclass(frozen=True, slots=True)
class Returned:
    value: Value


@dataclass(frozen=True, slots=True)
class Raised:
    record: ExceptionRecord


Outcome = Union[Returned, Raised]


@dataclass(frozen=True, slots=True)
class BranchEval:
    branch_id: int
    taken: bool
    distance_true: float
    distance_false: float
    direct: bool


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    lines_hit: frozenset[int]
    branch_evals: tuple[BranchEval, ...]
    called_functions: frozenset[tuple[str, bool]]
    outcome: Outcome
    steps: int


@dataclass(frozen=True, slots=True)
class InterpConfig:
    step_limit: int = 10_000
    max_call_depth: int = 50


def kind_of(value: Value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    return "str"


# --- branch distances ----------------------------------------------------


def branch_distance(op: str, lhs: float, rhs: float) -> float:
    """Distance ``>= 0`` from ``lhs op rhs`` to the predicate holding.

    Zero exactly when the predicate holds; otherwise grows with how far the
    operands are from satisfying it. Booleans should be passed as 0/1.
    """
    l = float(lhs)
    r = float(rhs)
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


_NEGATION = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def string_eq_distance(a: str, b: str) -> float:
    """Character-wise distance for string equality: 0 iff the strings match."""
    common = min(len(a), len(b))
    mismatches = sum(1 for i in range(common) if a[i] != b[i])
    return float(abs(len(a) - len(b)) + mismatches)


def _nu(x: float) -> float:
    return x / (x + 1.0)


# --- static frame costs --------------------------------------------------


def _expr_height(expr: Expr) -> int:
    cls = type(expr)
    if cls is Unary or cls is Len:
        children = (expr.operand,)
    elif cls is Binary:
        children = (expr.lhs, expr.rhs)
    elif cls is Index:
        children = (expr.base, expr.index)
    elif cls is Call:
        children = expr.args
    else:
        children = ()
    return 1 + max((_expr_height(c) for c in children), default=0)


def _static_frame_cost(fn: FunctionDef) -> int:
    """Upper bound on the Python frames one activation of ``fn`` stacks."""
    blocks = height = 0
    pending = [(fn.body, 1)]
    while pending:
        body, depth = pending.pop()
        blocks = max(blocks, depth)
        for stmt in body:
            for root in statement_expressions(stmt):
                height = max(height, _expr_height(root))
            if type(stmt) is If:
                pending.append((stmt.then_body, depth + 1))
                pending.append((stmt.else_body, depth + 1))
            elif type(stmt) is While:
                pending.append((stmt.body, depth + 1))
    return _FRAMES_PER_BLOCK * blocks + _FRAMES_PER_EXPR_LEVEL * height + _FRAMES_FIXED


def _site_frames(expr: Expr, frames: int, as_pred: bool, sites: dict[int, int]) -> None:
    """Record, for each call in ``expr``, the frames stacked from the
    statement's _exec_stmt down to its _call; ``frames`` counts those above
    ``expr``, which is evaluated by pred if ``as_pred`` and by eval if not."""
    cls = type(expr)
    op = expr.op if cls is Binary or cls is Unary else None
    if op in ("and", "or", "not"):
        frames += 2 if as_pred else 3  # pred, _pred_inner | eval, _eval_inner, _pred_inner
        children = (expr.lhs, expr.rhs) if cls is Binary else (expr.operand,)
        as_pred = True
    elif op in _NEGATION:
        frames += 3 if as_pred else 4  # the above, then _compare
        children = (expr.lhs, expr.rhs)
        as_pred = False
    else:
        frames += 3 if as_pred else 2  # pred, _pred_inner, _eval_inner | eval, _eval_inner
        as_pred = False
        if cls is Binary:
            children, frames = (expr.lhs, expr.rhs), frames + 1  # _arith
        elif cls is Unary or cls is Len:
            children = (expr.operand,)
        elif cls is Index:
            children = (expr.base, expr.index)
        elif cls is Call:
            sites[expr.node_id] = max(frames + 1, sites.get(expr.node_id, 0))  # _call
            children, frames = expr.args, frames + 1  # the argument list comprehension
        else:
            children = ()
    for child in children:
        _site_frames(child, frames, as_pred, sites)


def _frame_costs(program: Program) -> tuple[dict[int, int], dict[str, int]]:
    """Per program, once: the frames stacked at each call site (by node id)
    and the height of one whole activation of each function."""
    costs = program._frame_costs
    if costs is None:
        sites: dict[int, int] = {}
        for fn in program.functions:
            pending = [(fn.body, 1)]
            while pending:
                body, depth = pending.pop()
                above = _FRAMES_PER_BLOCK * depth
                for stmt in body:
                    cls = type(stmt)
                    if cls is Let or cls is Assign or cls is Return:
                        _site_frames(stmt.expr, above, False, sites)
                    elif cls is If:
                        _site_frames(stmt.cond, above, True, sites)
                        pending.append((stmt.then_body, depth + 1))
                        pending.append((stmt.else_body, depth + 1))
                    elif cls is While:
                        _site_frames(stmt.cond, above, True, sites)
                        pending.append((stmt.body, depth + 1))
        heights = {fn.name: _static_frame_cost(fn) for fn in program.functions}
        costs = program._frame_costs = (sites, heights)
    return costs


# --- signals -------------------------------------------------------------


class _ReturnSignal(Exception):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


class Sides:
    """What one run evaluates on the side of some statement roots, and what it finds.

    ``roots`` maps the node id of a statement's root expression to its
    alternatives, ``(key, program, expr)`` triples. At every evaluation of
    that root the run counts the evaluation in ``evals`` (root id to
    ``[values, raises]``) and then, for each alternative whose key is not
    yet ``infected``, redoes the root as ``expr`` of ``program`` in the same
    environment, on a throwaway interpreter that starts from the root's
    step count and frames, so the run's own result is untouched. The key
    becomes ``infected`` when the redo's kinded value or raise identity
    differs from the root's, and ``drifted`` when only the step count after
    it does. An alternative without a program is a deleted assignment: its
    value is the old value of the variable ``expr`` names, taken without a
    step. Instances hash by identity, so a call's arguments stay hashable.
    """

    __slots__ = ("roots", "evals", "infected", "drifted")

    def __init__(self, roots: dict[int, list[tuple]]):
        self.roots = roots
        self.evals: dict[int, list[int]] = {}
        self.infected: set = set()
        self.drifted: set = set()


class _Interp:
    __slots__ = (
        "program",
        "functions",
        "config",
        "frames",
        "steps",
        "lines_hit",
        "branch_evals",
        "called",
        "sides",
        "roots",
    )

    def __init__(self, program: Program, config: InterpConfig, sides: Sides | None = None):
        self.program = program
        self.functions = program.fn_map()
        self.config = config
        self.frames = 0  # summed call-site frame costs of the active calls
        self.steps = 0
        self.lines_hit: set[int] = set()
        self.branch_evals: list[BranchEval] = []
        self.called: set[tuple[str, bool]] = set()
        self.sides = sides
        self.roots = {} if sides is None else sides.roots

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
        sites, heights = _frame_costs(self.program)
        outer = self.frames
        frames = outer + sites[site]
        if depth + 1 >= self.config.max_call_depth or frames + heights[name] > FRAME_BUDGET:
            raise MiniJError(STEP_LIMIT_EXCEEDED, name)
        fn = self.functions[name]
        env: dict = {}
        for (pname, pkind), value in zip(fn.params, args):
            if kind_of(value) != pkind:
                raise MiniJError(TYPE_ERROR, caller)
            env[pname] = value
        self.called.add((name, False))  # only the entry frame counts as direct
        self.frames = frames
        try:
            self._exec_body(fn.body, env, name, depth + 1)
        except _ReturnSignal as sig:
            return sig.value
        finally:
            self.frames = outer
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
        start, frames = self.steps, self.frames
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
                       start, frames)
            raise
        counts[0] += 1
        value = result[0] if as_pred else result
        self._redo(node, (kind_of(value), value), self.steps, env, fname, depth, as_pred,
                   start, frames)
        return result

    def _redo(self, node: Expr, seen: tuple, steps: int, env: dict, fname: str, depth: int,
              as_pred: bool, start: int, frames: int) -> None:
        """Redo a root's alternatives that are not yet infected, given what the
        root gave (``seen``) and the step count after it (``steps``)."""
        sides = self.sides
        for key, program, expr in sides.roots[node.node_id]:
            if key in sides.infected:
                continue
            if program is None:
                value = env[expr.name]
                if (kind_of(value), value) != seen:
                    sides.infected.add(key)
                continue
            side = _Interp(program, self.config)
            side.steps, side.frames = start, frames
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
        ln = float(int(l))
        rn = float(int(r))
        d_true = branch_distance(op, ln, rn)
        d_false = branch_distance(_NEGATION[op], ln, rn)
        return (d_true == 0.0, d_true, d_false)

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
            self.branch_evals.append(
                BranchEval(stmt.branch_id, taken, d_true, d_false, depth == 0)
            )
            self._exec_body(stmt.then_body if taken else stmt.else_body, env, fname, depth)
            return
        if cls is While:
            while True:
                taken, d_true, d_false = self.pred(stmt.cond, env, fname, depth)
                self.branch_evals.append(
                    BranchEval(stmt.branch_id, taken, d_true, d_false, depth == 0)
                )
                if not taken:
                    return
                self._exec_body(stmt.body, env, fname, depth)
        if cls is Return:
            raise _ReturnSignal(self.eval(stmt.expr, env, fname, depth))
        if cls is Throw:
            raise MiniJError(EXPLICIT_THROW, fname, tag=stmt.tag)
        raise TypeError(f"unknown statement node {stmt!r}")


def execute(
    program: Program,
    entry: str,
    args: tuple[Value, ...] | list[Value],
    config: InterpConfig = InterpConfig(),
    sides: Sides | None = None,
) -> ExecutionResult:
    """Run one entry call and return the full instrumented result.

    With ``sides``, the run also evaluates the alternatives it lists at
    their roots and records what it finds there in ``sides`` (see
    ``Sides``); the result is the same as without.

    Raises UnknownFunctionError / ArityError for malformed entry calls; every
    in-language failure is captured as a Raised outcome instead.
    """
    fn = program.function(entry)
    if fn is None:
        raise UnknownFunctionError(f"no function named {entry!r}")
    if len(args) != len(fn.params):
        raise ArityError(f"{entry} expects {len(fn.params)} args, got {len(args)}")
    for (pname, pkind), value in zip(fn.params, args):
        if kind_of(value) != pkind:
            raise ArityError(
                f"{entry} parameter {pname!r} expects {pkind}, got {kind_of(value)}"
            )

    interp = _Interp(program, config, sides)
    env = dict(zip((p for p, _ in fn.params), args))
    interp.called.add((entry, True))
    outcome: Outcome
    try:
        try:
            interp._exec_body(fn.body, env, entry, 0)
            outcome = Returned(0)
        except _ReturnSignal as sig:
            outcome = Returned(sig.value)
    except MiniJError as err:
        outcome = Raised(err.record)
    return ExecutionResult(
        lines_hit=frozenset(interp.lines_hit),
        branch_evals=tuple(interp.branch_evals),
        called_functions=frozenset(interp.called),
        outcome=outcome,
        steps=interp.steps,
    )
