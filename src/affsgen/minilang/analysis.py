"""Static facts about a base program, found once per compiled module.

``Analysis`` holds four kinds of fact, each sound for the base program and
for every mutant of it, so that the lean code all mutants share may rely on
them without knowing the mutant list. It is the one place each is decided;
``codegen`` only reads them.

Kinds. For each function, the kinds (``int``, ``bool``, ``str``) that each
variable may hold once bound and that the function may return, found
flow-insensitively, as a fixpoint over all functions at once (calls and
recursion included), and closed under the five mutation operators
(``mutation``): an arithmetic node may be an int only when both its
operands may be, and a str only when both may be, whichever of ``+ - * /``
it becomes; a comparison, ``and``, ``or`` and ``not`` are bools under any
relational swap or negation; a perturbed constant stays an int; and a
deleted assignment adds no kind. A parameter's declared kind, which every
call checks, is joined with its assignments, and a function whose body may
fall off its end also returns int 0. A variable or return with exactly one
kind is proven to hold it, and ``codegen`` emits no kind check there.

Definite assignment (as in Java's, JLS ch. 16). Before each statement, the
variables surely bound there (``bound``): the parameters, and each ``let``
on every path to the statement, where a branch that always returns or
throws is no path. Only a ``let`` counts: an assignment never binds a
variable that was not bound, since it raises then. No mutant deletes a
``let``, so the sets hold for every mutant, and ``codegen`` drops the
unbound check of a read of a variable bound there.

Control slices (``control_slice``), which the lean loops' cycle checks
compare (see ``codegen``).

Jumps. A lean kill run loop that provably passes its condition on every
pass up to the step limit raises ``StepLimitExceeded`` at its head, rather
than stepping through the passes (loop acceleration in closed form, as in
Frohn, "A calculus for modular loop acceleration", TACAS 2020). The lean
code checks for a jump at every loop whose body holds only ``let`` and
assignment statements (``loops``), a shape no mutant changes, and a
``Jump`` is built, from the AST of the program that runs, for each version
of such a loop that meets the rest: its condition is one comparison of
affine int expressions under any number of ``not``s; its body holds no
index, call, comparison, ``and``/``or`` or ``/``; every variable of the
loop is bound at its head and of one proven kind; and each variable of the
condition is updated exactly once per pass as ``v = v ± δ``, with δ
loop-invariant, or not at all. A mutated program builds one only for the
loop its root is in, and shares its base's for the loops it leaves as they
are (``jumps``), so a deletion may make a loop jump that its base version
cannot. Then the loop's body cannot raise, each operand of the condition
moves by a fixed amount per pass, and whether the condition holds on every
pass up to the limit is a question about a line (see ``Jump``).
"""

from __future__ import annotations

import operator

from affsgen.minilang.interpreter import STEP_LIMIT_EXCEEDED, MiniJError
from affsgen.minilang.nodes import (
    ARITHMETIC_OPS,
    COMPARISON_OPS,
    Assign,
    Binary,
    BoolLit,
    Call,
    Expr,
    If,
    Index,
    IntLit,
    Len,
    Let,
    Program,
    Return,
    StrLit,
    Throw,
    Unary,
    Var,
    While,
    statement_expressions,
    walk_expressions,
    walk_statements,
)

_NO_KINDS: frozenset = frozenset()
_INT, _BOOL, _STR = frozenset(["int"]), frozenset(["bool"]), frozenset(["str"])
_LITERALS = {IntLit: _INT, BoolLit: _BOOL, StrLit: _STR}

# the comparison that holds exactly where ``op`` fails
NEGATION = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def variables(expr: Expr) -> set[str]:
    return {e.name for e in walk_expressions(expr) if type(e) is Var}


def control_slice(loop: While) -> tuple[list[str], set[str]]:
    """The variables ``loop`` assigns, sorted, and those of them in its
    control slice, whose values can change the loop's control flow, step
    count or raises (see ``codegen``)."""
    slice_: set[str] = set()
    assignments = []
    for stmt in walk_statements([loop]):
        if type(stmt) in (Let, Assign):
            assignments.append((stmt.name, variables(stmt.expr)))
        elif type(stmt) in (If, While):
            slice_ |= variables(stmt.cond)
        for root in statement_expressions(stmt):
            for expr in walk_expressions(root):
                cls = type(expr)
                if cls is Binary and expr.op in ARITHMETIC_OPS:
                    slice_ |= variables(expr.rhs)
                elif cls is Binary or cls is Index or cls is Call:
                    slice_ |= variables(expr)
    grown = True
    while grown:
        grown = False
        for name, needs in assignments:
            if name in slice_ and not needs <= slice_:
                slice_ |= needs
                grown = True
    assigned = sorted({name for name, _ in assignments})
    return assigned, slice_ & set(assigned)


# --- kinds --------------------------------------------------------------------------


def _kinds(expr: Expr, holds: dict, returns: dict) -> frozenset:
    """The kinds ``expr`` may take in any mutant, given the kinds its
    function's variables may hold and each function may return."""
    cls = type(expr)
    literal = _LITERALS.get(cls)
    if literal is not None:
        return literal
    if cls is Var:
        return holds.get(expr.name, _NO_KINDS)
    if cls is Binary and expr.op in ARITHMETIC_OPS:
        lhs, rhs = _kinds(expr.lhs, holds, returns), _kinds(expr.rhs, holds, returns)
        return (lhs & rhs) - _BOOL  # int op int, or str + str
    if cls is Binary or cls is Unary and expr.op == "not":
        return _BOOL
    if cls is Unary or cls is Len:
        return _INT
    if cls is Index:
        return _STR
    return returns[expr.name]  # a call


def _scan(body: list, bound: set, table: dict) -> bool:
    """Record in ``table`` the variables surely bound before each statement
    of ``body``, entered with ``bound``, by line id, and add to ``bound``
    those surely bound after it; True when the body always returns or
    throws."""
    leaves = False
    frozen = frozenset(bound)
    for stmt in body:
        if len(frozen) != len(bound):  # bound only grows
            frozen = frozenset(bound)
        table[stmt.line_id] = frozen
        cls = type(stmt)
        if cls is Let:
            bound.add(stmt.name)
        elif cls is Return or cls is Throw:
            leaves = True
        elif cls is If:
            outs = []
            for arm in (stmt.then_body, stmt.else_body):
                inner = set(bound)
                if not _scan(arm, inner, table):
                    outs.append(inner)
            if outs:
                bound |= set.intersection(*outs)
            else:
                leaves = True
        elif cls is While:
            _scan(stmt.body, set(bound), table)
    return leaves


def _proven(kinds: frozenset) -> str | None:
    return next(iter(kinds)) if len(kinds) == 1 else None


class Analysis:
    """The static facts of one base program (see the module docstring).

    ``variables[f][v]`` and ``returns[f]`` are the kinds variable ``v`` of
    function ``f`` may hold and ``f`` may return; ``known`` and
    ``known_returns`` name the one kind where exactly one is possible, and
    hold None elsewhere. ``bound`` maps the line id of each statement to the
    variables surely bound before it runs. ``loops`` maps the branch id of
    each loop whose body holds only ``let`` and assignment statements to
    its function and the variables that its lean code passes to a jump, in
    order: those of its condition and body bound at its head. ``owners``
    maps the node id of each statement root in such a loop, its condition's
    included, to the loop's branch id; and ``own_jumps`` holds the analysed
    program's own jumps, which its mutants share where they leave a loop as
    it is."""

    __slots__ = ("variables", "returns", "known", "known_returns", "bound", "loops",
                 "owners", "own_jumps")

    def __init__(self, program: Program):
        self.variables = {fn.name: {p: frozenset([kind]) for p, kind in fn.params}
                          for fn in program.functions}
        self.returns = {fn.name: _NO_KINDS for fn in program.functions}
        self.bound: dict[int, frozenset] = {}
        falls_off = {}
        for fn in program.functions:
            falls_off[fn.name] = not _scan(fn.body, {p for p, _ in fn.params}, self.bound)
        changed = True
        while changed:  # kinds only grow, so this ends
            changed = False
            for fn in program.functions:
                holds = self.variables[fn.name]
                returned = _INT if falls_off[fn.name] else _NO_KINDS
                for stmt in walk_statements(fn.body):
                    cls = type(stmt)
                    if cls is Return:
                        returned |= _kinds(stmt.expr, holds, self.returns)
                    elif cls is Let or cls is Assign:
                        kinds = _kinds(stmt.expr, holds, self.returns)
                        held = holds.get(stmt.name, _NO_KINDS)
                        if not kinds <= held:
                            holds[stmt.name] = held | kinds
                            changed = True
                if returned != self.returns[fn.name]:
                    self.returns[fn.name] = returned
                    changed = True
        self.known = {name: {v: _proven(kinds) for v, kinds in holds.items()}
                      for name, holds in self.variables.items()}
        self.known_returns = {name: _proven(kinds) for name, kinds in self.returns.items()}
        self.loops, self.owners, self.own_jumps = {}, {}, {}
        for fn in program.functions:
            for stmt in walk_statements(fn.body):
                if type(stmt) is While and all(type(inner) in (Let, Assign)
                                               for inner in stmt.body):
                    names = _names(stmt) & self.bound[stmt.line_id]
                    self.loops[stmt.branch_id] = (fn.name, tuple(sorted(names)))
                    self._build(stmt, self.own_jumps)
                    for root in [stmt.cond] + [inner.expr for inner in stmt.body]:
                        self.owners[root.node_id] = stmt.branch_id

    def _build(self, loop: While, jumps: dict) -> None:
        """Put the ``Jump`` of this version of a listed loop into ``jumps``,
        or take the loop's out when this version cannot jump."""
        function, names = self.loops[loop.branch_id]
        jump = _jump(loop, function, names, self.known[function], self.bound[loop.line_id])
        if jump is None:
            jumps.pop(loop.branch_id, None)
        else:
            jumps[loop.branch_id] = jump

    def jumps(self, mutated: Program, base: dict) -> dict:
        """Branch id -> ``Jump`` for each loop of ``mutated``, a mutant of a
        program whose jumps are ``base``, that may jump: those of ``base``,
        except that the loop holding the mutated root, if a listed one, is
        built anew from ``mutated``'s own AST."""
        loop = self.owners.get(mutated.root_id)
        if loop is None:
            return base
        found = dict(base)
        function = self.loops[loop][0]
        for fn in mutated.functions:
            if fn.name == function:
                for stmt in walk_statements(fn.body):
                    if type(stmt) is While and stmt.branch_id == loop:
                        self._build(stmt, found)
        return found


# --- jumps ----------------------------------------------------------------------------


def _names(loop: While) -> set[str]:
    """The variables a loop of ``let``s and assignments reads or binds."""
    names = variables(loop.cond)
    for stmt in loop.body:
        names |= {stmt.name} | variables(stmt.expr)
    return names


def _comparison(cond: Expr) -> tuple[Binary | None, bool]:
    """The comparison under a condition's ``not``s, if that is what it is,
    and whether an odd number of them negates it."""
    negated = False
    while type(cond) is Unary and cond.op == "not":
        cond, negated = cond.operand, not negated
    if type(cond) is Binary and cond.op in COMPARISON_OPS:
        return cond, negated
    return None, negated


def _kind(expr: Expr, known: dict) -> str | None:
    """The kind of an expression of a listed loop, or None unless it
    surely evaluates without raising once its variables are bound: each of
    them has one proven kind, and there is no index, call, comparison,
    ``and``/``or`` or ``/``."""
    cls = type(expr)
    literal = _LITERALS.get(cls)
    if literal is not None:
        return _proven(literal)
    if cls is Var:
        return known.get(expr.name)
    if cls is Unary or cls is Len:
        want, kind = (("str", "int") if cls is Len else
                      ("bool", "bool") if expr.op == "not" else ("int", "int"))
        return kind if _kind(expr.operand, known) == want else None
    if cls is Binary and expr.op in ("+", "-", "*"):
        lhs, rhs = _kind(expr.lhs, known), _kind(expr.rhs, known)
        if lhs == rhs and (lhs == "int" or lhs == "str" and expr.op == "+"):
            return lhs
    return None


def _affine(expr: Expr, moving: set) -> bool:
    """Whether an int expression of literals, variables, ``-``, ``+`` and
    ``*`` is affine in the variables ``moving``: no product of two of them."""
    cls = type(expr)
    if cls is IntLit or cls is Var:
        return True
    if cls is Unary:
        return _affine(expr.operand, moving)
    if cls is not Binary or expr.op not in ("+", "-", "*"):
        return False
    if not (_affine(expr.lhs, moving) and _affine(expr.rhs, moving)):
        return False
    return expr.op != "*" or not (variables(expr.lhs) & moving and variables(expr.rhs) & moving)


def _evaluator(expr: Expr, index: dict):
    """``expr``, an int expression of literals, variables, ``-``, ``+`` and
    ``*``, as a function of the values of the variables ``index`` numbers."""
    cls = type(expr)
    if cls is IntLit:
        value = expr.value
        return lambda env: value
    if cls is Var:
        return operator.itemgetter(index[expr.name])
    if cls is Unary:
        inner = _evaluator(expr.operand, index)
        return lambda env: -inner(env)
    lhs, rhs = _evaluator(expr.lhs, index), _evaluator(expr.rhs, index)
    op = {"+": operator.add, "-": operator.sub, "*": operator.mul}[expr.op]
    return lambda env: op(lhs(env), rhs(env))


def _update(expr: Expr, name: str, moving: set):
    """``δ`` and its sign when ``expr`` is ``name + δ``, ``δ + name`` or
    ``name - δ``, with no variable of ``moving`` in ``δ``; else None."""
    if type(expr) is not Binary or expr.op not in ("+", "-"):
        return None
    for var, delta in ((expr.lhs, expr.rhs), (expr.rhs, expr.lhs)):
        if type(var) is Var and var.name == name and not variables(delta) & moving:
            return delta, expr.op == "-"
        if expr.op == "-":
            return None
    return None


def _size(expr: Expr) -> int:
    return sum(1 for _ in walk_expressions(expr))


def _jump(loop: While, function: str, names: tuple, known: dict,
          bound: frozenset) -> Jump | None:
    """The ``Jump`` of one version of a loop ``loops`` lists, whose head has
    the variables ``bound`` surely bound, or None when that version does not
    meet the conditions (see the module docstring)."""
    comparison, negated = _comparison(loop.cond)
    if comparison is None or not _names(loop) <= bound:
        return None
    moving = {stmt.name for stmt in loop.body}
    head = _size(loop.cond)
    steps = head
    for stmt in loop.body:
        kind = _kind(stmt.expr, known)
        if kind is None or kind != known.get(stmt.name):
            return None
        steps += 1 + _size(stmt.expr)
    if any(_kind(side, known) != "int" or not _affine(side, moving)
           for side in (comparison.lhs, comparison.rhs)):
        return None
    index = {name: i for i, name in enumerate(names)}
    moves = []
    for name in sorted(variables(comparison) & moving):
        updates = [stmt.expr for stmt in loop.body if stmt.name == name]
        found = _update(updates[0], name, moving) if len(updates) == 1 else None
        if found is None:
            return None
        delta, minus = found
        step = _evaluator(delta, index)
        moves.append((index[name], (lambda env, f=step: -f(env)) if minus else step))
    op = NEGATION[comparison.op] if negated else comparison.op
    return Jump(function, steps, head, op, _evaluator(comparison.lhs, index),
                _evaluator(comparison.rhs, index), tuple(moves))


# d(t) compared with 0 on both ends of a range of t, where it is linear
_ORDERED = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _holds(op: str, start: int, slope: int, last: int) -> bool:
    """Whether ``d op 0`` holds for ``d = start + slope * t`` at every
    ``t`` in ``0..last``."""
    if op == "==":
        return start == 0 and (slope == 0 or last == 0)
    if op == "!=":
        # no whole t in 0..last solves start + slope * t == 0
        return start != 0 if slope == 0 else (
            -start % slope != 0 or not 0 <= -start // slope <= last)
    compare = _ORDERED[op]
    return compare(start, 0) and compare(start + slope * last, 0)


class Jump:
    """One loop's jump in a lean kill run, called at the loop head with the
    step count ``S``, the limit ``L`` and the values of the loop's variables
    (``Analysis.loops``). A pass takes ``steps`` steps, the first ``head`` of
    them evaluating the condition, whose comparison ``op`` (its ``not``s
    folded in) compares the affine ``lhs`` and ``rhs``; each variable of the
    condition that the loop moves changes by its δ (``moves``) per pass.

    Pass ``t`` compares its operands only if its ``head`` ticks stay within
    the limit, so passes ``0..last`` with ``last = (L - S - head) // steps``
    do. Each operand is linear in ``t``, so it is enough to check its values
    at both ends: when the comparison holds on every one of those passes,
    the run surely crosses the limit inside the loop. The loop's body cannot
    raise and calls nothing, so that happens in the loop's function, and the
    jump raises what the run would have."""

    __slots__ = ("function", "steps", "head", "op", "lhs", "rhs", "moves")

    def __init__(self, function, steps, head, op, lhs, rhs, moves):
        self.function, self.steps, self.head, self.op = function, steps, head, op
        self.lhs, self.rhs, self.moves = lhs, rhs, moves

    def __call__(self, S: int, L: int, *env) -> None:
        last = (L - S - self.head) // self.steps
        if last >= 0:
            moved = list(env)
            for i, delta in self.moves:
                moved[i] += delta(env)
            lhs, rhs = self.lhs(env), self.rhs(env)
            lhs_slope, rhs_slope = self.lhs(moved) - lhs, self.rhs(moved) - rhs
            if not _holds(self.op, lhs - rhs, lhs_slope - rhs_slope, last):
                return
        raise MiniJError(STEP_LIMIT_EXCEEDED, self.function, L + 1)
