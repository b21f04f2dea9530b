"""Static facts about a base program, found once per compiled module.

``Analysis`` holds four kinds of fact, each sound for the base program and
for every mutant of it, so that the lean code all mutants share may rely on
them without knowing the mutant list. It is the one place each is decided;
``codegen`` only reads them, and so does ``fitness``, whose output buckets
are the kinds each function may return. Closing the kinds under the
mutation operators adds none the base program could not return, but at a
``-``, ``*`` or ``/`` whose operands may both be strs, which raises in the
base and may concatenate in a mutant.

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

Jumps. A loop may skip the passes it would step through, in closed form
(loop acceleration, as in Frohn, "A calculus for modular loop
acceleration", TACAS 2020): where it provably passes its
condition on every pass up to the step limit, it raises
``StepLimitExceeded`` rather than stepping through the passes; where the
condition first fails on a pass whose evaluation ends within the limit, it
goes to the head of that pass, with the step count and every variable the
loop moves set to their values there, and the loop's own code leaves. A
lean kill run jumps as the loop starts, and a traced or a schema run of the
base program at the head of its second pass, once they have recorded what
the skipped passes would have (see ``Jump``). Generated code checks for a
jump at every loop whose body holds only ``let`` and assignment statements
(``loops``), a shape no mutant changes, and a ``Jump`` is built, from the
AST of the program that runs, for each version of such a loop that meets
the rest: its condition is one comparison of affine int expressions under
any number of ``not``s; its body holds no index, call, comparison,
``and``/``or`` or ``/``; every variable of the loop is bound at its head
and of one proven kind; and each variable of the condition is updated
exactly once per pass as ``v = v ± δ``, with δ a loop-invariant affine
int, or not at all. It jumps to an exit only when its body holds only
assignments, each to such a mover or to a first-order int sum ``v = v ±
e``, with ``e`` affine in the invariants and those movers; any other loop
steps to its exit. A mutated program builds one only for
the loop its root is in, and shares its base's for the loops it leaves as
they are (``jumps``), so a deletion may make a loop jump that its base
version cannot. Then the loop's body cannot raise, each operand of the
condition moves by a fixed amount per pass, and the pass on which the
condition first fails is a question about a line (see ``Jump``). A schema
run asks one more such question of each alternative pending at the loop's
roots (infection decided on states, as in Just, Ernst and Fraser, ISSTA
2014): where its value first differs from the root's (``Jump.form``).
"""

from __future__ import annotations

import operator

from affsgen.minilang.interpreter import STEP_LIMIT_EXCEEDED, MiniJError, merge_best
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

K = 1  # distance offset for strict inequalities and != when the predicate just fails

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
    program's own jumps, which its traced and schema runs take, and its
    mutants share where they leave a loop as it is. ``calls`` tells whether
    any function calls one: without calls, every run stays in its entry
    frame, and ``codegen`` keeps one branch table for a traced run."""

    __slots__ = ("variables", "returns", "known", "known_returns", "bound", "loops",
                 "owners", "own_jumps", "calls")

    def __init__(self, program: Program):
        self.variables = {fn.name: {p: frozenset([kind]) for p, kind in fn.params}
                          for fn in program.functions}
        self.returns = {fn.name: _NO_KINDS for fn in program.functions}
        self.bound: dict[int, frozenset] = {}
        self.calls = any(type(expr) is Call for fn in program.functions
                         for stmt in walk_statements(fn.body)
                         for root in statement_expressions(stmt) for expr in walk_expressions(root))
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


def _update(expr: Expr, name: str) -> Expr | None:
    """``δ`` when ``expr`` is ``name + δ`` or ``δ + name``, and ``-δ`` when
    it is ``name - δ``, with ``name`` not in ``δ``; else None."""
    if type(expr) is not Binary or expr.op not in ("+", "-"):
        return None
    for var, delta in ((expr.lhs, expr.rhs), (expr.rhs, expr.lhs)):
        if type(var) is Var and var.name == name and name not in variables(delta):
            return Unary("neg", delta) if expr.op == "-" else delta
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
    ends = [_size(loop.cond)]  # ticks from a pass's start to the end of each of its roots
    for stmt in loop.body:
        kind = _kind(stmt.expr, known)
        if kind is None or kind != known.get(stmt.name):
            return None
        ends.append(ends[-1] + 1 + _size(stmt.expr))
    if any(_kind(side, known) != "int" or not _affine(side, moving)
           for side in (comparison.lhs, comparison.rhs)):
        return None
    index = {name: i for i, name in enumerate(names)}
    # each int variable the loop moves once per pass as v = v ± e, e affine
    # in the variables: ±e, its index and the root that moves it
    updates = {}
    for name in sorted(moving):
        at = [i for i, stmt in enumerate(loop.body) if stmt.name == name]
        e = _update(loop.body[at[0]].expr, name) if len(at) == 1 else None
        if e is not None and known.get(name) == "int" and _affine(e, moving):
            updates[name] = (e, index[name], at[0] + 1)
    fixed = {name for name, (e, _, _) in updates.items() if not variables(e) & moving}
    if not variables(comparison) & moving <= fixed:
        return None
    movers = {name: (i, at, _evaluator(e, index)) for name, (e, i, at) in updates.items()}
    # the movers by a loop-invariant δ, and the first-order sums, whose e
    # moves only by them: all the loop's movers, or None
    shifts = {name: movers[name] for name in sorted(fixed)}
    sums = None
    if all(type(stmt) is Assign for stmt in loop.body) and all(
            name in updates and variables(updates[name][0]) & moving <= fixed
            for name in moving - fixed):
        sums = tuple(movers[name] for name in sorted(moving - fixed))
    moves = tuple((i, delta) for name, (i, _, delta) in shifts.items()
                  if name in variables(comparison))
    op = NEGATION[comparison.op] if negated else comparison.op
    return Jump(loop, function, tuple(ends), op, _evaluator(comparison.lhs, index),
                _evaluator(comparison.rhs, index), moves, tuple(shifts.values()), sums,
                (index, known, moving - fixed))


def _exit(op: str, start: int, slope: int) -> int | None:
    """The first whole ``t >= 0`` where ``d op 0`` fails for ``d = start +
    slope * t``, or None where it holds for every one."""
    if op == "==":
        return 0 if start else 1 if slope else None
    if op == "!=":  # fails where d is 0
        if not slope:
            return None if start else 0
        t, off = divmod(-start, slope)
        return t if not off and t >= 0 else None
    if op in (">", ">="):  # d > 0 is -d < 0, and d >= 0 is -d <= 0
        op, start, slope = ("<" if op == ">" else "<="), -start, -slope
    if start > 0 or start == 0 and op == "<":
        return 0
    if slope <= 0:
        return None
    # d < 0 fails from the first t with d >= 0, d <= 0 from the first with d > 0
    return -(start // slope) if op == "<" else -start // slope + 1


def _least(op: str, start: int, slope: int, last: int) -> int:
    """The least distance toward false of ``d op 0`` (``codegen``'s distance
    of the negated comparison on ``d`` and 0) over ``d = start + slope * t``
    for ``t`` in ``0..last``, where ``d op 0`` holds at every one of them, so
    that each distance is a positive int. Each is linear in ``d``, or
    ``|d|``, which is least at an end of the range or at a whole ``t``
    next to the zero crossing."""
    if op == "==":
        return K
    end = start + slope * last
    if op == "!=":
        least = min(abs(start), abs(end))
        if slope:
            below = -start // slope  # the whole t at or below the crossing
            for t in (below, below + 1):
                if 0 <= t <= last:
                    least = min(least, abs(start + slope * t))
        return least
    if op in ("<", "<="):  # the distance is -d, and -d + K for <=
        return -max(start, end) + (K if op == "<=" else 0)
    return min(start, end) + (K if op == ">=" else 0)


def _reads(env: tuple, deltas: list, root: int) -> tuple[list, list]:
    """The variables as root ``root`` reads them on a pass that starts with
    ``env``, where each shift ``(index, moving root, δ)`` of ``deltas``
    moves, and as it reads them on the next pass."""
    here = list(env)
    for i, at, delta in deltas:
        if at < root:
            here[i] += delta
    moved = list(here)
    for i, _, delta in deltas:
        moved[i] += delta
    return here, moved


class Jump:
    """One loop's jump, called at the loop head with the step count ``S``,
    the limit ``L`` and the values of the loop's variables
    (``Analysis.loops``); it returns the step count and the variables to go
    on with, or raises. A pass takes ``steps`` steps, the first ``head`` of
    them evaluating the condition, whose comparison ``op`` (its ``not``s
    folded in) compares the affine ``lhs`` and ``rhs``; each variable of the
    condition that the loop moves changes by its δ (``moves``) per pass.

    Pass ``t`` from the call evaluates its condition within the limit only
    if its ``head`` ticks stay within it, so passes ``0..last`` with ``last
    = (L - S - head) // steps`` do. ``d = lhs - rhs`` is linear in ``t``, so
    the first pass ``t*`` on which the condition fails is found in O(1)
    (``_exit``). Where ``t* > last``, the condition holds on every pass up to
    the limit, and the run surely crosses the limit inside the loop. The
    loop's body cannot raise and calls nothing, so that happens in the
    loop's function, and the jump raises what the run would have.

    Otherwise the run leaves the loop on pass ``t*``, and the jump returns
    the step count and the variables at that pass's head, so that the
    loop's own code evaluates the condition there and leaves as on any pass,
    with its branch distance and the redos of its alternatives. A variable
    moved by a fixed δ (``shifts``) holds ``v + δ·t*`` there, and a
    first-order sum ``v = v ± e``, with ``e`` affine in loop invariants and
    fixed movers, so ``e₀ + e₁·t`` on pass ``t``, holds ``v ± (t*·e₀ +
    e₁·t*(t* − 1)/2)`` (loop summarization in closed form, as in Kroening
    et al., ATVA 2008). A loop that moves some variable otherwise, or binds
    one by a ``let``, has no ``sums``: it returns what it was given, as
    where ``t*`` is 0, and the loop steps.

    A kill run calls the jump as the loop starts (``__call__``). A traced
    run (``traced``) and a schema run (``schema``) call it at the head of
    the loop's second pass, once the first has recorded every line the loop
    reaches, and first record what the passes they skip would have: see
    those methods."""

    __slots__ = ("function", "branch", "steps", "head", "ends", "op", "lhs", "rhs", "moves",
                 "shifts", "sums", "roots", "scope", "forms")

    def __init__(self, loop: While, function, ends, op, lhs, rhs, moves, shifts, sums, scope):
        self.function, self.branch, self.ends = function, loop.branch_id, ends
        self.steps, self.head = ends[-1], ends[0]
        self.op, self.lhs, self.rhs, self.moves = op, lhs, rhs, moves
        # (index, moving root, δ) of each variable moved by a fixed δ per pass,
        # and (index, moving root, ±e) of each first-order sum, or None
        self.shifts, self.sums = shifts, sums
        # (node id, expression, assigned variable) of each root, in pass order
        self.roots = ((loop.cond.node_id, loop.cond, None),) + tuple(
            (stmt.expr.node_id, stmt.expr, stmt.name) for stmt in loop.body)
        self.scope = scope  # the variables' indices and kinds, and the irregular movers
        self.forms: dict = {}  # (root node id, alternative) -> its closed form, or None

    def _line(self, env) -> tuple[int, int]:
        """``d = lhs - rhs`` on this pass, and its change per pass."""
        moved = list(env)
        for i, delta in self.moves:
            moved[i] += delta(env)
        start = self.lhs(env) - self.rhs(env)
        return start, self.lhs(moved) - self.rhs(moved) - start

    def _target(self, S: int, L: int, env) -> tuple:
        """``(t, exits, start, slope)``: the pass the jump skips to, ``t*``
        where the loop leaves on it (``exits``), else ``last + 1``, and
        ``d`` as ``_line`` gives it; ``t`` is 0 where the loop leaves but
        the jump cannot tell the variables there."""
        last = (L - S - self.head) // self.steps
        start, slope = self._line(env)
        t = _exit(self.op, start, slope)
        if t is None or t > last:
            return last + 1, False, start, slope
        return (0 if self.sums is None else t), True, start, slope

    def _go(self, t: int, exits: bool, S: int, L: int, env) -> tuple:
        """Raise the run's ``StepLimitExceeded`` unless the loop ``exits``
        on pass ``t``, and else the step count and the variables at the
        head of that pass."""
        if not exits:
            raise MiniJError(STEP_LIMIT_EXCEEDED, self.function, L + 1)
        if not t:
            return (S, *env)
        deltas = [(i, at, delta(env)) for i, at, delta in self.shifts]
        values = list(env)
        for i, at, e in self.sums:
            here, moved = _reads(env, deltas, at)
            first = e(here)
            values[i] += t * first + (e(moved) - first) * (t * (t - 1) // 2)
        for i, _, delta in deltas:
            values[i] += delta * t
        return (S + t * self.steps, *values)

    def __call__(self, S: int, L: int, *env) -> tuple:
        return self._go(*self._target(S, L, env)[:2], S, L, env)

    def traced(self, S: int, L: int, best: dict, direct: dict | None, *env) -> tuple:
        """The jump of a traced run, whose branch tables are ``best`` and,
        in the entry frame, ``direct`` (else None). The passes it skips
        reach only lines the first pass recorded, and the condition holds on
        each, so its distance toward true is 0, which the first pass merged;
        the only record they can lower is the least distance toward false,
        which they merge as each pass would (``_least``)."""
        t, exits, start, slope = self._target(S, L, env)
        if t:
            least = _least(self.op, start, slope, t - 1)
            zero = 0 if self.op == "==" else 0.0  # the distance toward true, typed as codegen's
            merge_best(best, self.branch, zero, least)
            if direct is not None:
                merge_best(direct, self.branch, zero, least)
        return self._go(t, exits, S, L, env)

    def schema(self, S: int, L: int, C: tuple, sites: tuple, *env) -> tuple:
        """The jump of a schema run with context ``C``, whose mutation site
        at each root of the loop ``sites`` gives, by index (-1 where the
        root is none). It jumps only when every alternative still pending at
        those sites has a closed form (``form``); then it adds to each
        site's count the evaluations the skipped passes complete, and a
        raise where the run crosses the limit, if that root's evaluation
        starts within it (as the schema shape's ``RE`` counts one), and
        marks infected each pending alternative that disagrees with the
        root on one of those evaluations. An alternative of equal size
        crosses the limit with its root, and so stays pending there, but a
        deleted assignment does not raise, and is infected there."""
        t, exits, _, _ = self._target(S, L, env)
        if not t:
            return (S, *env)
        _, pending, counts, sides, _ = C
        forms = self.forms
        for (node, _, _), site in zip(self.roots, sites):
            if site >= 0 and any(forms.get((node, alternative)) is None
                                 for _, alternative, _ in pending[site]):
                return (S, *env)
        ends, steps, rest = self.ends, self.steps, L - S
        crossing = -1  # the root whose evaluation crosses the limit
        if not exits:
            within = rest % steps  # the ticks of the pass it crosses in that stay within the limit
            crossing = next(i for i, end in enumerate(ends) if end > within)
            if crossing and ends[crossing - 1] == within:
                crossing = -1  # its statement's own tick crosses, before its root starts
        deltas = [(i, at, delta(env)) for i, at, delta in self.shifts]
        infected = sides.infected
        for root, ((node, _, _), site) in enumerate(zip(self.roots, sites)):
            if site < 0:
                continue
            values = min(t, (rest - ends[root]) // steps + 1)
            counts[2 * site] += values
            raised = root == crossing
            if raised:
                counts[2 * site + 1] += 1
            if not pending[site]:
                continue
            here, moved = _reads(env, deltas, root)
            for key, alternative, _ in pending[site]:
                op, lhs, rhs = forms[node, alternative]
                start = lhs(here) - rhs(here)
                differs = _exit(op, start, lhs(moved) - rhs(moved) - start)
                if raised and alternative is None or differs is not None and differs < values:
                    infected.add(key)
        return self._go(t, exits, S, L, env)

    def learn(self, node: int, expr: Expr | None, alternative) -> None:
        """Keep the closed form of ``alternative``, the lean function of
        ``expr`` at root ``node`` of the loop (None for a deleted
        assignment, whose variable keeps its value), for ``schema``."""
        self.forms[node, alternative] = self.form(node, expr)

    def form(self, node: int, expr: Expr | None):
        """``(op, lhs, rhs)``: the alternative ``expr`` at root ``node``
        agrees with the root on a pass exactly where ``lhs op rhs`` holds,
        both functions of the variables as the root reads them and linear
        in the pass. At the condition, which holds on every pass a jump
        skips, whether it goes to the limit or to the pass the loop leaves
        on (whose evaluation the loop's own code redoes), that is the
        alternative's own comparison; at an assignment, the alternative's
        value equals the root's. None unless both sides are affine ints in
        variables that are loop-invariant or move by a fixed δ per pass (a
        first-order sum does not, so an alternative that reads one keeps a
        schema run from jumping while it is pending), and an alternative
        that ticks (not a deletion) is as large as its root, so that it
        takes the same steps and never drifts."""
        index, known, irregular = self.scope
        root = next(i for i, found in enumerate(self.roots) if found[0] == node)
        _, base, target = self.roots[root]
        if expr is not None and _size(expr) != _size(base):
            return None
        if root == 0:
            comparison, negated = _comparison(expr)
            if comparison is None:
                return None
            sides = (comparison.lhs, comparison.rhs)
            op = NEGATION[comparison.op] if negated else comparison.op
        else:
            sides, op = (Var(target) if expr is None else expr, base), "=="
        moving = {name for _, _, name in self.roots[1:]}
        if any(_kind(side, known) != "int" or not _affine(side, moving)
               or variables(side) & irregular for side in sides):
            return None
        return op, _evaluator(sides[0], index), _evaluator(sides[1], index)
