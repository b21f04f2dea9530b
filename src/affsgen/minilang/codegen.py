"""Python source for MiniJ programs, in mutant-schema form.

``program_source`` emits one Python function per MiniJ function, in one
of three shapes. The instrumented variant (prefix ``I``) serves traced
runs, runs of a base program without side evaluations: it records lines,
branch distances and called functions, and evaluates every statement root
inline. The lean variant (prefix ``K``) serves every run of a mutated
program: it keeps only the step count and the outcome, and guards each
statement root with its hook, if the run has one. The schema shape
(prefix ``Q``) serves a base program's runs with sides: lean, it evaluates
every root inline, and at each mutation site of the program's mutant list
it also counts the evaluation and redoes the alternatives still pending
there (``_Code.site``), as Major compiles conditional mutants into the
program (Just, ISSTA 2014). ``root_source`` emits one expression at a
statement root as a lean function of its own, an alternative that a hook
or a redo calls: a mutant's expression there. The emitted code runs in a
namespace that ``interpreter`` supplies: ``E`` (the ``MiniJError``
class), ``X`` (records the line of a group of ticks that crosses the step
limit and returns its error), ``U`` (the value of a variable not yet
bound), ``SD`` (the string-equality distance), ``MB`` (``merge_best``),
``RE`` (counts a raise at a mutation site and redoes the alternatives
pending there) and ``NJ`` (the jumps of a redo: none).

Every generated function takes ``(C, S, D, *values)``: the run's context
tuple, the step count and the MiniJ call depth, and returns ``(result, S)``;
a call made at depth ``MAX_CALL_DEPTH - 1`` raises ``StepLimitExceeded``.
The context is ``(L, H, J)`` in lean code, ``(L, P, V, Z, J)`` in the
schema shape and ``(L, LA, BB, BD, CA, J)`` in instrumented code: the step
limit; either the hooks (root node id to a function that evaluates that
root, or None where a deleted assignment skips its statement), or the run's
pending alternatives at each mutation site, its evaluation counts and its
``Sides``, or the line recorder, the best branch distances over all frames
and over the entry frame (``D == 0``), one table merged once in a program
without calls, and the call recorder; and the running program's loop jumps
(see below; None in a lean run that must never be cut). An in-language
failure raises ``E`` carrying the step count.

Kinds are checked at run time only where the program's ``Analysis`` does
not prove them. A variable, or a call's return, whose kind it proves for
the program and every mutant of it is read as that kind, in every shape
and in every alternative, so the code of a well-kinded program calls no
``type()`` at all. A read of a variable that the analysis does not find
surely bound before its statement (``Analysis.bound``) keeps its ``is U``
guard.

Ticks are exact but batched. A node ticks once as its evaluation starts,
and between two points where something can happen (a raise, a branch, a
call, a hook) consecutive ticks are added at once: nothing observable lies
between them, so a group that crosses the limit fails on its first tick
past it, with the step count at the limit plus one. A statement's tick is
the first of its group, so a group records at most one line, and only if
that tick lies within the limit.

Loops whose condition moves along a line are cut short, exactly. A loop
whose body holds only ``let``s and assignments (``Analysis.loops``) calls
its jump (``analysis.Jump``), with the step count, the limit and the
loop's variables, and takes back the step count and the variables. The
jump raises the run's ``StepLimitExceeded`` at once when the loop's
condition provably holds on every pass up to the limit, and returns the
state at the head of the pass on which the condition first fails, when
that pass evaluates it within the limit and the loop moves each variable
in closed form; the loop's code then evaluates the condition there, with
its branch distance and its alternatives' redos, and leaves. Otherwise
the jump returns what it was given. A loop has one only in a version whose
body moves each variable of its condition, a comparison of affine ints, by
a fixed amount per pass.
  * Lean code calls the running program's jump, if ``J`` holds one, as the
    loop starts: kill runs, and the redos of a schema run, whose ``J`` is
    empty. A mutated program's counting run passes None and is never cut,
    since it counts every evaluation of its root.
  * The instrumented and schema shapes, which run only the base program,
    call its own jump at the head of the loop's second pass. Traced runs
    jump there once the first pass has recorded every line the loop
    reaches, merging the least branch distance the skipped passes would
    have. Schema runs jump when every alternative still pending at the
    loop's mutation sites has a closed form, adding each site's evaluations
    and infecting each alternative as the skipped passes would have; an
    infection at one of those sites lets the loop try again after its pass.

Lean code cuts loops a second way too, in runs whose ``J`` is not None.
Past ``CYCLE_CHECK_AFTER`` steps of such a run, every loop head compares
the loop's control state with a saved one, by Brent's cycle detection (BIT
1980) on loop-head snapshots as in Jolt (Carbin et al., ECOOP 2011).
  * The control state is the values of the loop's control slice, and the
    kinds of the variables the loop assigns whose kinds the analysis does
    not prove. A variable of a proven kind holds that kind whenever it is
    bound, and whether it is bound yet cannot matter: a period that read
    it unbound would have raised. Variables the loop does not assign keep
    their values while it runs.
  * The slice (``analysis.control_slice``) is the assigned variables that
    appear in a condition, a comparison or ``and``/``or`` operand, an index
    or call argument, or on the right of an arithmetic operator (a divisor,
    or one under a mutant's operator), closed over the loop's assignments.
    Mutants only change operators and constants or delete an assignment,
    so one slice per loop holds for every mutated program on the lean code.
  * The cut is exact because nothing outside the state can change the
    loop's control flow, step count or raises: on the kinds the state
    fixes, what a variable outside the slice can meet (int ``+``, ``-``
    and ``*``, a dividend, str ``+``, ``len``) never raises. Once the state
    repeats after P steps, the run repeats those P steps until the limit,
    and a run without sides records only its step count and outcome. So
    the check adds whole periods to S up to the limit and lets the run go
    on, to cross the limit at the same point, in the same function, as it
    would have.

CPython nests at most 20 blocks (loops and ``try`` statements) in one
function and 100 indentation levels, and the parser's caps
(``MAX_BLOCK_DEPTH``, ``MAX_EXPR_DEPTH``) keep generated code under both
without helper functions. Each MiniJ ``while`` is one ``while True:``, so
at most 15 loops nest; a mutation site in the schema shape adds a ``try``,
or a ``for`` with a ``try`` in it, so at most 17 blocks nest there. A
nested block, an ``and``/``or`` operand and a hooked root or a mutation
site each indent one level, so the deepest code at both caps, in the lean
and the schema shape, indents 79 levels.
"""

from __future__ import annotations

from typing import NamedTuple

from affsgen.minilang.analysis import K, NEGATION, Analysis, control_slice, variables
from affsgen.minilang.interpreter import (
    DIV_BY_ZERO,
    EXPLICIT_THROW,
    INDEX_OUT_OF_BOUNDS,
    MAX_CALL_DEPTH,
    STEP_LIMIT_EXCEEDED,
    TYPE_ERROR,
)
from affsgen.minilang.nodes import (
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
    walk_statements,
)


# steps a run takes before its loop heads start looking for a repeated control state
CYCLE_CHECK_AFTER = 1_000

# distance >= 0 from ``{a} op {b}`` on numbers to the predicate holding: zero
# exactly when it holds, else growing with how far the operands are from it
_DISTANCE = {
    "==": "abs({a} - {b})",
    "!=": "{K} if {a} == {b} else 0.0",
    "<": "{a} - {b} + {K} if {a} >= {b} else 0.0",
    "<=": "{a} - {b} if {a} > {b} else 0.0",
    ">": "{b} - {a} + {K} if {b} >= {a} else 0.0",
    ">=": "{b} - {a} if {b} > {a} else 0.0",
}


def _distance(op: str, a: str, b: str) -> str:
    return _DISTANCE[op].format(a=a, b=b, K=repr(K))


class RootInfo(NamedTuple):
    """What a hook at one statement root sees and must do."""

    function: str  # the MiniJ function holding the root
    cond: bool  # an if/while condition, whose value must be a bool
    names: dict  # that function's MiniJ variable names -> Python locals
    params: tuple  # the Python locals passed to the hook, in order
    bound: frozenset  # the MiniJ variables surely bound there (``Analysis.bound``)


def _is_boolean(expr: Expr) -> bool:
    """Nodes that evaluate as predicates: comparisons, and, or, not."""
    cls = type(expr)
    return ((cls is Binary and (expr.op in COMPARISON_OPS or expr.op in ("and", "or")))
            or (cls is Unary and expr.op == "not"))


def _literal(value) -> str:
    return f"({value!r})" if type(value) is int and value < 0 else repr(value)


class _Module:
    """Shared state of one program's generation: function indices, the
    program's ``Analysis``, roots, and the schema shape's mutation sites
    (root node id to its index)."""

    def __init__(self, program: Program, analysis: Analysis,
                 sites: dict[int, int] | None = None):
        self.index = {fn.name: i for i, fn in enumerate(program.functions)}
        self.params = {fn.name: fn.params for fn in program.functions}
        self.analysis = analysis
        self.roots: dict[int, RootInfo] = {}
        self.sites = sites or {}


class _Code:
    """One generated function, emitted line by line."""

    def __init__(self, module: _Module, fname: str, shape: str, names: dict, bound: frozenset):
        self.module = module
        self.fname = fname
        self.fq = repr(fname)
        self.shape = shape
        self.instrumented = shape == "I"
        self.names = names
        self.known = module.analysis.known[fname]  # MiniJ variable -> its proven kind, or None
        self.bound = bound  # the MiniJ variables surely bound before the current statement
        self.lines: list[str] = []
        self.depth = 1
        self.ticks = 0  # pending ticks, not yet added to S
        self.line: int | None = None  # line id of the statement at the first pending tick
        self.temps = 0
        self.rearm: str | None = None  # the schema jump's flag, inside a loop that has one

    # -- emission ---------------------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append(" " * self.depth + text)

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def kinds(self, operands, result: str | None = None):
        """Check each ``(operand, known kind, wanted kind)``; the operation's
        result, or None when a known kind is wrong and it surely raises."""
        checks = []
        for o, kind, want in operands:
            if kind is not None and kind != want:
                self.emit(self.raise_(TYPE_ERROR))
                return None
            if kind is None:
                checks.append(f"type({o}) is not {want}")
        if checks:
            self.emit(f"if {' or '.join(checks)}: {self.raise_(TYPE_ERROR)}")
        return result or self.temp()

    def raise_(self, kind: str, steps: str = "S", fname: str | None = None) -> str:
        return f"raise E({kind!r}, {fname or self.fq}, {steps})"

    def tick(self) -> None:
        self.ticks += 1

    def flush(self) -> None:
        """Add the pending ticks to S, failing on the first past the limit."""
        k = self.ticks
        if not k:
            return
        self.emit(f"S += {k}")
        if self.line is not None:
            self.emit(f"if S > L: raise X(LA, L, S - {k}, {self.line}, {self.fq})")
            self.emit(f"LA({self.line})")
        else:
            self.emit(f"if S > L: {self.raise_(STEP_LIMIT_EXCEEDED, 'L + 1')}")
        self.ticks = 0
        self.line = None

    def branch(self, test: str, then, other=None) -> None:
        """``if test: then() else: other()``, each arm starting from the
        pending ticks and ending with them flushed. The arms are emitted
        here, not by a helper, since nested and/or operands and blocks
        recurse through this method: one frame fewer per level keeps code
        generation shallow enough to run from deep Python stacks."""
        ticks, line = self.ticks, self.line
        self.emit(f"if {test}:")
        for i, body in enumerate((then, other)):
            mark = len(self.lines)
            if i:
                self.ticks, self.line = ticks, line
                self.emit("else:")
            self.depth += 1
            start = len(self.lines)
            if body is not None:
                body()
            self.flush()
            if len(self.lines) == start:
                self.emit("pass")
            self.depth -= 1
        if len(self.lines) == mark + 2 and self.lines[-1].strip() == "pass":
            del self.lines[mark:]

    def finish(self, name: str, params) -> str:
        args = "".join(f", {p}" for p in params)
        head = _CONTEXTS[self.shape]
        return "\n".join([f"def {name}(C, S, D{args}):", " " + head] + self.lines)

    # -- expressions ----------------------------------------------------------------

    def value(self, expr: Expr) -> tuple[str, str | None]:
        """Evaluate ``expr`` as a value: its operand and, if known, its kind."""
        if _is_boolean(expr):
            return self.cond(expr), "bool"
        cls = type(expr)
        self.tick()
        if cls is IntLit:
            return _literal(expr.value), "int"
        if cls is BoolLit:
            return repr(expr.value), "bool"
        if cls is StrLit:
            return repr(expr.value), "str"
        if cls is Var:
            local = self.names.get(expr.name)
            if local is None:  # never bound in this function
                self.flush()
                self.emit(self.raise_(TYPE_ERROR))
                return "U", None
            if expr.name not in self.bound:
                self.flush()
                self.emit(f"if {local} is U: {self.raise_(TYPE_ERROR)}")
            return local, self.known.get(expr.name)
        if cls is Unary:  # neg
            o, kind = self.value(expr.operand)
            self.flush()
            t = self.kinds([(o, kind, "int")])
            if t is None:
                return "U", "int"
            self.emit(f"{t} = -{o}")
            return t, "int"
        if cls is Binary:
            return self.arith(expr)
        if cls is Call:
            return self.call(expr)
        if cls is Len:
            o, kind = self.value(expr.operand)
            self.flush()
            t = self.kinds([(o, kind, "str")])
            if t is None:
                return "U", "int"
            self.emit(f"{t} = len({o})")
            return t, "int"
        if cls is Index:
            b, bkind = self.value(expr.base)
            i, ikind = self.value(expr.index)
            self.flush()
            t = self.kinds([(b, bkind, "str"), (i, ikind, "int")])
            if t is None:
                return "U", "str"
            self.emit(f"if {i} < 0 or {i} >= len({b}): {self.raise_(INDEX_OUT_OF_BOUNDS)}")
            self.emit(f"{t} = {b}[{i}]")
            return t, "str"
        raise TypeError(f"unknown expression node {expr!r}")

    def arith(self, expr: Binary) -> tuple[str, str | None]:
        l, lk = self.value(expr.lhs)
        r, rk = self.value(expr.rhs)
        self.flush()
        op = expr.op
        if op == "+":
            # two ints add and two strs concatenate; any other mix is an error
            kind = lk if lk in ("int", "str") else rk if rk in ("int", "str") else None
            if kind is None:
                t = self.temp()
                self.emit(f"if type({l}) is not type({r}) or type({l}) is bool: "
                          f"{self.raise_(TYPE_ERROR)}")
            else:
                t = self.kinds([(l, lk, kind), (r, rk, kind)])
                if t is None:
                    return "U", kind
            self.emit(f"{t} = {l} + {r}")
            return t, kind
        t = self.kinds([(l, lk, "int"), (r, rk, "int")])
        if t is None:
            return "U", "int"
        if op != "/":
            self.emit(f"{t} = {l} {op} {r}")
            return t, "int"
        # division truncates toward zero
        self.emit(f"if {r} == 0: {self.raise_(DIV_BY_ZERO)}")
        self.emit(f"{t} = abs({l}) // abs({r})")
        self.emit(f"if ({l} >= 0) != ({r} >= 0): {t} = -{t}")
        return t, "int"

    def call(self, expr: Call) -> tuple[str, str | None]:
        args = [self.value(a) for a in expr.args]
        self.flush()
        self.emit(f"if D >= {MAX_CALL_DEPTH - 1}: "
                  f"{self.raise_(STEP_LIMIT_EXCEEDED, fname=repr(expr.name))}")
        params = self.module.params[expr.name]
        returns = self.module.analysis.known_returns[expr.name]
        t = self.kinds([(o, kind, want) for (o, kind), (_, want) in zip(args, params)])
        if t is None:
            return "U", returns
        if self.instrumented:
            self.emit(f"CA({expr.name!r})")
        values = "".join(f", {o}" for o, _ in args)
        self.emit(f"{t}, S = {self.shape}{self.module.index[expr.name]}(C, S, D + 1{values})")
        return t, returns

    def cond(self, expr: Expr) -> str:
        """Evaluate ``expr`` as a predicate's value, which must be a bool."""
        if not _is_boolean(expr):
            o, kind = self.value(expr)
            if kind != "bool":
                self.flush()
                if self.kinds([(o, kind, "bool")], o) is None:
                    return "False"
            return o
        self.tick()
        op = expr.op
        t = self.temp()
        if op == "not":
            self.emit(f"{t} = not {self.cond(expr.operand)}")
        elif op in ("and", "or"):
            self.emit(f"{t} = {self.cond(expr.lhs)}")

            def rhs():
                self.emit(f"{t} = {self.cond(expr.rhs)}")

            self.branch(t if op == "and" else f"not {t}", rhs)
        else:
            self.compare(expr, t, None)
        return t

    def pred(self, expr: Expr) -> tuple[str, str, str]:
        """Evaluate a branch predicate: (value, distance to true, distance to false)."""
        if not _is_boolean(expr):
            o = self.cond(expr)
            dt, df = self.temp(), self.temp()
            self.emit(f"{dt} = 0.0 if {o} else {K!r}; {df} = {K!r} if {o} else 0.0")
            return o, dt, df
        self.tick()
        op = expr.op
        if op == "not":
            v, dt, df = self.pred(expr.operand)
            t = self.temp()
            self.emit(f"{t} = not {v}")
            return t, df, dt
        t, dt, df = self.temp(), self.temp(), self.temp()
        if op not in ("and", "or"):
            self.compare(expr, t, (dt, df))
            return t, dt, df
        va, ta, fa = self.pred(expr.lhs)

        def rhs():
            vb, tb, fb = self.pred(expr.rhs)
            if op == "and":
                self.emit(f"{t} = {vb}; {dt} = {ta} / ({ta} + 1) + {tb} / ({tb} + 1); "
                          f"{df} = {fb} if {fb} < {fa} else {fa}")
            else:
                self.emit(f"{t} = {vb}; {dt} = {tb} if {tb} < {ta} else {ta}; "
                          f"{df} = {fa} / ({fa} + 1) + {fb} / ({fb} + 1)")

        def short():
            # the right side is not evaluated: it counts as fully unmet
            if op == "and":
                self.emit(f"{t} = False; {dt} = {ta} / ({ta} + 1) + 1.0; {df} = 0.0")
            else:
                self.emit(f"{t} = True; {dt} = 0.0; {df} = {fa} / ({fa} + 1) + 1.0")

        self.branch(va if op == "and" else f"not {va}", rhs, short)
        return t, dt, df

    def compare(self, expr: Binary, t: str, dist: tuple[str, str] | None) -> None:
        """Emit ``t = lhs op rhs``, and its distances into ``dist`` if given."""
        l, lk = self.value(expr.lhs)
        r, rk = self.value(expr.rhs)
        self.flush()
        op = expr.op
        equality = op in ("==", "!=")

        def strings():
            if not equality:
                self.emit(self.raise_(TYPE_ERROR))
                return
            if not (lk == rk == "str"):
                self.emit(f"if type({l}) is not type({r}): {self.raise_(TYPE_ERROR)}")
            self.emit(f"{t} = {l} {op} {r}")
            if dist is not None:
                d_eq, d_ne = f"SD({l}, {r})", _distance("!=", l, r)
                dt, df = (d_eq, d_ne) if op == "==" else (d_ne, d_eq)
                self.emit(f"{dist[0]} = {dt}; {dist[1]} = {df}")

        def numbers():
            if dist is None:
                self.emit(f"{t} = {l} {op} {r}")
                return
            self.emit(f"{dist[0]} = {_distance(op, l, r)}; "
                      f"{dist[1]} = {_distance(NEGATION[op], l, r)}; {t} = {dist[0]} == 0")

        numeric = ("int", "bool")
        if lk == rk == "str":
            strings()
        elif lk in numeric and rk in numeric:
            numbers()
        elif lk in numeric or rk in numeric:
            # one side is surely not a str, so the other must not be either
            other, kind = (r, rk) if lk in numeric else (l, lk)
            if kind == "str":
                self.emit(self.raise_(TYPE_ERROR))
                return
            self.emit(f"if type({other}) is str: {self.raise_(TYPE_ERROR)}")
            numbers()
        elif lk == "str" or rk == "str":
            # one side is surely a str, so the other must be one too
            other = r if lk == "str" else l
            self.branch(f"type({other}) is str", strings,
                        lambda: self.emit(self.raise_(TYPE_ERROR)))
        else:
            self.branch(f"type({l}) is str or type({r}) is str", strings, numbers)

    # -- statements -----------------------------------------------------------------

    def statement_tick(self, stmt: Stmt) -> None:
        if self.instrumented:
            # roots, arms, loops, throws and returns all end flushed
            assert self.ticks == 0, stmt
            self.line = stmt.line_id
        self.tick()

    def root(self, expr: Expr, cond: bool, targets: str, assign: Assign | None = None) -> None:
        """Evaluate a statement root into ``targets``: inline in instrumented
        code, in lean code through its hook if the run has one, and in the
        schema shape inline, with the side evaluations of a mutation site
        (``site``). An assignment's statement tick is taken here, since a
        deleted assignment (a hook of None) skips its whole statement. The
        root ends with its ticks flushed, which a ``return`` after it relies
        on."""

        def start():
            if assign is not None:
                self.statement_tick(assign)
                if assign.name not in self.bound:
                    self.flush()
                    self.emit(f"if {self.names[assign.name]} is U: {self.raise_(TYPE_ERROR)}")

        def evaluate() -> str:
            if not cond:
                return self.value(expr)[0]
            if self.instrumented:
                return ", ".join(self.pred(expr))
            return self.cond(expr)

        def inline():
            start()
            self.emit(f"{targets} = {evaluate()}")

        if self.instrumented:
            inline()
            self.flush()
            return
        node = expr.node_id
        params = sorted(self.names[n] for n in variables(expr) if n in self.names)
        target = -1
        if assign is not None:
            local = self.names[assign.name]
            if local not in params:
                params.append(local)
            target = params.index(local)
        self.module.roots[node] = RootInfo(self.fname, cond, self.names, tuple(params),
                                           self.bound)
        if self.shape == "Q":
            site = self.module.sites.get(node)
            if site is None:
                inline()
            else:
                start()
                self.site(site, evaluate, targets, params, target)
            self.flush()
            return
        call = f"(C, S, D{''.join(', ' + p for p in params)})"

        def hooked():
            self.flush()
            if assign is None:
                self.emit(f"{targets}, S = H[{node}]{call}")
                return
            self.emit(f"h = H[{node}]")
            self.emit("if h is not None:")
            self.depth += 1
            start()
            self.flush()
            self.emit(f"{targets}, S = h{call}")
            self.depth -= 1

        self.branch(f"{node} in H", hooked, inline)

    def site(self, site: int, evaluate, targets: str, params: list[str], target: int) -> None:
        """A mutation site's root in the schema shape. It evaluates the root
        inline from step ``B``, counts the evaluation in ``V`` (values at
        ``2 * site``, raises at ``2 * site + 1``) and redoes each alternative
        still pending there in this run: ``(m, a, o)`` in ``P[site]``, the
        mutant's id, its lean function (None for a deleted assignment, whose
        redo reads its variable's old value, at index ``target`` of
        ``params``) and its own hooks. A value's redos are inline, and ``RE``
        counts a raise and redoes after it. An infected mutant leaves
        ``P[site]``. ``targets`` take the value last, so every redo sees the
        root's variables ``params`` as they were before it."""
        args = "".join(", " + p for p in params)
        self.emit(f"B = S + {self.ticks}" if self.ticks else "B = S")
        self.emit("try:")
        self.depth += 1
        result = evaluate()
        self.flush()
        self.depth -= 1
        self.emit("except E as e:")
        self.emit(f" RE(e, {site}, B, C, D{args})")
        self.emit(" raise")
        self.emit(f"V[{2 * site}] += 1")
        self.emit(f"if P[{site}]:")
        self.depth += 1
        self.emit("y = 0")
        self.emit(f"for m, a, o in P[{site}]:")
        redo = [f"try: w, s = a((L, o, NJ), B, D{args})", "except E: w = None"]
        if target >= 0:
            redo = [f"if a is None: w = {params[target]}; s = S", "else:"] + [" " + r for r in redo]
        for line in redo + [
                f"if w != {result} or type(w) is not type({result}): Z.infected.add(m); y = 1",
                "elif s != S: Z.drifted.add(m)"]:
            self.emit(" " + line)
        rearm = f"; {self.rearm} = 1" if self.rearm else ""
        self.emit(f"if y: P[{site}] = [q for q in P[{site}] if q[0] not in Z.infected]{rearm}")
        self.depth -= 1
        self.emit(f"{targets} = {result}")

    def condition(self, stmt: If | While) -> str:
        """Evaluate a branch condition, and merge its distances in instrumented code."""
        if not self.instrumented:
            t = self.temp()
            self.root(stmt.cond, True, t)
            return t
        t, dt, df = self.temp(), self.temp(), self.temp()
        self.root(stmt.cond, True, f"({t}, {dt}, {df})")
        args = f"{stmt.branch_id}, {dt}, {df}"
        self.emit(f"MB(BB, {args})")
        if self.module.analysis.calls:  # else BD is BB (see ``interpreter.execute``)
            self.emit(f"if D == 0: MB(BD, {args})")
        return t

    def block(self, body: list[Stmt]) -> None:
        """Emit a statement list. Statements after one that always returns
        or throws are emitted too, unreachable, so that every root has its
        hook information."""
        for stmt in body:
            self.statement(stmt)

    def statement(self, stmt: Stmt) -> None:
        self.bound = self.module.analysis.bound[stmt.line_id]
        cls = type(stmt)
        if cls is Assign:
            self.root(stmt.expr, False, self.names[stmt.name], stmt)
            return
        self.statement_tick(stmt)
        if cls is Let:
            self.root(stmt.expr, False, self.names[stmt.name])
        elif cls is Return:
            t = self.temp()
            self.root(stmt.expr, False, t)
            self.emit(f"return ({t}, S)")
        elif cls is Throw:
            self.flush()
            self.emit(f"raise E({EXPLICIT_THROW!r}, {self.fq}, S, {stmt.tag!r})")
        elif cls is If:
            t = self.condition(stmt)
            self.branch(t, lambda: self.block(stmt.then_body), lambda: self.block(stmt.else_body))
        elif cls is While:
            self.flush()  # the loop head is a join point
            after = self.jump(stmt)
            if self.shape == "K":
                checks = self.temp()
                self.emit(f"{checks} = 0")
            self.emit("while True:")
            self.depth += 1
            if self.shape == "K":
                self.cycle_check(stmt, checks)
            t = self.condition(stmt)
            self.emit(f"if not {t}: break")
            self.block(stmt.body)
            self.flush()
            if after is not None:
                self.emit(after)
            self.rearm = None
            self.depth -= 1
        else:
            raise TypeError(f"unknown statement node {stmt!r}")

    def jump(self, loop: While) -> str | None:
        """The jump of a loop the analysis lists (see ``analysis.Jump``), a
        function of the step count, the limit and the loop's variables that
        raises the run's ``StepLimitExceeded`` when the loop provably passes
        its condition on every pass up to the limit, and else returns the
        step count and the variables to go on with, which the call assigns
        back: those at the head of the pass on which the loop leaves, or
        those it was given, where it does not jump. In lean code it is the
        running program's, if ``J`` holds one (a run that may be cut), and
        is called as the loop starts. The instrumented and schema shapes run
        only the base program, so a loop jumps there only if the analysed
        program's own version of it does (``Analysis.own_jumps``): it is
        called at the head of the second pass, through the statement this
        returns, which the loop's body ends with, guarded by a flag set as
        the loop starts. A schema shape's flag is set again at each
        infection at one of the loop's sites, since an alternative without
        a closed form, which keeps the loop from jumping, may be gone."""
        found = self.module.analysis.loops.get(loop.branch_id)
        if found is None:
            return None
        b = loop.branch_id
        values = "".join(f", {self.names[n]}" for n in found[1])
        back = f"[S{values}] = J[{b}]"  # the step count and the variables to go on with
        if self.shape == "K":
            self.emit(f"if J is not None and {b} in J: {back}(S, L{values})")
            return None
        if b not in self.module.analysis.own_jumps:
            return None
        flag = self.temp()
        self.emit(f"{flag} = 1")
        if self.instrumented:
            direct = "None if D else BD" if self.module.analysis.calls else "None"
            return f"if {flag}: {flag} = 0; {back}.traced(S, L, BB, {direct}{values})"
        self.rearm = flag
        roots = [loop.cond] + [stmt.expr for stmt in loop.body]
        sites = tuple(self.module.sites.get(root.node_id, -1) for root in roots)
        return f"if {flag}: {flag} = 0; {back}.schema(S, L, C, {sites!r}{values})"

    def cycle_check(self, loop: While, checks: str) -> None:
        """At a lean loop head past ``CYCLE_CHECK_AFTER`` steps of a run
        that may be cut, Brent's cycle detection on the loop's control state:
        the values of the variables of its control slice, and the kinds of
        the variables it assigns whose kinds are not proven. The state is
        saved at the 1st, 2nd, 4th, ... check (``checks`` counts them) and
        every later check compares against it, values first, so that a
        state that moves on fails at its first item. Once it repeats after P
        steps, every later period repeats it too, so whole periods are added
        to S up to the limit and the run goes on to cross it as it would
        have."""
        assigned, slice_ = control_slice(loop)
        # (expression, saved copy) pairs; kinds compare by identity
        state = [(self.names[n], self.temp()) for n in assigned if n in slice_]
        kinds = [(f"type({self.names[n]})", self.temp()) for n in assigned
                 if self.known.get(n) is None]
        at = self.temp()
        same = [f"{v} == {t}" for v, t in state] + [f"{k} is {t}" for k, t in kinds]
        save = "".join(f"{t} = {v}; " for v, t in state + kinds)
        self.emit(f"if S > {CYCLE_CHECK_AFTER} and J is not None:")
        self.depth += 1
        self.emit(f"if {' and '.join([checks] + same)}: S += (L - S) // (S - {at}) * (S - {at})")
        self.emit(f"{checks} += 1")
        self.emit(f"if not {checks} & ({checks} - 1): {save}{at} = S")
        self.depth -= 1


def _locals(fn: FunctionDef) -> dict[str, str]:
    """MiniJ variable -> Python local: the parameters first, then every
    variable a statement binds."""
    names = {p: f"v{i}" for i, (p, _) in enumerate(fn.params)}
    for stmt in walk_statements(fn.body):
        if type(stmt) in (Let, Assign) and stmt.name not in names:
            names[stmt.name] = f"v{len(names)}"
    return names


# how each shape's functions unpack their run's context
_CONTEXTS = {"I": "L, LA, BB, BD, CA, J = C", "K": "L, H, J = C", "Q": "L, P, V, Z, J = C"}


def program_source(program: Program, shape: str, analysis: Analysis,
                   sites: tuple[int, ...] = ()) -> tuple[str, dict[int, RootInfo]]:
    """The Python source of one shape of a program's functions, and what
    each statement root's hook sees (lean code only: the other shapes have
    no hooks). MiniJ function ``i`` (in program order) becomes ``I{i}``,
    instrumented, ``K{i}``, lean, or ``Q{i}``, the schema shape, whose
    mutation sites are the roots ``sites`` lists, by index."""
    module = _Module(program, analysis, {node: i for i, node in enumerate(sites)})
    sources = []
    for i, fn in enumerate(program.functions):
        names = _locals(fn)
        params = tuple(names[p] for p, _ in fn.params)
        unbound = [v for v in names.values() if v not in params]
        code = _Code(module, fn.name, shape, names, frozenset())  # each statement sets it
        if unbound:
            code.emit(" = ".join(unbound) + " = U")
        code.block(fn.body)
        code.flush()
        code.emit("return (0, S)")  # falling off the end yields int 0
        sources.append(code.finish(f"{shape}{i}", params))
    return "\n".join(sources) + "\n", module.roots


def root_source(name: str, info: RootInfo, expr: Expr, program: Program,
                analysis: Analysis) -> str:
    """A lean function ``name`` evaluating ``expr`` at the root ``info``
    describes, with that root's statement already ticked."""
    code = _Code(_Module(program, analysis), info.function, "K", info.names, info.bound)
    result = code.cond(expr) if info.cond else code.value(expr)[0]
    code.flush()
    code.emit(f"return ({result}, S)")
    return code.finish(name, info.params) + "\n"
