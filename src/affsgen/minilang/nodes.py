"""AST node types for MiniJ programs.

Identifiers are assigned at parse time in lexical order: every statement gets
a ``line_id``, every ``if``/``while`` site a ``branch_id``, and every
expression node a ``node_id``. Parsing the same source always produces the
same ids, which lets traces, mutants, and coverage goals refer to program
locations stably.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Union

Kind = str  # one of "int", "bool", "str"

KINDS = ("int", "bool", "str")


# --- expressions ---------------------------------------------------------


@dataclass(slots=True)
class IntLit:
    value: int
    node_id: int = -1


@dataclass(slots=True)
class BoolLit:
    value: bool
    node_id: int = -1


@dataclass(slots=True)
class StrLit:
    value: str
    node_id: int = -1


@dataclass(slots=True)
class Var:
    name: str
    node_id: int = -1


@dataclass(slots=True)
class Unary:
    op: str  # "neg" | "not"
    operand: "Expr"
    node_id: int = -1


@dataclass(slots=True)
class Binary:
    op: str  # arithmetic, comparison, or "and"/"or"
    lhs: "Expr"
    rhs: "Expr"
    node_id: int = -1


@dataclass(slots=True)
class Call:
    name: str
    args: list["Expr"]
    node_id: int = -1


@dataclass(slots=True)
class Len:
    operand: "Expr"
    node_id: int = -1


@dataclass(slots=True)
class Index:
    base: "Expr"
    index: "Expr"
    node_id: int = -1


Expr = Union[IntLit, BoolLit, StrLit, Var, Unary, Binary, Call, Len, Index]

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/")


# --- statements ----------------------------------------------------------


@dataclass(slots=True)
class Let:
    name: str
    expr: Expr
    line_id: int = -1


@dataclass(slots=True)
class Assign:
    name: str
    expr: Expr
    line_id: int = -1


@dataclass(slots=True)
class If:
    cond: Expr
    then_body: list["Stmt"]
    else_body: list["Stmt"]
    line_id: int = -1
    branch_id: int = -1


@dataclass(slots=True)
class While:
    cond: Expr
    body: list["Stmt"]
    line_id: int = -1
    branch_id: int = -1


@dataclass(slots=True)
class Return:
    expr: Expr
    line_id: int = -1


@dataclass(slots=True)
class Throw:
    tag: str
    line_id: int = -1


Stmt = Union[Let, Assign, If, While, Return, Throw]


# --- top level -----------------------------------------------------------


@dataclass(slots=True)
class FunctionDef:
    name: str
    params: list[tuple[str, Kind]]
    body: list[Stmt]


@dataclass(slots=True)
class Program:
    functions: list[FunctionDef]
    source_id: str = "<anonymous>"
    line_count: int = 0
    branch_count: int = 0
    node_count: int = 0
    # a mutated program's base program, and the root it replaces there: the
    # node id and the alternative root, None for a deleted assignment
    base: "Program | None" = field(default=None, repr=False, compare=False)
    root_id: int = field(default=-1, repr=False, compare=False)
    alt_root: "Expr | None" = field(default=None, repr=False, compare=False)
    _fn_map: dict | None = field(default=None, repr=False, compare=False)
    # the interpreter's plan, set on the first run: the compiled module, the
    # hooks and the loops' jumps. A base program shares its module's plan,
    # and the module holds all that depends on the program's text alone:
    # its mutants and its schema shape included (``interpreter._Compiled``)
    _compiled: list | None = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        # compiled code does not pickle; a copy finds its text's module, or
        # makes one, on its first use
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["_compiled"] = None
        return (None, state)

    def fn_map(self) -> dict[str, FunctionDef]:
        if self._fn_map is None:
            self._fn_map = {fn.name: fn for fn in self.functions}
        return self._fn_map

    def function(self, name: str) -> FunctionDef | None:
        return self.fn_map().get(name)

    @property
    def function_names(self) -> list[str]:
        return [fn.name for fn in self.functions]

    def signature(self) -> tuple[tuple[str, tuple[Kind, ...]], ...]:
        """Public signature: function names with parameter kinds, sorted."""
        return tuple(
            sorted((fn.name, tuple(k for _, k in fn.params)) for fn in self.functions)
        )


def walk_statements(body: list[Stmt]):
    """Yield every statement in a body, descending into if/while blocks."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)
        elif isinstance(stmt, While):
            yield from walk_statements(stmt.body)


def walk_expressions(expr: Expr):
    """Yield an expression and all of its sub-expressions."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk_expressions(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_expressions(expr.lhs)
        yield from walk_expressions(expr.rhs)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_expressions(arg)
    elif isinstance(expr, Len):
        yield from walk_expressions(expr.operand)
    elif isinstance(expr, Index):
        yield from walk_expressions(expr.base)
        yield from walk_expressions(expr.index)


def statement_expressions(stmt: Stmt):
    """Yield the expressions attached directly to a statement."""
    if isinstance(stmt, (Let, Assign, Return)):
        yield stmt.expr
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, While):
        yield stmt.cond
