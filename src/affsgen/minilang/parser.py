"""Recursive-descent parser for MiniJ source text.

Grammar (file extension ``.minij``)::

    program    := fndef*
    fndef      := "fn" NAME "(" [param ("," param)*] ")" block
    param      := NAME ":" ("int" | "bool" | "str")
    block      := "{" stmt* "}"
    stmt       := "let" NAME "=" expr ";"
                | NAME "=" expr ";"
                | "if" "(" expr ")" block ["else" block]
                | "while" "(" expr ")" block
                | "return" expr ";"
                | "throw" STRING ";"
    expr       := or_expr
    or_expr    := and_expr ("or" and_expr)*
    and_expr   := not_expr ("and" not_expr)*
    not_expr   := "not" not_expr | comparison
    comparison := additive [("==" | "!=" | "<" | "<=" | ">" | ">=") additive]
    additive   := term (("+" | "-") term)*
    term       := unary (("*" | "/") unary)*
    unary      := "-" unary | postfix
    postfix    := primary ("[" expr "]")*
    primary    := INT | STRING | "true" | "false" | NAME
                | NAME "(" [expr ("," expr)*] ")" | "len" "(" expr ")"
                | "(" expr ")"

The rules from ``or_expr`` to ``unary`` are one table of precedence levels,
``_LEVELS``, which one method reads. Line comments start with ``//``.
Comments and whitespace carry no ids; line ids count statements, not source
lines.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from affsgen.minilang import nodes
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
)

KEYWORDS = {
    "fn",
    "let",
    "if",
    "else",
    "while",
    "return",
    "throw",
    "true",
    "false",
    "and",
    "or",
    "not",
    "len",
    "int",
    "bool",
    "str",
}

# Deepest expression tree, and deepest bracket nesting, a program may use.
# The parser, the code generator and the tree walkers recurse once per
# level, so past this a deep expression would exhaust Python's recursion
# limit.
MAX_EXPR_DEPTH = 64

# Deepest nesting of statement blocks (a function body is one level, each
# if/while block inside it one more), for the same reason and for CPython's
# limits on the generated code (see ``codegen``): at 16 a function nests at
# most 15 loops, under CPython's 20 per function, and 16 blocks plus a
# condition MAX_EXPR_DEPTH deep stay under its 100 indentation levels.
MAX_BLOCK_DEPTH = 16

# Precedence levels, loosest first: binary operators that chain left to
# right, a comparison, which takes one right operand and does not chain, or
# a prefix operator, which may repeat, mapped to its ``Unary`` op. An
# operator's text is never that of another kind of token, so the parser
# matches on text alone.
_LEVELS = (
    ("chain", ("or",)),
    ("chain", ("and",)),
    ("prefix", {"not": "not"}),
    ("compare", nodes.COMPARISON_OPS),
    ("chain", ("+", "-")),
    ("chain", ("*", "/")),
    ("prefix", {"-": "neg"}),
)

_SYMBOLS = ("==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "=",
            "(", ")", "{", "}", "[", "]", ",", ";", ":")


class ParseError(ValueError):
    """Syntax or validation error, carrying a 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(slots=True)
class _Token:
    kind: str  # "name", "int", "string", "symbol", "eof"
    text: str
    value: object
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            text = source[i:j]
            # fewer digits than Python converts, so that the literal's
            # neighbours, which a mutant or a test may hold, still convert
            if 0 < sys.get_int_max_str_digits() <= len(text):
                raise ParseError(f"integer literal of {len(text)} digits is too long",
                                 start_line, start_col)
            tokens.append(_Token("int", text, int(text), start_line, start_col))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            tokens.append(_Token("name", text, text, start_line, start_col))
            advance(j - i)
            continue
        if ch == '"':
            j = i + 1
            chars: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                elif source[j] == "\n":
                    raise ParseError("unterminated string literal", start_line, start_col)
                else:
                    chars.append(source[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string literal", start_line, start_col)
            tokens.append(_Token("string", source[i : j + 1], "".join(chars), start_line, start_col))
            advance(j + 1 - i)
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(_Token("symbol", sym, sym, start_line, start_col))
                advance(len(sym))
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("eof", "", None, line, col))
    return tokens


class _Parser:
    def __init__(self, source: str, source_id: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.source_id = source_id
        self.next_line_id = 0
        self.next_branch_id = 0
        self.next_node_id = 0
        self.heights: list[int] = []  # node_id -> height of its expression tree
        self.nesting = 0  # brackets open around the expression being parsed
        self.blocks = 0  # statement blocks open around the current statement

    # -- token helpers ----------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> ParseError:
        tok = self.current
        where = "end-of-input" if tok.kind == "eof" else repr(tok.text)
        return ParseError(f"{message}, found {where}", tok.line, tok.column)

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        tok = self.current
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.accept(kind, text)
        if tok is None:
            expected = text if text is not None else kind
            raise self.error(f"expected {expected!r}")
        return tok

    def expect_name(self) -> str:
        tok = self.current
        if tok.kind != "name" or tok.text in KEYWORDS:
            raise self.error("expected identifier")
        self.pos += 1
        return tok.text

    # -- id assignment ----------------------------------------------------

    def line_id(self) -> int:
        lid = self.next_line_id
        self.next_line_id += 1
        return lid

    def branch_id(self) -> int:
        bid = self.next_branch_id
        self.next_branch_id += 1
        return bid

    def node_id(self, *children: Expr) -> int:
        height = 1 + max((self.heights[c.node_id] for c in children), default=0)
        if height > MAX_EXPR_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        self.heights.append(height)
        nid = self.next_node_id
        self.next_node_id += 1
        return nid

    # -- grammar ----------------------------------------------------------

    def parse_program(self) -> Program:
        functions: list[FunctionDef] = []
        seen: set[str] = set()
        while self.current.kind != "eof":
            tok = self.current
            fn = self.parse_function()
            if fn.name in seen:
                raise ParseError(f"duplicate function name {fn.name!r}", tok.line, tok.column)
            seen.add(fn.name)
            functions.append(fn)
        program = Program(
            functions=functions,
            source_id=self.source_id,
            line_count=self.next_line_id,
            branch_count=self.next_branch_id,
            node_count=self.next_node_id,
        )
        _validate_calls(program)
        return program

    def parse_function(self) -> FunctionDef:
        self.expect("name", "fn")
        name = self.expect_name()
        self.expect("symbol", "(")
        params: list[tuple[str, str]] = []
        if not self.accept("symbol", ")"):
            while True:
                ptok = self.current
                pname = self.expect_name()
                self.expect("symbol", ":")
                ktok = self.current
                if ktok.kind != "name" or ktok.text not in nodes.KINDS:
                    raise self.error("expected parameter kind int, bool, or str")
                self.pos += 1
                if any(p == pname for p, _ in params):
                    raise ParseError(f"duplicate parameter name {pname!r}", ptok.line, ptok.column)
                params.append((pname, ktok.text))
                if self.accept("symbol", ")"):
                    break
                self.expect("symbol", ",")
        body = self.parse_block()
        return FunctionDef(name=name, params=params, body=body)

    def parse_block(self) -> list[Stmt]:
        self.blocks += 1
        if self.blocks > MAX_BLOCK_DEPTH:
            raise self.error(f"blocks nested deeper than {MAX_BLOCK_DEPTH} levels")
        self.expect("symbol", "{")
        stmts: list[Stmt] = []
        while not self.accept("symbol", "}"):
            if self.current.kind == "eof":
                raise self.error("expected '}'")
            stmts.append(self.parse_statement())
        self.blocks -= 1
        return stmts

    def parse_statement(self) -> Stmt:
        if self.accept("name", "let"):
            lid = self.line_id()
            name = self.expect_name()
            self.expect("symbol", "=")
            expr = self.parse_expr()
            self.expect("symbol", ";")
            return Let(name=name, expr=expr, line_id=lid)
        if self.accept("name", "if"):
            lid = self.line_id()
            bid = self.branch_id()
            self.expect("symbol", "(")
            cond = self.parse_expr()
            self.expect("symbol", ")")
            then_body = self.parse_block()
            else_body: list[Stmt] = []
            if self.accept("name", "else"):
                else_body = self.parse_block()
            return If(cond=cond, then_body=then_body, else_body=else_body, line_id=lid, branch_id=bid)
        if self.accept("name", "while"):
            lid = self.line_id()
            bid = self.branch_id()
            self.expect("symbol", "(")
            cond = self.parse_expr()
            self.expect("symbol", ")")
            body = self.parse_block()
            return While(cond=cond, body=body, line_id=lid, branch_id=bid)
        if self.accept("name", "return"):
            lid = self.line_id()
            expr = self.parse_expr()
            self.expect("symbol", ";")
            return Return(expr=expr, line_id=lid)
        if self.accept("name", "throw"):
            lid = self.line_id()
            tag = self.expect("string").value
            self.expect("symbol", ";")
            return Throw(tag=str(tag), line_id=lid)
        # assignment
        name = self.expect_name()
        lid = self.line_id()
        self.expect("symbol", "=")
        expr = self.parse_expr()
        self.expect("symbol", ";")
        return Assign(name=name, expr=expr, line_id=lid)

    def parse_expr(self) -> Expr:
        self.nesting += 1
        if self.nesting > MAX_EXPR_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        expr = self.parse_level(0)
        self.nesting -= 1
        return expr

    def parse_level(self, level: int) -> Expr:
        """An expression at precedence ``level`` of ``_LEVELS`` or tighter."""
        if level == len(_LEVELS):
            return self.parse_postfix()
        shape, ops = _LEVELS[level]
        if shape == "prefix":
            prefixes = []
            while self.current.text in ops:
                prefixes.append(ops[self.current.text])
                self.pos += 1
            expr = self.parse_level(level + 1)
            for op in prefixes:
                expr = Unary(op=op, operand=expr, node_id=self.node_id(expr))
            return expr
        expr = self.parse_level(level + 1)
        while self.current.text in ops:
            op = self.current.text
            self.pos += 1
            rhs = self.parse_level(level + 1)
            expr = Binary(op=op, lhs=expr, rhs=rhs, node_id=self.node_id(expr, rhs))
            if shape == "compare":
                break
        return expr

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.accept("symbol", "["):
            index = self.parse_expr()
            self.expect("symbol", "]")
            expr = Index(base=expr, index=index, node_id=self.node_id(expr, index))
        return expr

    def parse_primary(self) -> Expr:
        tok = self.current
        if tok.kind == "int":
            self.pos += 1
            return IntLit(value=int(tok.value), node_id=self.node_id())  # type: ignore[arg-type]
        if tok.kind == "string":
            self.pos += 1
            return StrLit(value=str(tok.value), node_id=self.node_id())
        if self.accept("name", "true"):
            return BoolLit(value=True, node_id=self.node_id())
        if self.accept("name", "false"):
            return BoolLit(value=False, node_id=self.node_id())
        if self.accept("name", "len"):
            self.expect("symbol", "(")
            operand = self.parse_expr()
            self.expect("symbol", ")")
            return Len(operand=operand, node_id=self.node_id(operand))
        if self.accept("symbol", "("):
            expr = self.parse_expr()
            self.expect("symbol", ")")
            return expr
        if tok.kind == "name" and tok.text not in KEYWORDS:
            name = self.expect_name()
            if self.accept("symbol", "("):
                args: list[Expr] = []
                if not self.accept("symbol", ")"):
                    while True:
                        args.append(self.parse_expr())
                        if self.accept("symbol", ")"):
                            break
                        self.expect("symbol", ",")
                return Call(name=name, args=args, node_id=self.node_id(*args))
            return Var(name=name, node_id=self.node_id())
        raise self.error("expected expression")


def _validate_calls(program: Program) -> None:
    """Every in-program call must target an existing function with matching arity."""
    arities = {fn.name: len(fn.params) for fn in program.functions}
    for fn in program.functions:
        for stmt in nodes.walk_statements(fn.body):
            for root in nodes.statement_expressions(stmt):
                for expr in nodes.walk_expressions(root):
                    if isinstance(expr, Call):
                        if expr.name not in arities:
                            raise ParseError(
                                f"call to unknown function {expr.name!r} in {fn.name!r}", 1, 1
                            )
                        if len(expr.args) != arities[expr.name]:
                            raise ParseError(
                                f"call to {expr.name!r} with {len(expr.args)} args, "
                                f"expected {arities[expr.name]}",
                                1,
                                1,
                            )


def parse(source: str, source_id: str = "<anonymous>") -> Program:
    """Parse MiniJ source text into a Program with stable ids."""
    return _Parser(source, source_id).parse_program()


# --- pretty printer ------------------------------------------------------


def string_source(value: str) -> str:
    """A string as a MiniJ literal: quoted, on one line, read back unchanged."""
    escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def expr_source(expr: Expr) -> str:
    """Render an expression as MiniJ text, fully parenthesized."""
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, StrLit):
        return string_source(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Unary):
        inner = expr_source(expr.operand)
        return f"(-{inner})" if expr.op == "neg" else f"(not {inner})"
    if isinstance(expr, Binary):
        return f"({expr_source(expr.lhs)} {expr.op} {expr_source(expr.rhs)})"
    if isinstance(expr, Call):
        return f"{expr.name}({', '.join(expr_source(a) for a in expr.args)})"
    if isinstance(expr, Len):
        return f"len({expr_source(expr.operand)})"
    if isinstance(expr, Index):
        return f"{expr_source(expr.base)}[{expr_source(expr.index)}]"
    raise TypeError(f"unknown expression node {expr!r}")


def _stmt_source(stmt: Stmt, indent: str) -> list[str]:
    if isinstance(stmt, Let):
        return [f"{indent}let {stmt.name} = {expr_source(stmt.expr)};"]
    if isinstance(stmt, Assign):
        return [f"{indent}{stmt.name} = {expr_source(stmt.expr)};"]
    if isinstance(stmt, Return):
        return [f"{indent}return {expr_source(stmt.expr)};"]
    if isinstance(stmt, Throw):
        return [f"{indent}throw {string_source(stmt.tag)};"]
    if isinstance(stmt, If):
        lines = [f"{indent}if ({expr_source(stmt.cond)}) {{"]
        for inner in stmt.then_body:
            lines.extend(_stmt_source(inner, indent + "  "))
        if stmt.else_body:
            lines.append(f"{indent}}} else {{")
            for inner in stmt.else_body:
                lines.extend(_stmt_source(inner, indent + "  "))
        lines.append(f"{indent}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{indent}while ({expr_source(stmt.cond)}) {{"]
        for inner in stmt.body:
            lines.extend(_stmt_source(inner, indent + "  "))
        lines.append(f"{indent}}}")
        return lines
    raise TypeError(f"unknown statement node {stmt!r}")


def to_source(program: Program) -> str:
    """Render a Program back to parseable MiniJ text."""
    lines: list[str] = []
    for fn in program.functions:
        params = ", ".join(f"{n}:{k}" for n, k in fn.params)
        lines.append(f"fn {fn.name}({params}) {{")
        for stmt in fn.body:
            lines.extend(_stmt_source(stmt, "  "))
        lines.append("}")
        lines.append("")
    return "\n".join(lines)
