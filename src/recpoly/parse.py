"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := uint | var | '(' expr ')' | '-' base

Exponents must be non-negative integer literals and variables must appear
in the declared variable list.  Errors carry a 1-based column.  Nesting
deeper than MAX_NESTING levels is a ParseError, not a stack overflow.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .ring import MultiPoly

# Deepest nesting either stage accepts, counted as the open parentheses and
# unary minus signs around a subexpression.  ast_to_poly counts those the
# AST needs written out, so it accepts every AST the parser builds.
MAX_NESTING = 100


class ParseError(ValueError):
    """Malformed expression text; ``column`` is 1-based, or None for an AST."""

    def __init__(self, message: str, column: Optional[int] = None):
        super().__init__(message if column is None else f"column {column}: {message}")
        self.column = column


def _too_deep(column: Optional[int] = None) -> ParseError:
    return ParseError(f"expression nested deeper than {MAX_NESTING} levels", column)


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Sub:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class Mul:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int


ExprAst = Union[Lit, Var, Add, Sub, Neg, Mul, Pow]

# Nodes written without brackets as a '^' base, and as a factor of '*'.
_BASES = (Lit, Var, Neg)
_FACTORS = (*_BASES, Pow)


# -- tokenizer ------------------------------------------------------------------

# The one rule for variable names, here and in spec documents.
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
NAME_RULE = "an ASCII letter or '_', then letters, digits or '_'"
_TOKEN_RE = re.compile(rf"\s*(?:(\d+)|({_NAME})|([-+*^()]))")


def is_name(text: str) -> bool:
    """Whether ``text`` is a variable name the tokenizer reads as one token."""
    return re.fullmatch(_NAME, text) is not None


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", col)
        column = match.start(match.lastindex) + 1
        if match.group(1) is not None:
            try:
                tokens.append(("int", int(match.group(1)), column))
            except ValueError:  # past the interpreter's int/str conversion limit
                digits = len(match.group(1))
                raise ParseError(f"integer literal of {digits} digits is too long", column) from None
        elif match.group(2) is not None:
            tokens.append(("name", match.group(2), column))
        else:
            tokens.append(("op", match.group(3), column))
        pos = match.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        self.variables = tuple(variables)

    def peek(self) -> tuple[str, str | int, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str | int, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol: str) -> None:
        kind, value, column = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", column)
        self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, value, column = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {str(value)!r}", column)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right = self.term()
                node = Add(node, right) if value == "+" else Sub(node, right)
            else:
                return node

    def term(self) -> ExprAst:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = Mul(node, self.factor())
            else:
                return node

    def factor(self) -> ExprAst:
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            ekind, evalue, ecolumn = self.peek()
            if ekind != "int":
                raise ParseError("exponent must be a non-negative integer literal", ecolumn)
            self.advance()
            return Pow(node, evalue)
        return node

    def base(self) -> ExprAst:
        kind, value, column = self.advance()
        if kind == "int":
            return Lit(value)
        if kind == "name":
            if value not in self.variables:
                raise ParseError(
                    f"unknown variable {value!r} (declared: {', '.join(self.variables) or 'none'})",
                    column,
                )
            return Var(value)
        if kind == "op" and value in "(-":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise _too_deep(column)
            if value == "(":
                node = self.expr()
                self.expect_op(")")
            else:
                node = Neg(self.base())
            self.depth -= 1
            return node
        raise ParseError(f"expected a number, variable, '(' or '-', got {value!r}"
                         if kind != "end" else "unexpected end of input", column)


def parse_expr(text: str, variables: Sequence[str]) -> ExprAst:
    """Parse ``text`` against the grammar; raises ParseError with a 1-based column."""
    return _Parser(text, variables).parse()


def ast_to_poly(node: ExprAst, variables: Sequence[str]) -> MultiPoly:
    """Lower an AST to a polynomial; ParseError past MAX_NESTING levels."""
    variables = tuple(variables)

    def lower(node: ExprAst, depth: int) -> MultiPoly:
        if depth > MAX_NESTING:
            raise _too_deep()
        if isinstance(node, Lit):
            return MultiPoly.const(variables, node.value)
        if isinstance(node, Var):
            return MultiPoly.var(node.name, variables)
        if isinstance(node, Neg):
            return -lower(node.operand, depth + 1)
        if isinstance(node, Pow):
            bracketed = not isinstance(node.base, _BASES)
            return lower(node.base, depth + bracketed) ** node.exponent
        if isinstance(node, (Add, Sub, Mul)):
            # The parser builds sums and products left-deep, so walk the
            # left spine in a loop: a long flat sum must not nest.
            spine = []
            while isinstance(node, (Add, Sub, Mul)):
                spine.append(node)
                node = node.left
            acc = lower(node, depth)
            for op in reversed(spine):
                # A right operand that binds no tighter than op is bracketed.
                tighter = _FACTORS if isinstance(op, Mul) else (*_FACTORS, Mul)
                right = lower(op.right, depth + (not isinstance(op.right, tighter)))
                if isinstance(op, Add):
                    acc = acc + right
                elif isinstance(op, Sub):
                    acc = acc - right
                else:
                    acc = acc * right
            return acc
        raise TypeError(f"not an expression node: {node!r}")

    return lower(node, 0)


def parse_poly(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse and lower to a polynomial in one step."""
    return ast_to_poly(parse_expr(text, variables), variables)
