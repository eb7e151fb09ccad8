"""Text grammar for polynomials: parser and canonical printer.

Grammar (whitespace insignificant)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := (coeff | factor) ('*'? (coeff | factor))*
    factor := ident ('^' nat)? | '(' expr ')'
    coeff  := int ('/' nat)?

Parenthesized subexpressions are accepted as factors so that nested
inputs like ``y + x^2*(x*z + y*(y*u + z^2))`` parse directly.

Identifiers starting with the reserved prefix ``_`` are rejected: that
namespace belongs to internally generated variables (shift variables,
membership tags, inverted copies).  So are exponents above
``EXPONENT_LIMIT`` and parentheses nested deeper than ``MAX_NESTING``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import EXPONENT_LIMIT, GREVLEX, MonomialOrder, Polynomial, RESERVED_PREFIX, VarContext

#: Deepest parenthesis nesting accepted.  Each level costs three frames
#: of the recursive descent, so this stays well inside Python's recursion
#: limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or name error, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            raise ParseError("unexpected character %r" % text[pos], line, col)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: VarContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def error(self, message: str):
        pos = self.tokens[self.i][2]
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        raise ParseError(message, line, col)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self) -> Polynomial:
        negate = False
        if self.peek()[:2] == ("op", "-"):
            self.next()
            negate = True
        total = self.term()
        if negate:
            total = -total
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.next()[1]
            t = self.term()
            total = total - t if op == "-" else total + t
        return total

    # term := (coeff | factor) ('*'? (coeff | factor))*
    def term(self) -> Polynomial:
        total = self.primary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                total = total * self.primary()
            elif kind in ("int", "ident") or (kind == "op" and val == "("):
                total = total * self.primary()
            else:
                return total

    def primary(self) -> Polynomial:
        kind, val, _ = self.peek()
        if kind == "int":
            return self.coeff()
        if kind == "ident":
            return self.factor()
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                self.error("parentheses nested deeper than %d" % MAX_NESTING)
            self.next()
            self.depth += 1
            inner = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.error("expected ')'")
            self.next()
            self.depth -= 1
            return inner
        self.error("expected a coefficient, variable or '('")

    def coeff(self) -> Polynomial:
        num = int(self.next()[1])
        if self.peek()[:2] == ("op", "/"):
            self.next()
            if self.peek()[0] != "int":
                self.error("expected a denominator")
            den = int(self.next()[1])
            if den == 0:
                self.error("zero denominator")
            return Polynomial.constant(self.ctx, Fraction(num, den))
        return Polynomial.constant(self.ctx, num)

    def factor(self) -> Polynomial:
        name = self.next()[1]
        if name.startswith(RESERVED_PREFIX):
            self.i -= 1
            self.error("identifier %r uses the reserved prefix %r" % (name, RESERVED_PREFIX))
        if name not in self.ctx:
            self.i -= 1
            self.error("unknown variable %r" % name)
        p = Polynomial.variable(self.ctx, name)
        if self.peek()[:2] == ("op", "^"):
            self.next()
            if self.peek()[0] != "int":
                self.error("expected an exponent")
            if int(self.peek()[1]) > EXPONENT_LIMIT:
                self.error("exponent exceeds %d" % EXPONENT_LIMIT)
            return p ** int(self.next()[1])
        return p


def parse_polynomial(text: str, ctx: VarContext) -> Polynomial:
    """Parse `text` into an exact Polynomial over `ctx`.

    Raises ParseError (with line/column) on syntax errors, unknown
    variables, and reserved-prefix identifiers.
    """
    parser = _Parser(text, ctx)
    result = parser.expr()
    if parser.peek()[0] != "eof":
        parser.error("unexpected trailing input")
    return result


def format_polynomial(f: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Canonical string: terms descending in `order`, exact coefficients."""
    if f.is_zero():
        return "0"
    parts = []
    for mono, coeff in f.sorted_terms(order):
        factors = []
        for name, e in zip(f.ctx.names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)
