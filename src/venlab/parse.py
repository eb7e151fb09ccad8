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
from functools import reduce
from operator import add, mul

from .poly import (
    EXPONENT_LIMIT,
    GREVLEX,
    RESERVED_PREFIX,
    MonomialOrder,
    Polynomial,
    VarContext,
    _fields,
    _max_exponents,
)

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


#: One token with the whitespace before it; `bad` takes any other
#: character, or the empty string at the end of the text.
_TOKEN = re.compile(r"""\s*(?:
    (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>.?)
)""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "bad":
            if pos == len(text):
                break
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            raise ParseError("unexpected character %r" % text[pos], line, col)
        tokens.append((kind, m.group(kind), pos))
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
        terms = {}
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.next()
            sign = -1
        self.term(terms, sign)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            self.term(terms, -1 if self.next()[1] == "-" else 1)
        return Polynomial._trusted(self.ctx, {m: c for m, c in terms.items() if c})

    # term := (coeff | factor) ('*'? (coeff | factor))*
    def term(self, out: dict, sign: int) -> None:
        """Add sign * (the next term) into the monomial-keyed dict `out`.

        The term is num/den * x^exps * groups: coefficients multiply as
        ints and powers of variables add up, the term makes one `Fraction`,
        and only parenthesised groups are multiplied as polynomials, once
        every factor is read.  `top` holds the term's top exponents while it
        is nonzero; going above EXPONENT_LIMIT raises the error that `*`
        raises, and a zero factor ends the checks, as it does there.
        """
        num, den = sign, 1
        arity = self.ctx.arity
        exps = [0] * arity
        top = [0] * arity
        groups = []
        while True:
            kind, val, _ = self.peek()
            if kind == "int":
                n, d = self.coeff()
                num *= n
                den *= d
            elif kind == "ident":
                i, e = self.factor()
                exps[i] += e
                top[i] += e
            elif kind == "op" and val == "(":
                g = self.group()
                if num and g.terms:
                    top = list(map(add, top, _max_exponents(g.terms)))
                    groups.append(g)
                else:
                    num = 0
            else:
                self.error("expected a coefficient, variable or '('")
            if num and max(top, default=0) > EXPONENT_LIMIT:
                _fields(top)  # raises the overflow error of `*`
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
            elif not (kind in ("int", "ident") or (kind == "op" and val == "(")):
                break
        if not num:
            return
        coeff = Fraction(num, den)
        if not groups:
            m = tuple(exps)
            out[m] = out[m] + coeff if m in out else coeff
            return
        for m, c in reduce(mul, groups).terms.items():
            m = tuple(map(add, m, exps))
            out[m] = out[m] + coeff * c if m in out else coeff * c

    def group(self) -> Polynomial:
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

    def coeff(self) -> tuple:
        """(numerator, denominator) of a coefficient, as ints."""
        num = int(self.next()[1])
        if self.peek()[:2] == ("op", "/"):
            self.next()
            if self.peek()[0] != "int":
                self.error("expected a denominator")
            den = int(self.next()[1])
            if den == 0:
                self.error("zero denominator")
            return num, den
        return num, 1

    def factor(self) -> tuple:
        """(index, exponent) of a power of a variable."""
        name = self.next()[1]
        if name.startswith(RESERVED_PREFIX):
            self.i -= 1
            self.error("identifier %r uses the reserved prefix %r" % (name, RESERVED_PREFIX))
        if name not in self.ctx:
            self.i -= 1
            self.error("unknown variable %r" % name)
        i = self.ctx.index(name)
        if self.peek()[:2] == ("op", "^"):
            self.next()
            if self.peek()[0] != "int":
                self.error("expected an exponent")
            if int(self.peek()[1]) > EXPONENT_LIMIT:
                self.error("exponent exceeds %d" % EXPONENT_LIMIT)
            return i, int(self.next()[1])
        return i, 1


def reject_reserved_names(names) -> None:
    """Reject user-given variable names with the reserved prefix, as the parser does."""
    for name in names:
        if name.startswith(RESERVED_PREFIX):
            raise ValueError("identifier %r uses the reserved prefix %r" % (name, RESERVED_PREFIX))


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
        n, d = coeff.numerator, coeff.denominator
        mag = -n if n < 0 else n
        if factors and mag == 1 and d == 1:
            body = "*".join(factors)
        else:
            body = "*".join(["%d/%d" % (mag, d) if d != 1 else "%d" % mag] + factors)
        if not parts:
            parts.append("-" + body if n < 0 else body)
        else:
            parts.append(("- " if n < 0 else "+ ") + body)
    return " ".join(parts)
