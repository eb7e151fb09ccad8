"""Text grammar for polynomials: parser and canonical printer.

Grammar (whitespace insignificant)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := (flat | '(' expr ')') ('*'? (flat | '(' expr ')'))*
    flat   := factor ('*'? factor)*
    factor := int ('/' nat)? | ident ('^' nat)?

The grammar is ASCII: digits, identifiers and whitespace are ASCII ones,
and any other character is an error.  A flat product is one token, read
factor by factor by one regular-expression scan into an integer
numerator, denominator and exponent list; the recursive descent sees only
flat products, signs and parentheses.  Parenthesized subexpressions are
accepted as factors so that nested inputs like
``y + x^2*(x*z + y*(y*u + z^2))`` parse directly.

Identifiers starting with the reserved prefix ``_`` are rejected: that
namespace belongs to internally generated variables (shift variables,
membership tags, inverted copies).  So are exponents above
``EXPONENT_LIMIT`` and parentheses nested deeper than ``MAX_NESTING``.

The parser builds the integer state of a polynomial directly; the
printer sorts its terms by one packed integer key each
(`Polynomial.sorted_terms`) and reduces each `n/den` by one gcd.  The CLI
lifts CPython's limit on converting integers of more than 4300 digits for
each call; library callers keep the interpreter's limit.
"""

from __future__ import annotations

import re
from functools import reduce
from math import gcd, lcm
from operator import add, mul

from .poly import (
    EXPONENT_LIMIT,
    GREVLEX,
    RESERVED_PREFIX,
    InputError,
    MonomialOrder,
    Polynomial,
    VarContext,
    _fields,
)

#: Deepest parenthesis nesting accepted.  Each level costs three frames
#: of the recursive descent, so this stays well inside Python's recursion
#: limit.
MAX_NESTING = 100


class ParseError(InputError):
    """Syntax or name error, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


#: One factor of a flat product: a coefficient ``n`` or ``n/d``, or a
#: power ``name^e``; the groups are (n, d, name, e).
_FACTOR = r"(\d+)(?:\s*/\s*(\d+))?|([A-Za-z_][A-Za-z0-9_]*)(?:\s*\^\s*(\d+))?"
_FACTORS = re.compile(_FACTOR, re.ASCII)

#: One token: a flat product (factors joined by `*` or juxtaposition) or an
#: operator.  Between tokens there is only ASCII whitespace once `_BAD`
#: finds nothing, so that no other digit or space is read as one.
_TOKEN = re.compile(r"(?P<flat>(?:%s)(?:\s*(?:\*\s*)?(?:%s))*)|(?P<op>[-+*/^()])"
                    % (_FACTOR, _FACTOR), re.ASCII)
_BAD = re.compile(r"[^\sA-Za-z0-9_+\-*/^()]", re.ASCII)


def _tokenize(text: str) -> list:
    """(kind, text, position) of each token, then ("eof", "", len(text))."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError("unexpected character %r" % bad.group(), *_line_column(text, bad.start()))
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    tokens.append(("eof", "", len(text)))
    return tokens


def _line_column(text: str, pos: int) -> tuple:
    return text.count("\n", 0, pos) + 1, pos - (text.rfind("\n", 0, pos) + 1) + 1


class _Parser:
    def __init__(self, text: str, ctx: VarContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def error(self, message: str, pos: int = None):
        """Raise ParseError at `pos`, by default at the next token."""
        if pos is None:
            pos = self.tokens[self.i][2]
        raise ParseError(message, *_line_column(self.text, pos))

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self) -> Polynomial:
        tokens = self.tokens
        sign = 1
        if tokens[self.i][1] == "-":
            self.i += 1
            sign = -1
        terms = [self.term(sign)]
        while tokens[self.i][1] in ("+", "-"):
            self.i += 1
            terms.append(self.term(-1 if tokens[self.i - 1][1] == "-" else 1))
        den, nums = lcm(*[d for _, d in terms]), {}
        for items, d in terms:
            for m, c in items:
                nums[m] = nums.get(m, 0) + c * (den // d)
        return Polynomial._reduced(self.ctx, {m: c for m, c in nums.items() if c}, den)

    # term := (flat | '(' expr ')') ('*'? (flat | '(' expr ')'))*
    def term(self, sign: int) -> tuple:
        """sign * (the next term) as ([(monomial, int), ...], den).

        The term is num/den * x^exps * groups.  One `finditer` reads each
        flat product factor by factor, with the checks in the order they
        would run on separate factors: coefficients multiply as ints and
        powers of variables add up, and only parenthesised groups are
        multiplied as polynomials, once every factor is read.  `base` sums
        the top exponents of the groups; while the term is nonzero, going
        above EXPONENT_LIMIT in exps + base raises the error that `*`
        raises, and a zero factor ends the checks, as it does there.
        """
        tokens = self.tokens
        index = self.ctx._index
        num, den = sign, 1
        exps = [0] * len(index)
        base = [0] * len(index)
        groups = []
        while True:
            kind, val, start = tokens[self.i]
            if kind == "flat":
                self.i += 1
                for m in _FACTORS.finditer(val):
                    n, d, name, e = m.groups()
                    if name is None:
                        num *= int(n)
                        if d is not None:
                            if not int(d):
                                self.error("zero denominator", start + m.start(2))
                            den *= int(d)
                        continue
                    if name.startswith(RESERVED_PREFIX):
                        self.error("identifier %r uses the reserved prefix %r"
                                   % (name, RESERVED_PREFIX), start + m.start())
                    i = index.get(name)
                    if i is None:
                        self.error("unknown variable %r" % name, start + m.start())
                    power = 1 if e is None else int(e)
                    if power > EXPONENT_LIMIT:
                        self.error("exponent exceeds %d" % EXPONENT_LIMIT, start + m.start(4))
                    exps[i] += power
                    if num and exps[i] + base[i] > EXPONENT_LIMIT:
                        if m.end() == len(val):
                            self.dangling(name, d, e)  # x^ comes before the overflow
                        _fields(list(map(add, exps, base)))  # raises the overflow error of `*`
                if tokens[self.i][1] in ("/", "^"):
                    self.dangling(name, d, e)
            elif val == "(":
                g = self.group()
                if num and g.nums:
                    base = list(map(add, base, g._tops()))
                    groups.append(g)
                    top = list(map(add, exps, base))
                    if max(top, default=0) > EXPONENT_LIMIT:
                        _fields(top)  # raises the overflow error of `*`
                else:
                    num = 0
            else:
                self.error("expected a coefficient, variable or '('")
            kind, val, _ = tokens[self.i]
            if val == "*":
                self.i += 1
            elif kind != "flat" and val != "(":
                break
        if not num:
            return [], 1
        if not groups:
            return [(tuple(exps), num)], den
        g = reduce(mul, groups)
        return [(tuple(map(add, m, exps)), num * c) for m, c in g.nums.items()], den * g.den

    def dangling(self, name, d, e) -> None:
        """Raise on a '/' or '^' after a flat product that its last factor would take.

        That is a '/' after a coefficient without a denominator, or a '^'
        after a variable without an exponent: the error is then at the
        token after the operator.  Any other '/' or '^' ends the term.
        """
        if self.tokens[self.i][1] == ("/" if name is None else "^") and (
                d if name is None else e) is None:
            self.i += 1
            self.error("expected a denominator" if name is None else "expected an exponent")

    def group(self) -> Polynomial:
        if self.depth == MAX_NESTING:
            self.error("parentheses nested deeper than %d" % MAX_NESTING)
        self.i += 1
        self.depth += 1
        inner = self.expr()
        if self.tokens[self.i][1] != ")":
            self.error("expected ')'")
        self.i += 1
        self.depth -= 1
        return inner


def reject_reserved_names(names) -> None:
    """Reject user-given variable names with the reserved prefix, as the parser does."""
    for name in names:
        if name.startswith(RESERVED_PREFIX):
            raise InputError("identifier %r uses the reserved prefix %r" % (name, RESERVED_PREFIX))


def parse_polynomial(text: str, ctx: VarContext) -> Polynomial:
    """Parse `text` into an exact Polynomial over `ctx`.

    Raises ParseError (with line/column) on syntax errors, unknown
    variables, and reserved-prefix identifiers.
    """
    parser = _Parser(text, ctx)
    result = parser.expr()
    if parser.tokens[parser.i][0] != "eof":
        parser.error("unexpected trailing input")
    return result


def format_polynomial(f: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Canonical string: terms descending in `order`, exact coefficients.

    Each factor ``name^e`` is formatted once per call and kept in a table
    keyed by (name, e).
    """
    if f.is_zero():
        return "0"
    names = f.ctx.names
    powers = {}
    parts = []
    den = f.den
    for mono, n in f.sorted_terms(order):
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e:
                text = powers.get((name, e))
                if text is None:
                    text = powers[name, e] = "%s^%d" % (name, e)
                factors.append(text)
        body = "*".join(factors)
        g = gcd(n, den)
        n, d = n // g, den // g
        mag = -n if n < 0 else n
        if d != 1:
            body = "%d/%d*%s" % (mag, d, body) if body else "%d/%d" % (mag, d)
        elif mag != 1 or not body:
            body = "%d*%s" % (mag, body) if body else "%d" % mag
        parts.append(("- " if n < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]
