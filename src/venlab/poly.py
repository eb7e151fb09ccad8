"""Sparse multivariate polynomials with exact rational coefficients.

Coefficient contract: a `Polynomial` holds integer numerators `nums`
(exponent tuple, one slot per variable of a `VarContext`, to a nonzero
int) over one denominator `den > 0` with gcd(den, every numerator) == 1,
so equal polynomials have equal state.  `int` and `Fraction` inputs are
cleared on the way in, and every closed operation divides its integer
result by one content gcd.  `terms`, a read-only view with one `Fraction`
per term, is built on first read, for callers at the edges.

This module owns both integer encodings.  The product kernel
(`_mul_into` and its helpers) packs a monomial with a bit field per
variable; `_Keys`, the only order keys, packs the linear forms of a
monomial order for `sorted_terms` and for the Buchberger engine in
`groebner`.  On the kernel, `_sum_of_products` serves `*`, `**`,
`matrix_det` and the exponential series, `_derive` applies derivations,
and `_apply_images` serves substitution, `PolyMap` and `evaluate` by
Horner's rule.

A context may designate a prefix of its variables as the coefficient
block: those play the role of the base ring R in R[fiber variables] and
are treated as constants by derivations.

All values are immutable after construction; operations return new
objects and are safe to share between threads.  A polynomial fills its
hash, its top exponents and its `terms` view on first use, and a context
keeps each variable polynomial it is asked for.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm
from operator import add, lshift, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")

#: Hard cap on a single exponent.  Desk-scale computations stay far below
#: this; exceeding it means something is catastrophically wrong.
EXPONENT_LIMIT = 2**62

#: Identifiers starting with this prefix are reserved for internally
#: generated variables (shift variables, tags, inverted copies).  User
#: input may not name them: see `parse.reject_reserved_names`.
RESERVED_PREFIX = "_"

Scalar = Union[int, Fraction]


class InputError(ValueError):
    """Input from outside the program was rejected."""


class ContextMismatchError(ValueError):
    """Two operands live in different variable contexts."""


class ExponentOverflowError(InputError, OverflowError):
    """An exponent exceeded EXPONENT_LIMIT."""


class VarContext:
    """An ordered list of distinct variable names with a coefficient block.

    The coefficient block is a (possibly empty) prefix of the names; its
    variables form the base ring over which derivations are linear.
    """

    __slots__ = ("names", "coeff_block", "_index", "_variables")

    def __init__(self, names: Sequence[str], coeff_block: Sequence[str] = ()):
        names = tuple(names)
        coeff_block = tuple(coeff_block)
        if not all(n and n.isascii() and n.replace("_", "a").isidentifier() for n in names):
            raise InputError("variable names must be nonempty ASCII identifiers: %r" % (names,))
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names: %r" % (names,))
        if names[: len(coeff_block)] != coeff_block:
            raise InputError("coefficient block %r is not a prefix of %r" % (coeff_block, names))
        self.names = names
        self.coeff_block = coeff_block
        self._index = {n: i for i, n in enumerate(names)}
        self._variables = {}  # name -> Polynomial.variable(self, name), made on first use

    @property
    def arity(self) -> int:
        return len(self.names)

    @property
    def fiber_names(self) -> tuple:
        """Variables outside the coefficient block."""
        return self.names[len(self.coeff_block):]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError("unknown variable %r in context %r" % (name, self.names))

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VarContext)
            and self.names == other.names
            and self.coeff_block == other.coeff_block
        )

    def __hash__(self) -> int:
        return hash((self.names, self.coeff_block))

    def __repr__(self) -> str:
        if self.coeff_block:
            return "VarContext(%r, coeff_block=%r)" % (list(self.names), list(self.coeff_block))
        return "VarContext(%r)" % (list(self.names),)

    def extend(self, extra: Sequence[str]) -> "VarContext":
        """Context with `extra` names appended and the same coefficient block."""
        return VarContext(self.names + tuple(extra), self.coeff_block)


# ---------------------------------------------------------------------------
# integer product kernel (packed exponent vectors, after Monagan & Pearce,
# CASC 2007)
#
# Each operand is read in its state, integer numerators over one
# denominator, and each monomial is packed into one int with a bit field
# per variable.  Field widths come from bounds on the exponents of the
# result, so adding two packed keys multiplies the monomials and never
# carries into the next field.  Three routines
# accumulate on top of it: `_sum_of_products` (one product per item),
# `_derive` (one product per partial derivative) and `_apply_images` (one
# Horner scheme per substitution, sharing the powers of the images).

def _max_exponents(terms: Iterable[tuple]) -> list:
    """Per-variable maximum exponent of `terms`; [] when there are none."""
    return list(map(max, zip(*terms)))


def _fields(bounds: Iterable[int]) -> list:
    """(shift, mask) per variable for packed keys with exponents <= bounds.

    Raises ExponentOverflowError when a bound exceeds EXPONENT_LIMIT.
    """
    fields = []
    shift = 0
    for b in bounds:
        if b > EXPONENT_LIMIT:
            raise ExponentOverflowError("exponent %d exceeds limit" % b)
        fields.append((shift, (1 << b.bit_length()) - 1))
        shift += b.bit_length()
    return fields


def _pack(terms: Mapping[tuple, int], fields: list) -> list:
    shifts = [s for s, _ in fields]
    return [(sum(map(lshift, m, shifts)), c) for m, c in terms.items()]


def _mul_into(acc: dict, a: list, b: list, scale: int) -> dict:
    """acc += scale * a * b over packed integer terms; returns acc.

    The one product loop, under `_sum_of_products`, `_derive`, `_horner`
    and `_power`.
    """
    get = acc.get
    for ka, ca in a:
        ca *= scale
        for kb, cb in b:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _unpack(ctx: VarContext, acc: dict, fields: list, den: int) -> "Polynomial":
    """The polynomial of the nonzero entries of acc, each divided by den."""
    return Polynomial._reduced(ctx, {tuple([(k >> s) & mask for s, mask in fields]): c
                                     for k, c in acc.items() if c}, den)


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """Total order on monomials, compatible with multiplication, 1 minimal.

    Kinds:
      * ``lex``      plain lexicographic on the exponent vector;
      * ``grevlex``  graded reverse lexicographic (the default);
      * ``elim``     block elimination order: grevlex on the first
        ``block_split`` variables, ties broken by grevlex on the rest.
        Monomials containing an eliminated (first-block) variable compare
        above all monomials free of them.

    The order is given once, by `forms`: linear forms whose values,
    compared in turn, decide it.  `_Keys` packs them into one int per
    monomial, for sorting terms and for the Buchberger engine alike.
    """

    __slots__ = ("kind", "block_split")

    def __init__(self, kind: str = "grevlex", block_split: int = 0):
        if kind not in ("lex", "grevlex", "elim"):
            raise InputError("unknown monomial order kind %r" % kind)
        if kind == "elim" and block_split <= 0:
            raise InputError("elimination order needs a positive block_split")
        self.kind = kind
        self.block_split = block_split

    def forms(self, arity: int) -> list:
        """Variable sets whose exponent sums, compared in turn, decide the order.

        grevlex compares deg, then -e_n, ..., -e_2 (e_1 follows from the
        rest), which for equal degrees is deg - e_n, ..., deg - e_2; elim
        does so per block; lex compares the exponents.
        """
        if self.kind == "lex":
            return [{i} for i in range(arity)]
        if self.kind == "grevlex":
            blocks = [range(arity)]
        else:
            k = min(self.block_split, arity)
            blocks = [range(k), range(k, arity)]
        forms = []
        for block in blocks:
            forms.append(set(block))
            forms += [set(block) - {i} for i in reversed(block[1:])]
        return forms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block_split == other.block_split
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.block_split))

    def __repr__(self) -> str:
        if self.kind == "elim":
            return "MonomialOrder('elim', block_split=%d)" % self.block_split
        return "MonomialOrder(%r)" % self.kind

    @classmethod
    def parse(cls, text: str) -> "MonomialOrder":
        """Parse an order descriptor: 'lex', 'grevlex' or 'elim:<k>'."""
        if text.startswith("elim:"):
            k = text.split(":", 1)[1]
            try:
                k = int(k)
            except ValueError:
                raise InputError("elimination block size %r is not an integer" % k) from None
            return cls("elim", k)
        return cls(text)


GREVLEX = MonomialOrder("grevlex")


# ---------------------------------------------------------------------------
# packed order keys (after Monagan & Pearce, "Sparse polynomial division
# using a heap", J. Symbolic Comput., 2011)
#
# A monomial is one int with a bit field per linear form of the monomial
# order (`MonomialOrder.forms`), most significant first, then a
# total-degree field and the raw exponents.  Every field is a nonnegative
# sum of exponents, so integer order of keys is the monomial order, adding
# two keys multiplies the monomials, and a divides b exactly when b - a
# borrows into no guard bit (the lowest field that goes negative sets its
# own guard bit).  These are the only order keys: `sorted_terms` sorts by
# them and the Buchberger engine in `groebner` computes on them.

#: (order, arity, bit length of a degree bound) -> _Keys for that bound, filled on first use.
_SORT_KEYS = {}


class _Keys:
    """Packed keys for one order and arity, for monomials of degree <= bound.

    Fields hold up to 2 * bound, so the product of two such monomials (a
    reduction or S-polynomial term before its degree check) never carries
    into the next field.
    """

    __slots__ = ("bound", "units", "shifts", "width", "mask", "guard", "deg_shift", "deg_field",
                 "low", "low_guard", "ones", "last")

    def __init__(self, order: MonomialOrder, arity: int, bound: int):
        width = (2 * bound).bit_length()
        step = width + 1
        forms = [{i} for i in range(arity)] + [set(range(arity))]
        forms += reversed(order.forms(arity))
        self.bound = bound
        self.units = [sum(1 << (f * step) for f, form in enumerate(forms) if i in form)
                      for i in range(arity)]
        self.shifts = [i * step for i in range(arity)]
        self.width = width
        self.mask = (1 << width) - 1
        self.guard = sum(1 << (f * step + width) for f in range(len(forms)))
        self.deg_shift = arity * step
        self.deg_field = self.mask << self.deg_shift
        # the raw exponent fields: their mask, guard bits, a 1 in each, the top one's shift
        self.low = (1 << self.deg_shift) - 1
        self.low_guard = self.guard & self.low
        self.ones = sum([1 << s for s in self.shifts])
        self.last = self.ones.bit_length() - 1

    def pack(self, mono) -> int:
        return sum(map(mul, mono, self.units))

    def unpack(self, key: int) -> tuple:
        mask = self.mask
        return tuple([(key >> s) & mask for s in self.shifts])

    def degree(self, key: int) -> int:
        return (key >> self.deg_shift) & self.mask

    def divides(self, a: int, b: int) -> bool:
        return not (b - a) & self.guard

    def rekey(self, terms, old: "_Keys") -> list:
        """(key, coeff) pairs packed by `old`, packed again by these keys."""
        return [(self.pack(old.unpack(k)), c) for k, c in terms]

    def encode(self, f: "Polynomial") -> tuple:
        """(iterator of packed (key, int) terms, den) of f's state."""
        return zip(map(self.pack, f.nums), f.nums.values()), f.den

    def decode(self, ctx: VarContext, terms, den: int) -> "Polynomial":
        """The polynomial of packed (key, nonzero int) terms, each divided by den > 0."""
        return Polynomial._reduced(ctx, {self.unpack(k): c for k, c in terms}, den)


def _sort_keys(order: MonomialOrder, arity: int, degree: int) -> _Keys:
    """The cached keys that sort every monomial of total degree <= degree."""
    width = degree.bit_length()
    keys = _SORT_KEYS.get((order, arity, width))
    if keys is None:
        keys = _SORT_KEYS[order, arity, width] = _Keys(order, arity, (1 << width) - 1)
    return keys


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Immutable sparse polynomial over Q in a fixed VarContext: `nums` over `den`."""

    __slots__ = ("ctx", "nums", "den", "_top", "_hash", "_terms")

    def __init__(self, ctx: VarContext, terms: Mapping[tuple, Scalar]):
        clean = {}
        for mono, coeff in terms.items():
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError("coefficients must be int or Fraction, got %r"
                                % type(coeff).__name__)
            if coeff == 0:
                continue
            if len(mono) != ctx.arity:
                raise ValueError("monomial %r does not match arity %d" % (mono, ctx.arity))
            for e in mono:
                if e < 0 or e > EXPONENT_LIMIT:
                    raise ExponentOverflowError("bad exponent %r" % (e,))
            clean[mono] = coeff
        den = lcm(*[c.denominator for c in clean.values()])
        self.ctx = ctx
        self.nums = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self.den = den
        self._top = self._hash = self._terms = None

    @classmethod
    def _reduced(cls, ctx: VarContext, nums: dict, den: int) -> "Polynomial":
        """nums / den (nonzero int values, den > 0), divided by their content gcd,
        without validation, as closed operations produce."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {m: c // g for m, c in nums.items()}
        self = object.__new__(cls)
        self.ctx, self.nums, self.den = ctx, nums, den
        self._top = self._hash = self._terms = None
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext) -> "Polynomial":
        return cls(ctx, {})

    @classmethod
    def constant(cls, ctx: VarContext, c: Scalar) -> "Polynomial":
        return cls(ctx, {(0,) * ctx.arity: c})

    @classmethod
    def one(cls, ctx: VarContext) -> "Polynomial":
        return cls.constant(ctx, 1)

    @classmethod
    def variable(cls, ctx: VarContext, name: str) -> "Polynomial":
        """The variable `name`; one object per context and name, kept on ctx."""
        if name not in ctx._variables:
            mono = [0] * ctx.arity
            mono[ctx.index(name)] = 1
            ctx._variables[name] = cls(ctx, {tuple(mono): 1})
        return ctx._variables[name]

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Exponent tuple -> nonzero Fraction: a read-only view, built on first read."""
        if self._terms is None:
            self._terms = MappingProxyType({m: Fraction(c, self.den) for m, c in self.nums.items()})
        return self._terms

    def _tops(self) -> list:
        """Per-variable top exponents ([] for zero), made on first use and kept."""
        if self._top is None:
            self._top = _max_exponents(self.nums)
        return self._top

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.nums)

    def degree(self, var: str = None):
        """Total degree, or degree in one variable; -inf for the zero polynomial."""
        if not self.nums:
            return NEG_INFINITY
        if var is None:
            return max(map(sum, self.nums))
        return self._tops()[self.ctx.index(var)]

    def variables_used(self) -> set:
        return {n for n, e in zip(self.ctx.names, self._tops()) if e}

    def leading_term(self, order: MonomialOrder = GREVLEX) -> tuple:
        """(monomial, coefficient) of the maximal term under `order`."""
        if not self.nums:
            raise ValueError("the zero polynomial has no leading term")
        mono, c = max(self.nums.items(), key=self._sort_key(order))
        return mono, Fraction(c, self.den)

    def coefficient(self, mono: tuple) -> Fraction:
        return Fraction(self.nums.get(mono, 0), self.den)

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list:
        """Terms as (monomial, numerator over `den`), descending in `order`."""
        if len(self.nums) < 2:
            return list(self.nums.items())
        return sorted(self.nums.items(), key=self._sort_key(order), reverse=True)

    def _sort_key(self, order: MonomialOrder):
        """Packed key of a (monomial, coefficient) pair of this polynomial under
        `order`: the cached `_Keys` units shifted past the exponent and degree
        fields, so that only the fields of `MonomialOrder.forms` remain."""
        keys = _sort_keys(order, self.ctx.arity, max(map(sum, self.nums)))
        units = [u >> (keys.deg_shift + keys.width + 1) for u in keys.units]
        return lambda term: sum(map(mul, term[0], units))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ctx != other.ctx:
            raise ContextMismatchError(
                "contexts differ: %r vs %r" % (self.ctx, other.ctx))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ctx, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = dict(self.nums) if a == 1 else {m: c * a for m, c in self.nums.items()}
        for mono, c in other.nums.items():
            s = nums.get(mono, 0) + c * b
            if s:
                nums[mono] = s
            else:
                nums.pop(mono, None)
        return Polynomial._reduced(self.ctx, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._reduced(self.ctx, {m: -c for m, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Polynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.ctx)
            n = other.numerator
            return Polynomial._reduced(self.ctx, {m: c * n for m, c in self.nums.items()},
                                       self.den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return _sum_of_products(self.ctx, [(1, [(self, 1), (other, 1)])])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        return NotImplemented

    def __pow__(self, n: int):
        """self^n; p ** 0 is 1 for every p, the zero polynomial too."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _sum_of_products(self.ctx, [(1, [(self, n)])])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ctx, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.den == other.den and self.ctx == other.ctx and self.nums == other.nums

    def __hash__(self) -> int:
        """A constant, zero included, hashes as its scalar, to which it is equal."""
        if self._hash is None:
            self._hash = hash(Fraction(sum(self.nums.values()), self.den) if self.is_constant()
                              else (self.ctx, self.den, frozenset(self.nums.items())))
        return self._hash

    # -- calculus and substitution ------------------------------------

    def partial(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to `var`."""
        i = self.ctx.index(var)
        return Polynomial._reduced(self.ctx, {
            mono[:i] + (mono[i] - 1,) + mono[i + 1:]: c * mono[i]
            for mono, c in self.nums.items() if mono[i]}, self.den)

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring-homomorphism image; unmentioned variables map to themselves.

        All image polynomials must share one target context (defaulting to
        this polynomial's own context when no image is given); only the
        variables the polynomial uses need to be in it.
        """
        target = None
        for g in images.values():
            if target is None:
                target = g.ctx
            elif g.ctx != target:
                raise ContextMismatchError("image polynomials live in different contexts")
        if target is None:
            target = self.ctx
        full = [images[n] if n in images else Polynomial.variable(target, n) if e else None
                for n, e in zip(self.ctx.names, self._tops())]
        return _apply_images(self, full, target)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point covering every used variable."""
        used = self.variables_used()
        for n in self.ctx.names:
            if n in used and n not in point:
                raise InputError("no value for variable %r" % n)
        images = {n: Polynomial.constant(self.ctx, point[n]) for n in used}
        return self.substitute(images).coefficient((0,) * self.ctx.arity)

    def rename_context(self, new_ctx: VarContext) -> "Polynomial":
        """The same polynomial viewed in a context containing all used variables."""
        perm = [new_ctx.index(n) if n in new_ctx else None for n in self.ctx.names]
        nums = {}
        for mono, c in self.nums.items():
            out = [0] * new_ctx.arity
            for i, e in enumerate(mono):
                if e:
                    if perm[i] is None:
                        raise ContextMismatchError(
                            "variable %r is used but missing from the new context"
                            % self.ctx.names[i])
                    out[perm[i]] = e
            nums[tuple(out)] = c
        return Polynomial._reduced(new_ctx, nums, self.den)

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        from .parse import format_polynomial
        return format_polynomial(self)

    def __repr__(self) -> str:
        return "<Polynomial %s over %s>" % (self, ",".join(self.ctx.names))


def _apply_images(f: Polynomial, images: list, target: VarContext) -> Polynomial:
    """f at the given per-variable images (a ring homomorphism), by Horner's rule.

    The multivariate Horner scheme (Peña & Sauer, SIAM J. Numer. Anal.
    2000) over packed integer terms.  Each used image is read in its
    state G_i / d_i.  A one-term image scales each term's
    coefficient and shifts its key at the leaves; the others ("wide") are
    the Horner variables, outermost the one with the largest exponent sum
    over f.  Over the one denominator den_f * prod d_i^E_i (E_i the top
    exponent) the numerator is sum_m a_m prod G_i^m_i d_i^(E_i - m_i).
    Terms with a zero image go first; the top exponents then get the
    overflow check of `*` before any power is formed.
    """
    terms, den, top = f.nums, f.den, f._tops()
    used, bounds = [], [0] * target.arity
    for i, e in enumerate(top):
        if e:
            g = images[i]
            if g.ctx is not target and g.ctx != target:
                raise ContextMismatchError("image lives in %r, not in %r" % (g.ctx, target))
            if not g.nums:
                return _apply_images(Polynomial._reduced(f.ctx, {
                    m: c for m, c in terms.items() if not m[i]}, den), images, target)
            gterms, d, gtop = g.nums, g.den, g._tops()
            bounds = [b + e * t for b, t in zip(bounds, gtop)]
            used.append((i, e, gterms, d, gtop))
    if max(bounds, default=0) > EXPONENT_LIMIT:  # the exact tops, term by term
        bounds = _max_exponents([[sum([m[i] * gtop[k] for i, _, _, _, gtop in used])
                                  for k in range(target.arity)] for m in terms])
    fields = _fields(bounds)
    wide, keys, scales = [], [], []
    for i, e, gterms, d, _ in used:
        den *= d ** e
        packed, n = _pack(gterms, fields), 1
        if len(packed) > 1:
            wide.append((i, packed))
        else:
            (k, n), = packed
            keys.append((i, k))
        if n != 1 or d != 1:
            scales.append((i, n, d, e))
    if len(wide) > 1:
        wide.sort(key=lambda w: -sum([m[w[0]] for m in terms]))
    leaves = []
    for m, c in terms.items():
        for i, n, d, e in scales:
            c *= n ** m[i] * d ** (e - m[i])
        leaves.append(([m[i] for i, _ in wide], sum([m[i] * k for i, k in keys]), c))
    powers = [{0: [(0, 1)], 1: packed} for _, packed in wide]
    return _unpack(target, _horner(leaves, powers), fields, den)


def _horner(leaves: list, powers: list, depth: int = 0) -> dict:
    """sum of c * X^key * prod_j G_j^w_j over leaves (w, key, c), packed.

    G_j is powers[j][1]; the leaves are grouped by w[depth], and from one
    exponent present to the next the sum so far is multiplied by a cached
    power of G_depth, so a gap of 2^40 costs log steps.
    """
    if depth == len(powers):
        acc = {}
        for _, k, c in leaves:
            acc[k] = acc.get(k, 0) + c
        return acc
    groups = {}
    for leaf in leaves:
        groups.setdefault(leaf[0][depth], []).append(leaf)
    acc, last = {}, max(groups)
    for e in sorted(groups.keys() | {0}, reverse=True):
        inner = _horner(groups[e], powers, depth + 1) if e in groups else {}
        acc = _mul_into(inner, _nonzero(acc), _power(powers[depth], last - e), 1)
        last = e
    return acc


def _sum_of_products(ctx: VarContext, items) -> Polynomial:
    """sum of c * prod f_i^e_i over items (c, [(f_i, e_i), ...]), every f_i in ctx.

    The terms go into one integer accumulator over one common denominator.
    Every factor is read in its state, numerators over `den`.  A
    one-term factor scales the coefficient and shifts the monomial; any
    other is packed once per call into a power cache keyed by id, and
    `live` holds it so that no id is reused during the call.  A product
    with a zero factor vanishes; the top exponents of every other product,
    sum_i e_i * top(f_i), get the overflow check of `*` before any
    coefficient is raised to a power, and their maximum sizes the fields.
    """
    arity = ctx.arity
    live = []
    bounds = [0] * arity
    den = 1
    for c, factors in items:
        if not c:
            continue
        shift = [0] * arity
        scales = []
        wide = []
        for f, e in factors:
            if not e:
                continue
            if f.ctx is not ctx and f.ctx != ctx:
                raise ContextMismatchError("factor lives in %r, not in %r" % (f.ctx, ctx))
            if not f.nums:
                break
            terms, fd, ftop = f.nums, f.den, f._tops()
            if len(terms) == 1:
                shift = [t + e * x for t, x in zip(shift, ftop)]
                n, = terms.values()
                scales.append((n, fd, e))
            else:
                wide.append((f, e))
                scales.append((1, fd, e))
        else:
            top = shift
            for f, e in wide:
                top = [t + e * x for t, x in zip(top, f._top)]
            if max(top, default=0) > EXPONENT_LIMIT:
                _fields(top)  # raises the overflow error of `*`
            num, d = c.numerator, c.denominator
            for n, fd, e in scales:
                num *= n ** e
                d *= fd ** e
            bounds = list(map(max, bounds, top))
            den = lcm(den, d)
            live.append((shift, num, d, wide))
    fields = _fields(bounds)
    shifts = [s for s, _ in fields]
    packed = {}
    acc = {}
    for shift, num, d, wide in live:
        key = sum(map(lshift, shift, shifts))
        powers = []
        for f, e in wide:
            if id(f) not in packed:
                packed[id(f)] = {0: [(0, 1)], 1: _pack(f.nums, fields)}
            powers.append(_power(packed[id(f)], e))
        powers.sort(key=len)
        head = powers.pop(0) if powers and not key else [(key, 1)]
        for p in powers[:-1]:
            head = _nonzero(_mul_into({}, head, p, 1))
        _mul_into(acc, head, powers[-1] if powers else [(0, 1)], num * (den // d))
    return _unpack(ctx, acc, fields, den)


def _derive(f: Polynomial, images: list) -> Polynomial:
    """sum of g_i * df/dt_i over (i, g_i) in images, each g_i nonzero in f's context.

    f and every g_i are read in their states F / den and G_i / d_i,
    and the terms go into one integer accumulator over den * lcm(d_i).
    Each partial is formed on f's packed terms: the unit of field i comes
    off the key and the coefficient is multiplied by the exponent.  The
    top exponents of each product, top(dF/dt_i) + top(G_i), get the
    overflow check of `*` before any product is formed.
    """
    terms, den, top = f.nums, f.den, f._tops()
    bounds, used, dens = top, [], 1
    for i, g in images:
        if not top or not top[i]:
            continue
        gterms, d, gtop = g.nums, g.den, g._tops()
        b = list(map(add, top, gtop))
        b[i] -= 1
        if max(b) > EXPONENT_LIMIT:  # the exact tops of the partial
            b = _max_exponents([m for m in terms if m[i]])
            b[i] -= 1
            b = list(map(add, b, gtop))
            if max(b) > EXPONENT_LIMIT:
                _fields(b)  # raises the overflow error of `*`
        bounds = list(map(max, bounds, b))
        dens = lcm(dens, d)
        used.append((i, gterms, d))
    fields = _fields(bounds)
    packed = _pack(terms, fields)
    acc = {}
    for i, gterms, d in used:
        shift, mask = fields[i]
        unit = 1 << shift
        partial = [(k - unit, c * e) for k, c in packed if (e := (k >> shift) & mask)]
        _mul_into(acc, partial, _pack(gterms, fields), dens // d)
    return _unpack(f.ctx, acc, fields, den * dens)


def _nonzero(acc: dict) -> list:
    return [(k, c) for k, c in acc.items() if c]


def _power(cache: dict, e: int) -> list:
    """cache[1]^e over packed integer terms, memoised in cache (holding 0 -> 1).

    One step up from a cached power when there is one, otherwise by
    squaring, so that a huge exponent costs log(e) products.
    """
    if e not in cache:
        if e - 1 in cache:
            cache[e] = _nonzero(_mul_into({}, cache[e - 1], cache[1], 1))
        else:
            half = _power(cache, e // 2)
            p = _nonzero(_mul_into({}, half, half, 1))
            cache[e] = _nonzero(_mul_into({}, p, cache[1], 1)) if e % 2 else p
    return cache[e]


class PolyMap:
    """A ring homomorphism between polynomial rings, given by generator images."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: VarContext, target: VarContext,
                 images: Mapping[str, Polynomial]):
        imgs = {}
        for name in source.names:
            if name not in images:
                raise ValueError("missing image for variable %r" % name)
            g = images[name]
            if g.ctx != target:
                raise ContextMismatchError("image of %r lives in the wrong context" % name)
            imgs[name] = g
        extra = set(images) - set(source.names)
        if extra:
            raise ValueError("images given for unknown variables %r" % sorted(extra))
        self.source = source
        self.target = target
        self.images = imgs

    @classmethod
    def identity(cls, ctx: VarContext) -> "PolyMap":
        return cls(ctx, ctx, {n: Polynomial.variable(ctx, n) for n in ctx.names})

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.ctx != self.source:
            raise ContextMismatchError("polynomial is not in the map's source context")
        return _apply_images(f, [self.images[n] for n in self.source.names], self.target)

    def compose(self, first: "PolyMap") -> "PolyMap":
        """self after first: (self.compose(first))(f) == self(first(f))."""
        if first.target != self.source:
            raise ContextMismatchError("maps are not composable")
        return PolyMap(first.source, self.target,
                       {n: self(g) for n, g in first.images.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMap)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __repr__(self) -> str:
        body = ", ".join("%s -> %s" % (n, g) for n, g in self.images.items())
        return "<PolyMap %s>" % body


def jacobian_matrix(polys: Sequence[Polynomial], vars: Sequence[str]) -> list:
    """Matrix of partials d polys[i] / d vars[j]."""
    if not polys:
        raise ValueError("empty polynomial list")
    ctx = polys[0].ctx
    for p in polys:
        if p.ctx != ctx:
            raise ContextMismatchError("jacobian entries live in different contexts")
    if len(set(vars)) != len(vars):
        raise ValueError("jacobian variables must be distinct")
    return [[p.partial(v) for v in vars] for p in polys]


def jacobian_det(polys: Sequence[Polynomial], vars: Sequence[str]) -> Polynomial:
    """Exact determinant of the square Jacobian matrix of polys w.r.t. vars."""
    if len(polys) != len(vars):
        raise ValueError("need as many polynomials as variables")
    mat = jacobian_matrix(polys, vars)
    return matrix_det(mat)


def matrix_det(mat: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant as the Leibniz sum over permutations, in one accumulation."""
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return _sum_of_products(mat[0][0].ctx, [
        ((-1) ** sum(a > b for a, b in combinations(perm, 2)),
         [(row[j], 1) for row, j in zip(mat, perm)])
        for perm in permutations(range(n))])
