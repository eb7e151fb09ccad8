"""Locally nilpotent derivations and their exponential calculus.

A Derivation is R-linear (R = the coefficient block of the context) and
is determined by its images on the fiber variables; it extends by the
Leibniz rule, concretely D = sum_i D(t_i) * d/dt_i in characteristic
zero.

Provided here:
  * `Derivation.iterates`, the one loop that applies D until it kills f;
  * nilpotency certification (semi-decision under Budget.max_nilpotency),
    whose certificate keeps each fiber variable's iterates for the series;
  * the order-r divided Taylor operator and the exponential shift
    f |-> f(t + e) into a context with fresh shift variables;
  * exponential automorphisms exp(t*D) for kernel parameters t;
  * the Dixmier projection pi(f) = sum_r (-s)^r D^r(f) / r! onto Ker D
    determined by a slice s (an element with D(s) = 1).

exp(t*D), the Dixmier projection and the slice kernel certify D under a
Budget first; an undetermined certificate, like a series of more than
MAX_SERIES_TERMS terms (each one sum of products over its iterates), raises
BudgetExceededError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping

from .groebner import DEFAULT_BUDGET, Budget, BudgetExceededError
from .poly import (
    ContextMismatchError,
    InputError,
    PolyMap,
    Polynomial,
    VarContext,
    _derive,
    _sum_of_products,
)

SHIFT_PREFIX = "_e_"

#: Most terms an exponential-type series (exp shift, exp automorphism,
#: Dixmier projection) may take; one more raises BudgetExceededError.
MAX_SERIES_TERMS = 10_000


@dataclass(frozen=True)
class NilpotencyCertificate:
    """Per-generator iterates, or Undetermined if the cap was hit.

    Certified means: for each fiber generator g, iterates[g] lists g, ...,
    D^(k-1)(g) and D^k(g) = 0, so its length k is the minimal vanishing
    index.  By the Leibniz rule this implies local nilpotency on the whole
    ring.  Undetermined keeps the generators certified before the cap hit.
    """

    status: str  # 'certified' | 'undetermined'
    iterates: Mapping[str, list]
    cap: int

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def indices(self) -> dict:
        return {name: len(chain) for name, chain in self.iterates.items()}


class Derivation:
    """An R-linear derivation of R[fiber variables], given by generator images."""

    __slots__ = ("ctx", "images", "_certificate")

    def __init__(self, ctx: VarContext, images: Mapping[str, Polynomial]):
        fiber = ctx.fiber_names
        imgs = {}
        for name in fiber:
            g = images.get(name)
            if g is None:
                g = Polynomial.zero(ctx)
            if g.ctx != ctx:
                raise ContextMismatchError("image of %r lives in the wrong context" % name)
            imgs[name] = g
        extra = set(images) - set(fiber)
        if extra:
            raise ValueError(
                "images for coefficient-block variables %r (they are constants)"
                % sorted(extra))
        self.ctx = ctx
        self.images = imgs
        self._certificate = None

    def __call__(self, f: Polynomial) -> Polynomial:
        """Apply the derivation: the sum of D(t_i) * df/dt_i, in one accumulation."""
        if f.ctx != self.ctx:
            raise ContextMismatchError("polynomial is not in the derivation's context")
        index = self.ctx.index
        return _derive(f, [(index(name), g) for name, g in self.images.items() if not g.is_zero()])

    def power(self, f: Polynomial, r: int) -> Polynomial:
        """D^r(f)."""
        for _ in range(r):
            if f.is_zero():
                break
            f = self(f)
        return f

    def iterates(self, f: Polynomial, limit: int) -> list:
        """[f, D(f), D^2(f), ...] up to the last nonzero one, at most `limit` of them.

        Raises BudgetExceededError, after `limit` applications of D, when
        D^limit(f) != 0.
        """
        out = []
        while not f.is_zero():
            if len(out) == limit:
                raise BudgetExceededError("series term cap exceeded (%d terms)" % limit)
            out.append(f)
            f = self(f)
        return out

    def certify_nilpotent(self, budget: Budget = DEFAULT_BUDGET) -> NilpotencyCertificate:
        """Try to certify local nilpotency under the cap budget.max_nilpotency.

        Returns a Certified certificate holding each generator's iterates,
        or Undetermined when some generator survives `cap` applications.
        Never a false negative: Undetermined makes no claim.
        """
        cap = budget.max_nilpotency
        chains = {}
        for name in self.ctx.fiber_names:
            try:
                chains[name] = self.iterates(Polynomial.variable(self.ctx, name), cap)
            except BudgetExceededError:
                return NilpotencyCertificate("undetermined", chains, cap)
        self._certificate = NilpotencyCertificate("certified", chains, cap)
        return self._certificate

    def _require_certificate(self, budget: Budget) -> NilpotencyCertificate:
        cert = self._certificate
        if cert is None:
            cert = self.certify_nilpotent(budget)
        if not cert.certified:
            raise BudgetExceededError(
                "derivation is not certified locally nilpotent (cap %d)" % cert.cap)
        return cert

    def __repr__(self) -> str:
        body = ", ".join("D(%s) = %s" % (n, g) for n, g in self.images.items())
        return "<Derivation %s>" % body


# ---------------------------------------------------------------------------
# shift context and Taylor operators

def shift_context(ctx: VarContext) -> VarContext:
    """`ctx` extended by one reserved shift variable per fiber variable."""
    return ctx.extend([SHIFT_PREFIX + n for n in ctx.fiber_names])


def _shift_derivation(ctx: VarContext) -> Derivation:
    """The derivation sum_i e_i * d/dt_i on `shift_context(ctx)`."""
    ext = shift_context(ctx)
    return Derivation(ext, {n: Polynomial.variable(ext, SHIFT_PREFIX + n)
                            for n in ctx.fiber_names})


def taylor_term(f: Polynomial, r: int) -> Polynomial:
    """Order-r divided Taylor term of f in the shift-extended context.

    This is E^r(f) with E = sum_i e_i d/dt_i over the fiber variables t_i,
    i.e. the sum over multi-indices |I| = r of (r!/I!) * d^I f * e^I.
    Order 0 is f itself.
    """
    if r < 0:
        raise ValueError("order must be nonnegative")
    E = _shift_derivation(f.ctx)
    return E.power(f.rename_context(E.ctx), r)


def _exp_series(a: Polynomial, iterates: list) -> Polynomial:
    """sum_r a^r D^r(f) / r! over the iterates D^r(f) of f, as one sum of
    products, in which a vanishing a leaves only f."""
    return _sum_of_products(a.ctx, [(Fraction(1, factorial(r)), [(a, r), (g, 1)])
                                    for r, g in enumerate(iterates)])


def exp_shift(f: Polynomial) -> Polynomial:
    """sum_r taylor_term(f, r) / r!  ==  f(t1 + e1, ..., tn + en), exactly.

    The sum is finite: each application of the shift operator lowers the
    degree in the fiber variables.
    """
    E = _shift_derivation(f.ctx)
    f = f.rename_context(E.ctx)
    return _exp_series(Polynomial.one(E.ctx), E.iterates(f, MAX_SERIES_TERMS))


def exp_automorphism(D: Derivation, t: Polynomial, budget: Budget = DEFAULT_BUDGET) -> PolyMap:
    """The ring endomorphism f |-> sum_r t^r D^r(f) / r!.

    Requires t in Ker D and D certified locally nilpotent under `budget`;
    then it is an automorphism with inverse exp(-t*D).  Each fiber
    variable's series runs over the iterates the certificate keeps.
    """
    if t.ctx != D.ctx:
        raise ContextMismatchError("parameter is not in the derivation's context")
    chains = D._require_certificate(budget).iterates
    if not D(t).is_zero():
        raise InputError("exp parameter must lie in Ker D: D(%s) != 0" % t)
    ctx = D.ctx
    images = {name: _exp_series(t, chains[name]) if name in chains
              else Polynomial.variable(ctx, name) for name in ctx.names}
    return PolyMap(ctx, ctx, images)


# ---------------------------------------------------------------------------
# slices and the Dixmier projection

def check_slice(D: Derivation, s: Polynomial) -> None:
    """Raise unless s is a slice of D: an element of its context with D(s) = 1."""
    if s.ctx != D.ctx:
        raise ContextMismatchError("slice is not in the derivation's context")
    if D(s) != Polynomial.one(D.ctx):
        raise InputError("D(s) != 1 for s = %s" % s)


def dixmier_projection(D: Derivation, s: Polynomial, f: Polynomial,
                       budget: Budget = DEFAULT_BUDGET) -> Polynomial:
    """pi(f) = sum_r (-s)^r D^r(f) / r!, the retraction onto Ker D given a slice.

    pi is a ring homomorphism fixing Ker D pointwise, with pi(s) = 0 and
    D(pi(f)) = 0 for every f.
    """
    check_slice(D, s)
    D._require_certificate(budget)
    if f.ctx != D.ctx:
        raise ContextMismatchError("polynomial is not in the derivation's context")
    return _exp_series(-s, D.iterates(f, MAX_SERIES_TERMS))


def parse_derivation(text: str) -> Derivation:
    """Read a derivation from its line format.

    One ``D(<var>) = <polynomial>`` line per fiber variable; an optional
    ``# constants: <v1> <v2> ...`` header declares the coefficient block.
    The context is the header's variables, then the D-lines' in line
    order; a name with the reserved prefix raises InputError.
    """
    from .parse import parse_polynomial, reject_reserved_names

    constants = []
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("constants:"):
                constants = body.split(":", 1)[1].replace(",", " ").split()
            continue
        if not line.startswith("D(") or "=" not in line:
            raise InputError("bad derivation line: %r" % raw)
        head, expr = line.split("=", 1)
        var = head.strip()[2:].rstrip()
        if not var.endswith(")"):
            raise InputError("bad derivation line: %r" % raw)
        lines.append((var[:-1].strip(), expr.strip()))
    ctx = VarContext(tuple(constants) + tuple(v for v, _ in lines),
                     coeff_block=tuple(constants))
    reject_reserved_names(ctx.names)
    images = {v: parse_polynomial(expr, ctx) for v, expr in lines}
    return Derivation(ctx, images)


def format_derivation(D: Derivation) -> str:
    lines = []
    if D.ctx.coeff_block:
        lines.append("# constants: %s" % " ".join(D.ctx.coeff_block))
    for name in D.ctx.fiber_names:
        lines.append("D(%s) = %s" % (name, D.images[name]))
    return "\n".join(lines) + "\n"
