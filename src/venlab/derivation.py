"""Locally nilpotent derivations and their exponential calculus.

A Derivation is R-linear (R = the coefficient block of the context) and
is determined by its images on the fiber variables; it extends by the
Leibniz rule, concretely D = sum_i D(t_i) * d/dt_i in characteristic
zero.

Provided here:
  * nilpotency certification (semi-decision with an iteration cap);
  * the order-r divided Taylor operator and the exponential shift
    f |-> f(t + e) into a context with fresh shift variables;
  * exponential automorphisms exp(t*D) for kernel parameters t;
  * the Dixmier projection pi(f) = sum_r (-s)^r D^r(f) / r! onto Ker D
    determined by a slice s (an element with D(s) = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping

from .poly import (
    ContextMismatchError,
    PolyMap,
    Polynomial,
    VarContext,
    _derive,
    _sum_of_products,
)

SHIFT_PREFIX = "_e_"

#: Default iteration cap for nilpotency certification.
DEFAULT_NILPOTENCY_CAP = 64

#: Most terms an exponential-type series (exp shift, exp automorphism,
#: Dixmier projection) may take before it is abandoned.
MAX_SERIES_TERMS = 10_000


class InvalidSliceError(ValueError):
    """The proposed slice s does not satisfy D(s) = 1."""


class NotCertifiedError(RuntimeError):
    """An operation needed a nilpotency certificate that is not available."""


class KernelMembershipError(ValueError):
    """A parameter required to lie in Ker D does not."""


@dataclass(frozen=True)
class NilpotencyCertificate:
    """Per-generator vanishing indices, or Undetermined if the cap was hit.

    Certified means: for each fiber generator g, D^(indices[g])(g) = 0
    with the index minimal.  By the Leibniz rule this implies local
    nilpotency on the whole ring.
    """

    status: str  # 'certified' | 'undetermined'
    indices: Mapping[str, int]
    cap: int

    @property
    def certified(self) -> bool:
        return self.status == "certified"


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
        return _derive(f, [(index(name), g) for name, g in self.images.items() if g.terms])

    def power(self, f: Polynomial, r: int) -> Polynomial:
        """D^r(f)."""
        for _ in range(r):
            if f.is_zero():
                break
            f = self(f)
        return f

    def is_kernel_element(self, f: Polynomial) -> bool:
        return self(f).is_zero()

    def certify_nilpotent(self, cap: int = DEFAULT_NILPOTENCY_CAP) -> NilpotencyCertificate:
        """Try to certify local nilpotency within `cap` iterations per generator.

        Returns a Certified certificate with minimal vanishing indices, or
        Undetermined when some generator survives `cap` applications.
        Never a false negative: Undetermined makes no claim.
        """
        if cap <= 0:
            raise ValueError("cap must be positive")
        indices = {}
        for name in self.ctx.fiber_names:
            g = Polynomial.variable(self.ctx, name)
            n = 0
            while not g.is_zero():
                if n >= cap:
                    return NilpotencyCertificate("undetermined", dict(indices), cap)
                g = self(g)
                n += 1
            indices[name] = n
        cert = NilpotencyCertificate("certified", indices, cap)
        self._certificate = cert
        return cert

    def _require_certificate(self) -> NilpotencyCertificate:
        cert = self._certificate
        if cert is None:
            cert = self.certify_nilpotent()
        if not cert.certified:
            raise NotCertifiedError(
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


def _shift_derivation(ext: VarContext, fiber: tuple) -> Derivation:
    """The derivation sum_i e_i * d/dt_i on the extended context."""
    return Derivation(ext, {
        n: Polynomial.variable(ext, SHIFT_PREFIX + n) for n in fiber
    })


def taylor_term(f: Polynomial, r: int) -> Polynomial:
    """Order-r divided Taylor term of f in the shift-extended context.

    This is E^r(f) with E = sum_i e_i d/dt_i over the fiber variables t_i,
    i.e. the sum over multi-indices |I| = r of (r!/I!) * d^I f * e^I.
    Order 0 is f itself.
    """
    if r < 0:
        raise ValueError("order must be nonnegative")
    ext = shift_context(f.ctx)
    E = _shift_derivation(ext, f.ctx.fiber_names)
    return E.power(f.rename_context(ext), r)


def _exp_series(D: Derivation, a: Polynomial, f: Polynomial) -> Polynomial:
    """sum_r a^r D^r(f) / r!, finite when D kills f after finitely many steps.

    The iterates D^r(f) come first, then one sum of products over all of
    them, in which a vanishing a leaves only f.
    """
    iterates = []
    while not f.is_zero():
        if len(iterates) > MAX_SERIES_TERMS:
            raise NotCertifiedError("exponential series did not terminate within %d terms"
                                    % MAX_SERIES_TERMS)
        iterates.append(f)
        f = D(f)
    return _sum_of_products(f.ctx, [(Fraction(1, factorial(r)), [(a, r), (g, 1)])
                                    for r, g in enumerate(iterates)])


def exp_shift(f: Polynomial) -> Polynomial:
    """sum_r taylor_term(f, r) / r!  ==  f(t1 + e1, ..., tn + en), exactly.

    The sum is finite: each application of the shift operator lowers the
    degree in the fiber variables.
    """
    ext = shift_context(f.ctx)
    E = _shift_derivation(ext, f.ctx.fiber_names)
    return _exp_series(E, Polynomial.one(ext), f.rename_context(ext))


def exp_automorphism(D: Derivation, t: Polynomial) -> PolyMap:
    """The ring endomorphism f |-> sum_r t^r D^r(f) / r!.

    Requires D certified locally nilpotent and t in Ker D; under those
    hypotheses it is an automorphism with inverse exp(-t*D).
    """
    if t.ctx != D.ctx:
        raise ContextMismatchError("parameter is not in the derivation's context")
    D._require_certificate()
    if not D.is_kernel_element(t):
        raise KernelMembershipError("exp parameter must lie in Ker D: D(%s) != 0" % t)
    ctx = D.ctx
    images = {name: _exp_series(D, t, Polynomial.variable(ctx, name)) for name in ctx.names}
    return PolyMap(ctx, ctx, images)


# ---------------------------------------------------------------------------
# slices and the Dixmier projection

def check_slice(D: Derivation, s: Polynomial) -> None:
    """Raise unless s is a slice of D: an element of its context with D(s) = 1."""
    if s.ctx != D.ctx:
        raise ContextMismatchError("slice is not in the derivation's context")
    if D(s) != Polynomial.one(D.ctx):
        raise InvalidSliceError("D(s) != 1 for s = %s" % s)


def dixmier_projection(D: Derivation, s: Polynomial, f: Polynomial) -> Polynomial:
    """pi(f) = sum_r (-s)^r D^r(f) / r!, the retraction onto Ker D given a slice.

    pi is a ring homomorphism fixing Ker D pointwise, with pi(s) = 0 and
    D(pi(f)) = 0 for every f.
    """
    check_slice(D, s)
    D._require_certificate()
    if f.ctx != D.ctx:
        raise ContextMismatchError("polynomial is not in the derivation's context")
    return _exp_series(D, -s, f)


def parse_derivation(text: str, ctx: VarContext = None) -> Derivation:
    """Read a derivation from its line format.

    One ``D(<var>) = <polynomial>`` line per fiber variable; an optional
    ``# constants: <v1> <v2> ...`` header declares the coefficient block.
    When `ctx` is omitted it is built from the header plus the D-lines
    (coefficient block first, then fiber variables in line order).
    """
    from .parse import parse_polynomial

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
            raise ValueError("bad derivation line: %r" % raw)
        head, expr = line.split("=", 1)
        var = head.strip()[2:].rstrip()
        if not var.endswith(")"):
            raise ValueError("bad derivation line: %r" % raw)
        lines.append((var[:-1].strip(), expr.strip()))
    if ctx is None:
        ctx = VarContext(tuple(constants) + tuple(v for v, _ in lines),
                         coeff_block=tuple(constants))
    images = {v: parse_polynomial(expr, ctx) for v, expr in lines}
    return Derivation(ctx, images)


def format_derivation(D: Derivation) -> str:
    lines = []
    if D.ctx.coeff_block:
        lines.append("# constants: %s" % " ".join(D.ctx.coeff_block))
    for name in D.ctx.fiber_names:
        lines.append("D(%s) = %s" % (name, D.images[name]))
    return "\n".join(lines) + "\n"
