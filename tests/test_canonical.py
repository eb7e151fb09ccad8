"""Every closed operation leaves a `Polynomial` in its canonical integer state.

The contract of `venlab.poly`: numerators `nums` over one denominator
`den`, with den > 0, gcd(den, every numerator) == 1 and no zero
numerator.  Each result below is checked for that state, against the
naive `Fraction` oracles of `helpers` through its `terms` view, and for
equality and hashing with the same polynomial reached by another route.
The inputs are seeded `helpers` polynomials with denominators, and the
cases include results that cancel to zero or to a constant.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (
    naive_buchberger,
    naive_derivation,
    naive_exp_series,
    naive_product,
    naive_substitute,
    naive_sum,
    permutation_det,
    random_polynomial,
)
from venlab.derivation import Derivation, _exp_series
from venlab.groebner import buchberger, normal_form
from venlab.parse import format_polynomial, parse_polynomial
from venlab.poly import MonomialOrder, Polynomial, PolyMap, VarContext, matrix_det

CTX = VarContext(["a", "x", "y", "z"], coeff_block=["a"])
A, X, Y, Z = (Polynomial.variable(CTX, n) for n in CTX.names)
SEEDS = range(12)


def canonical(f: Polynomial, want: dict = None) -> Polynomial:
    """Assert f's state is canonical and, when given, that its terms are `want`."""
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int and c for c in f.nums.values())
    assert gcd(f.den, *f.nums.values()) == 1
    if want is not None:
        assert dict(f.terms) == want
    # the same polynomial rebuilt from its Fraction view has the same state
    again = Polynomial(f.ctx, f.terms)
    assert (again.nums, again.den) == (f.nums, f.den)
    assert again == f and hash(again) == hash(f)
    return f


def same(f: Polynomial, g: Polynomial) -> None:
    """f and g, reached by different routes, are one polynomial."""
    canonical(f)
    canonical(g)
    assert f == g and hash(f) == hash(g)


def with_denominators(rng: random.Random, ctx: VarContext = CTX, degree: int = 3) -> Polynomial:
    """A seeded `helpers` polynomial, each coefficient divided by 1, 2, 3, 4 or 6."""
    f = random_polynomial(rng, ctx, degree, max_terms=4)
    return Polynomial(ctx, {m: c / rng.choice((1, 2, 3, 4, 6)) for m, c in f.terms.items()})


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_operations_are_canonical(seed):
    rng = random.Random(seed)
    f, g = with_denominators(rng), with_denominators(rng)
    c = Fraction(rng.randint(-6, 6) or 1, rng.choice((1, 2, 5)))
    canonical(f + g, naive_sum((1, f.terms), (1, g.terms)))
    canonical(f - g, naive_sum((1, f.terms), (-1, g.terms)))
    canonical(f * g, naive_product(f.terms, g.terms))
    canonical(f ** 3, naive_product(naive_product(f.terms, f.terms), f.terms))
    canonical(f * c, naive_sum((c, f.terms)))
    canonical(f / c, naive_sum((1 / c, f.terms)))
    canonical(-f, naive_sum((-1, f.terms)))
    # cancellation to zero and to a constant
    canonical(f - f, {})
    canonical(f * 0, {})
    canonical(f ** 0, {(0,) * CTX.arity: 1})
    same((f + c) - f, Polynomial.constant(CTX, c))
    assert {c: "found"}.get((f + c) - f) == "found"
    same((f * 6) / 6, f)
    same(f * g, g * f)
    same(f * f, f ** 2)
    same((f + g) - g, f)
    same(f / c * c, f)


@pytest.mark.parametrize("seed", SEEDS)
def test_partial_and_substitution_are_canonical(seed):
    rng = random.Random(seed)
    f = with_denominators(rng)
    for name in ("x", "y"):
        d_name = Derivation(CTX, {name: Polynomial.one(CTX)})
        canonical(f.partial(name), naive_derivation(d_name, f.terms))
    images = {n: with_denominators(rng, degree=2) for n in CTX.names}
    canonical(f.substitute(images), naive_substitute(f, images))
    canonical(PolyMap(CTX, CTX, images)(f), naive_substitute(f, images))
    # a zero image and constant images (evaluation) cancel
    zeroed = dict(images, x=Polynomial.zero(CTX))
    canonical(f.substitute(zeroed), naive_substitute(f, zeroed))
    point = {n: Polynomial.constant(CTX, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
             for n in CTX.names}
    canonical(f.substitute(point), naive_substitute(f, point))
    same(f.substitute({"x": X}), f)


def triangular(rng: random.Random) -> Derivation:
    """A locally nilpotent triangular derivation with denominators in its images."""
    return Derivation(CTX, {
        "x": Polynomial.constant(CTX, Fraction(rng.randint(1, 5), rng.randint(1, 4))) * A,
        "y": with_denominators(rng, VarContext(["a", "x"], ["a"]), 2).rename_context(CTX),
        "z": with_denominators(rng, VarContext(["a", "x", "y"], ["a"]), 2).rename_context(CTX),
    })


@pytest.mark.parametrize("seed", SEEDS)
def test_derivations_and_series_are_canonical(seed):
    rng = random.Random(seed)
    D = triangular(rng)
    f = with_denominators(rng)
    canonical(D(f), naive_derivation(D, f.terms))
    canonical(D(A / 3), {})
    a = with_denominators(rng, degree=1)
    canonical(_exp_series(a, D.iterates(f, 64)), naive_exp_series(D, a.terms, f.terms))
    canonical(_exp_series(Polynomial.zero(CTX), D.iterates(f, 64)), dict(f.terms))


@pytest.mark.parametrize("seed", SEEDS)
def test_determinants_are_canonical(seed):
    rng = random.Random(seed)
    mat = [[with_denominators(rng, degree=2) for _ in range(3)] for _ in range(3)]
    det = canonical(matrix_det(mat))
    same(det, permutation_det(mat))
    # two equal rows: the Leibniz sum cancels to zero
    canonical(matrix_det([mat[0], mat[0], mat[2]]), {})


@pytest.mark.parametrize("seed", SEEDS)
def test_parsed_polynomials_are_canonical(seed):
    rng = random.Random(seed)
    f = with_denominators(rng)
    same(parse_polynomial(format_polynomial(f), CTX), f)
    same(parse_polynomial("(%s) - (%s)" % (f, f), CTX), Polynomial.zero(CTX))


@pytest.mark.parametrize("text, want", [
    ("1/2*x + 1/2 x", {(0, 1, 0, 0): 1}),
    ("2/4*x - 1/2*x + 3/6", {(0, 0, 0, 0): Fraction(1, 2)}),
    ("3/2", {(0, 0, 0, 0): Fraction(3, 2)}),
    ("6/4*y*(2/3*x + 1/3) - y*x", {(0, 0, 1, 0): Fraction(1, 2)}),
    ("1/3*x - (1/3*x + 0)", {}),
])
def test_parse_reduces_by_one_content_gcd(text, want):
    p = canonical(parse_polynomial(text, CTX), want)
    same(p, Polynomial(CTX, want))


def test_equal_constants_hash_as_their_scalars():
    half = parse_polynomial("3/2", CTX)
    assert {Fraction(3, 2): 1}.get(half) == 1
    assert {half: 1}.get(Fraction(3, 2)) == 1
    assert hash(parse_polynomial("1/2*x + 1/2*x", CTX)) == hash(X)
    assert hash(parse_polynomial("4/2", CTX)) == hash(2)
    assert hash(Polynomial.zero(CTX)) == hash(0)


@pytest.mark.parametrize("order", ["grevlex", "lex", "elim:1"])
def test_groebner_output_is_canonical(order):
    xyz = VarContext(["x", "y", "z"])
    rng = random.Random(order)
    for _ in range(6):
        gens = [with_denominators(rng, xyz, 2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()] or [Polynomial.one(xyz)]
        gb = buchberger(gens, MonomialOrder.parse(order))
        basis = naive_buchberger(gens, order)[0]
        assert len(gb.generators) == len(basis)
        for g, want in zip(gb.generators, basis):
            canonical(g, want)
        f = with_denominators(rng, xyz, 2)
        nf = canonical(normal_form(f, gb))
        same(normal_form(nf, gb), nf)
        same(normal_form(f + gens[0] * f, gb), nf)
        canonical(normal_form(gens[0] / 7, gb), {})
