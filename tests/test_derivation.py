"""Derivations, nilpotency certificates, Taylor/exponential operators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from venlab import derivation, poly
from venlab.derivation import (
    Derivation,
    SHIFT_PREFIX,
    check_slice,
    dixmier_projection,
    exp_automorphism,
    exp_shift,
    format_derivation,
    parse_derivation,
    shift_context,
    taylor_term,
)
from venlab.groebner import DEFAULT_BUDGET, Budget, BudgetExceededError
from venlab.parse import parse_polynomial
from venlab.poly import ExponentOverflowError, InputError, Polynomial, VarContext

from helpers import (
    naive_derivation,
    naive_exp_series,
    random_polynomial,
    random_triangular_slice_instance,
    shifted_by_substitution,
)

CTX = VarContext(["x", "y", "z"])
X, Y, Z = (Polynomial.variable(CTX, n) for n in "xyz")


def triangular():
    # D(x) = 0, D(y) = x, D(z) = y: the basic triangular example
    return Derivation(CTX, {"y": X, "z": Y})


# ---------------------------------------------------------------------------
# application and Leibniz

def test_apply_on_generators():
    D = triangular()
    assert D(X).is_zero()
    assert D(Y) == X
    assert D(Z) == Y


def test_apply_is_a_derivation():
    rng = random.Random(31)
    D = triangular()
    for _ in range(25):
        f = random_polynomial(rng, CTX, 4)
        g = random_polynomial(rng, CTX, 4)
        assert D(f * g) == D(f) * g + f * D(g)
        assert D(f + g) == D(f) + D(g)


def test_constants_are_killed():
    ctx = VarContext(["a", "x", "y"], coeff_block=["a"])
    a, x, y = (Polynomial.variable(ctx, n) for n in ("a", "x", "y"))
    D = Derivation(ctx, {"y": a * x})
    assert D(a ** 3).is_zero()
    assert D(y) == a * x


def test_image_for_constant_rejected():
    ctx = VarContext(["a", "x"], coeff_block=["a"])
    with pytest.raises(ValueError):
        Derivation(ctx, {"a": Polynomial.one(ctx)})


def test_power_matches_iteration():
    D = triangular()
    f = Z ** 2
    assert D.power(f, 2) == D(D(f))
    assert D.power(f, 0) == f


# ---------------------------------------------------------------------------
# nilpotency certificates

def test_certify_triangular_indices():
    cert = triangular().certify_nilpotent()
    assert cert.certified
    assert cert.indices == {"x": 1, "y": 2, "z": 3}


def test_certificate_keeps_the_iterates():
    cert = triangular().certify_nilpotent()
    assert cert.iterates == {"x": [X], "y": [Y, X], "z": [Z, Y, X]}
    assert cert.indices == {name: len(chain) for name, chain in cert.iterates.items()}


@pytest.mark.parametrize("cap, status, indices, applications", [
    (2, "undetermined", {"x": 1, "y": 2}, 5),
    (3, "certified", {"x": 1, "y": 2, "z": 3}, 6),
    (4, "certified", {"x": 1, "y": 2, "z": 3}, 6),
])
def test_certificate_cap_boundary(monkeypatch, cap, status, indices, applications):
    # z has index 3, so D^cap(z) != 0 exactly when cap < 3; an undetermined
    # certificate keeps the generators certified before z, and z costs cap
    # applications of D before it is given up
    D = triangular()
    calls = []
    real = Derivation.__call__
    monkeypatch.setattr(Derivation, "__call__", lambda self, f: calls.append(f) or real(self, f))
    cert = D.certify_nilpotent(Budget(max_nilpotency=cap))
    assert (cert.status, cert.indices, len(calls)) == (status, indices, applications)
    assert (D._certificate is cert) == cert.certified


def test_certify_single_partial():
    D = Derivation(CTX, {"z": Polynomial.one(CTX)})
    cert = D.certify_nilpotent()
    assert cert.certified
    assert cert.indices["z"] == 2


def test_certify_euler_like_is_undetermined():
    # D(z) = z never vanishes under iteration: the cap must report honestly
    D = Derivation(CTX, {"z": Z})
    cert = D.certify_nilpotent(Budget(max_nilpotency=10))
    assert cert.status == "undetermined"
    assert cert.cap == 10


def test_uncertified_derivation_blocks_exponentials():
    D = Derivation(CTX, {"z": Z})
    with pytest.raises(BudgetExceededError, match="not certified locally nilpotent"):
        exp_automorphism(D, Polynomial.one(CTX))


def test_default_cap_is_reasonable():
    assert DEFAULT_BUDGET.max_nilpotency == 64


# ---------------------------------------------------------------------------
# Taylor terms and the exponential shift

def test_taylor_term_order_zero_is_f():
    f = Z ** 3 - 2 * Y
    assert taylor_term(f, 0) == f.rename_context(shift_context(CTX))


def test_taylor_term_cube():
    ctx = VarContext(["t"])
    t = Polynomial.variable(ctx, "t")
    ext = shift_context(ctx)
    e = Polynomial.variable(ext, SHIFT_PREFIX + "t")
    # E^3(t^3) = 3! e^3
    assert taylor_term(t ** 3, 3) == 6 * e ** 3
    assert taylor_term(t ** 3, 4).is_zero()


def test_exp_shift_square():
    ctx = VarContext(["t"])
    t = Polynomial.variable(ctx, "t")
    ext = shift_context(ctx)
    te = Polynomial.variable(ext, "t")
    e = Polynomial.variable(ext, SHIFT_PREFIX + "t")
    assert exp_shift(t ** 2) == te ** 2 + 2 * te * e + e ** 2


def test_exp_shift_matches_substitution_oracle():
    rng = random.Random(47)
    for _ in range(60):
        f = random_polynomial(rng, CTX, 5)
        assert exp_shift(f) == shifted_by_substitution(f)


def test_exp_shift_multiplicative():
    rng = random.Random(53)
    for _ in range(25):
        f = random_polynomial(rng, CTX, 4)
        g = random_polynomial(rng, CTX, 4)
        assert exp_shift(f * g) == exp_shift(f) * exp_shift(g)
        assert exp_shift(f + g) == exp_shift(f) + exp_shift(g)


def test_exp_shift_counit():
    # setting every shift variable to zero recovers f
    rng = random.Random(59)
    for _ in range(20):
        f = random_polynomial(rng, CTX, 5)
        ext = shift_context(CTX)
        zero = {SHIFT_PREFIX + n: Polynomial.zero(ext) for n in CTX.names}
        collapsed = exp_shift(f).substitute(zero)
        assert collapsed == f.rename_context(ext)


def test_exp_shift_coassociative():
    # shifting by a and then by e equals a single shift by a + e; the
    # first offsets become coefficient-block constants for the re-shift
    rng = random.Random(61)
    ext = shift_context(CTX)
    ctx3 = VarContext(["ax", "ay", "az", "x", "y", "z"],
                      coeff_block=["ax", "ay", "az"])
    ext3 = shift_context(ctx3)
    relabel = {SHIFT_PREFIX + n: Polynomial.variable(ctx3, "a" + n)
               for n in CTX.names}
    relabel.update({n: Polynomial.variable(ctx3, n) for n in CTX.names})
    for _ in range(10):
        f = random_polynomial(rng, CTX, 4)
        twice = exp_shift(exp_shift(f).substitute(relabel))
        merged = exp_shift(f).substitute({
            n: Polynomial.variable(ext3, n) for n in CTX.names
        } | {
            SHIFT_PREFIX + n:
                Polynomial.variable(ext3, "a" + n)
                + Polynomial.variable(ext3, SHIFT_PREFIX + n)
            for n in CTX.names
        })
        assert twice == merged


# ---------------------------------------------------------------------------
# exponential automorphisms

def test_exp_automorphism_translation():
    # exp(1 * d/dz) is the translation z -> z + 1
    D = Derivation(CTX, {"z": Polynomial.one(CTX)})
    phi = exp_automorphism(D, Polynomial.one(CTX))
    assert phi(Z) == Z + 1
    assert phi(Y) == Y


def test_exp_automorphism_triangular():
    D = triangular()
    phi = exp_automorphism(D, Polynomial.one(CTX))
    assert phi(Y) == Y + X
    assert phi(Z) == Z + Y + X / 2


def test_exp_automorphism_inverse():
    rng = random.Random(67)
    D = triangular()
    t = X ** 2 + 3  # in Ker D
    phi = exp_automorphism(D, t)
    inv = exp_automorphism(D, -t)
    for _ in range(15):
        f = random_polynomial(rng, CTX, 4)
        assert inv(phi(f)) == f
        assert phi(inv(f)) == f


def test_exp_automorphism_is_homomorphism():
    rng = random.Random(71)
    D = triangular()
    phi = exp_automorphism(D, X)
    for _ in range(15):
        f = random_polynomial(rng, CTX, 4)
        g = random_polynomial(rng, CTX, 4)
        assert phi(f * g) == phi(f) * phi(g)


def test_exp_parameter_must_be_in_kernel():
    D = triangular()
    with pytest.raises(InputError, match=r"^exp parameter must lie in Ker D: D\(z\) != 0$"):
        exp_automorphism(D, Z)


# ---------------------------------------------------------------------------
# slices and the Dixmier projection

def test_slice_check_accepts_and_rejects():
    D = Derivation(CTX, {"z": Polynomial.one(CTX)})
    check_slice(D, Z)
    with pytest.raises(InputError, match=r"^D\(s\) != 1 for s = z\^2$"):
        check_slice(D, Z ** 2)


def test_dixmier_basic_example():
    # D(y) = x, D(z) = 1, slice z: pi(y) = y - x z
    D = Derivation(CTX, {"y": X, "z": Polynomial.one(CTX)})
    assert dixmier_projection(D, Z, Y) == Y - X * Z
    assert dixmier_projection(D, Z, Z ** 2 + 1) == Polynomial.one(CTX)


def test_dixmier_properties():
    rng = random.Random(73)
    D = Derivation(CTX, {"y": X ** 2, "z": Polynomial.one(CTX)})
    s = Z
    for _ in range(20):
        f = random_polynomial(rng, CTX, 4)
        g = random_polynomial(rng, CTX, 4)
        pf = dixmier_projection(D, s, f)
        assert D(pf).is_zero()                                # lands in Ker D
        assert dixmier_projection(D, s, pf) == pf             # idempotent
        assert dixmier_projection(D, s, f * g) == pf * dixmier_projection(D, s, g)
    assert dixmier_projection(D, s, s).is_zero()              # pi(s) = 0
    kernel_elt = X ** 3 - 2
    assert dixmier_projection(D, s, kernel_elt) == kernel_elt  # fixes Ker D


# ---------------------------------------------------------------------------
# file format

def test_parse_derivation_with_constants_header():
    text = "# constants: a b\nD(x) = 0\nD(y) = a x\nD(z) = 1\n"
    D = parse_derivation(text)
    assert D.ctx.coeff_block == ("a", "b")
    assert D.ctx.fiber_names == ("x", "y", "z")
    a, x = (Polynomial.variable(D.ctx, n) for n in ("a", "x"))
    assert D.images["y"] == a * x


def test_derivation_format_round_trip():
    ctx = VarContext(["a", "x", "y"], coeff_block=["a"])
    D = Derivation(ctx, {"y": parse_polynomial("a x^2 - 1/2", ctx)})
    again = parse_derivation(format_derivation(D))
    assert again.ctx.names == ctx.names
    assert all(again.images[n] == D.images[n].rename_context(again.ctx)
               for n in ctx.fiber_names)


def test_parse_derivation_bad_line():
    with pytest.raises(ValueError):
        parse_derivation("d/dx = 1\n")


# ---------------------------------------------------------------------------
# the accumulator paths against the pair-by-pair oracle

COEFF_CTX = VarContext(["a", "b", "x", "y"], coeff_block=["a", "b"])


def _random_derivation(rng, ctx, max_degree):
    """Images of the fiber variables, each zero with probability 1/3."""
    return Derivation(ctx, {n: Polynomial.zero(ctx) if rng.random() < 1 / 3
                            else random_polynomial(rng, ctx, max_degree)
                            for n in ctx.fiber_names})


@pytest.mark.parametrize("ctx", [CTX, COEFF_CTX], ids=["no-constants", "constants"])
def test_apply_matches_leibniz_oracle(ctx):
    rng = random.Random(41)
    zero_images = fractions = 0
    for _ in range(80):
        D = _random_derivation(rng, ctx, 3)
        f = random_polynomial(rng, ctx, 5, max_terms=6)
        assert D(f).terms == naive_derivation(D, f.terms)
        zero_images += sum(g.is_zero() for g in D.images.values())
        fractions += any(c.denominator > 1 for g in (f, *D.images.values())
                         for c in g.terms.values())
    assert zero_images and fractions


EDGE_CTX = VarContext(["c", "x", "y"], coeff_block=["c"])


@pytest.mark.parametrize("k", [1, 2, 7, 8, 31, 32, 60, 61])
def test_apply_at_field_edges(k):
    # exponents 2^k - 1 and 2^k sit on either side of a bit-length step,
    # so the packed fields are as tight as they get; with k <= 61 no sum
    # of two exponents passes the limit
    rng = random.Random(k)
    edges = (0, 1, 2 ** k - 1, 2 ** k)

    def edge_poly(terms):
        return Polynomial(EDGE_CTX, {
            tuple(rng.choice(edges) for _ in range(3)): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(terms)})

    for _ in range(12):
        D = Derivation(EDGE_CTX, {"x": edge_poly(2), "y": edge_poly(rng.randint(0, 2))})
        f = edge_poly(4)
        assert D(f).terms == naive_derivation(D, f.terms)


def test_apply_overflow_matches_oracle():
    top = Polynomial(EDGE_CTX, {(0, 2 ** 62, 1): 1})
    D = Derivation(EDGE_CTX, {"y": Polynomial.variable(EDGE_CTX, "x")})
    for run in (lambda: D(top), lambda: naive_derivation(D, top.terms)):
        with pytest.raises(ExponentOverflowError, match="^exponent 4611686018427387905 exceeds limit$"):
            run()
    assert D(Polynomial(EDGE_CTX, {(0, 2 ** 62 - 1, 1): 1})).terms == {(0, 2 ** 62, 0): 1}


def test_apply_overflow_counts_only_the_terms_of_each_partial():
    # the x^(2^62) term has no y, so d/dy keeps only y and D(f) = x
    f = Polynomial(EDGE_CTX, {(0, 2 ** 62, 0): 1, (0, 0, 1): 1})
    D = Derivation(EDGE_CTX, {"y": Polynomial.variable(EDGE_CTX, "x")})
    assert D(f).terms == naive_derivation(D, f.terms) == {(0, 1, 0): 1}


def test_apply_runs_in_the_kernel(monkeypatch):
    D, _ = random_triangular_slice_instance(random.Random(5))
    f = random_polynomial(random.Random(6), D.ctx, 4, max_terms=6, allow_zero=False)
    expected = naive_derivation(D, f.terms)
    assert expected

    def forbidden(*args):
        raise AssertionError("Derivation.__call__ left the kernel's derivation routine")

    monkeypatch.setattr(Polynomial, "partial", forbidden)
    monkeypatch.setattr(poly, "_sum_of_products", forbidden)
    monkeypatch.setattr(derivation, "_sum_of_products", forbidden)
    assert D(f).terms == expected


def test_exp_and_dixmier_match_series_oracle():
    rng = random.Random(43)
    kernel_ctx = VarContext(["a", "b", "x"])
    for i in range(8):
        D, s = random_triangular_slice_instance(rng)
        ctx = D.ctx
        # a, b and x lie in Ker D; the first parameter is zero
        t = Polynomial.zero(ctx) if i == 0 else \
            random_polynomial(rng, kernel_ctx, 2, max_terms=3).rename_context(ctx)
        images = exp_automorphism(D, t).images
        for name in ctx.names:
            var = Polynomial.variable(ctx, name)
            assert images[name].terms == naive_exp_series(D, t.terms, var.terms)
        f = random_polynomial(rng, ctx, 3)
        assert dixmier_projection(D, s, f).terms == naive_exp_series(D, (-s).terms, f.terms)


def test_series_take_at_most_max_series_terms(monkeypatch):
    # under D = d/dz, z^k has the k + 1 iterates z^k, ..., k!
    monkeypatch.setattr(derivation, "MAX_SERIES_TERMS", 4)
    D = Derivation(CTX, {"z": Polynomial.one(CTX)})
    assert D.iterates(Z ** 3, 4) == [Z ** 3, 3 * Z ** 2, 6 * Z, Polynomial.constant(CTX, 6)]
    assert dixmier_projection(D, Z, Z ** 3).is_zero()
    assert exp_shift(Z ** 3) == shifted_by_substitution(Z ** 3)
    for series in (lambda: dixmier_projection(D, Z, Z ** 4), lambda: exp_shift(Z ** 4)):
        with pytest.raises(BudgetExceededError, match=r"^series term cap exceeded \(4 terms\)$"):
            series()


def test_exp_series_stops_at_its_last_term():
    # exp(t D)(z) = z + t a y + t^2 a / 2 for D(y) = 1, D(z) = a y; with
    # t = a^(2^61), t^2 is the last power the series needs and it fits
    ctx = VarContext(["a", "y", "z"], coeff_block=["a"])
    a, y, z = (Polynomial.variable(ctx, n) for n in "ayz")
    D = Derivation(ctx, {"y": Polynomial.one(ctx), "z": y})
    t = a ** 2 ** 61
    assert exp_automorphism(D, t).images["z"] == z + t * y + t ** 2 / 2
    D = Derivation(ctx, {"y": Polynomial.one(ctx), "z": a * y})
    with pytest.raises(ExponentOverflowError, match="^exponent 4611686018427387905 exceeds limit$"):
        exp_automorphism(D, t)


# ---------------------------------------------------------------------------
# hypothesis: shift oracle on arbitrary small polynomials

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
monos = st.tuples(*(st.integers(min_value=0, max_value=3),) * 3)
polys = st.dictionaries(monos, coeffs, max_size=5).map(lambda d: Polynomial(CTX, d))


@settings(max_examples=80, deadline=None)
@given(polys)
def test_exp_shift_oracle_property(f):
    assert exp_shift(f) == shifted_by_substitution(f)
