"""Polynomial arithmetic core: exactness, ring axioms, calculus, printing."""

import random
import re
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import venlab
from venlab.poly import (
    EXPONENT_LIMIT,
    ContextMismatchError,
    ExponentOverflowError,
    InputError,
    NEG_INFINITY,
    MonomialOrder,
    PolyMap,
    Polynomial,
    VarContext,
    _sort_keys,
    jacobian_det,
)
from venlab.parse import ParseError, format_polynomial, parse_polynomial

from helpers import _order_cmp, naive_evaluate, naive_format, naive_product, naive_substitute

CTX = VarContext(["x", "y", "z"])
X, Y, Z = (Polynomial.variable(CTX, n) for n in "xyz")


def P(text, ctx=CTX):
    return parse_polynomial(text, ctx)


# ---------------------------------------------------------------------------
# pinned examples

def test_add_cancellation():
    assert P("x + 1") + P("x - 1") == P("2 x")


def test_add_identity():
    f = P("x^2 y - z")
    assert f + Polynomial.zero(CTX) == f


def test_add_exact_rationals():
    assert P("1/2 x") + P("1/3 x") == P("5/6 x")


def test_mul_difference_of_squares():
    assert P("y + x") * P("y - x") == P("y^2 - x^2")


def test_mul_identity():
    f = P("3 x y z - 7/2 z^2")
    assert f * Polynomial.one(CTX) == f


def test_mul_degree_additivity():
    rng = random.Random(7)
    from helpers import random_polynomial
    for _ in range(50):
        f = random_polynomial(rng, CTX, 6, allow_zero=False)
        g = random_polynomial(rng, CTX, 6, allow_zero=False)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree() == f.degree() + g.degree()


def test_substitute_square():
    ctx = VarContext(["x", "y", "z"])
    f = parse_polynomial("y^2", ctx)
    image = f.substitute({"y": parse_polynomial("y + x z", ctx)})
    assert image == parse_polynomial("y^2 + 2 x y z + x^2 z^2", ctx)


def test_substitute_identity():
    f = P("x^3 - y z + 2")
    assert f.substitute({}) == f


def test_partial_of_quadratic_in_z():
    ctx = VarContext(["x", "z"])
    lam = parse_polynomial("z^2 + x z + x^3", ctx)  # r(x)=x, s(x)=x^3
    assert lam.partial("z") == parse_polynomial("2 z + x", ctx)


def test_partial_basic():
    assert (Z ** 2).partial("z") == P("2 z")
    assert Polynomial.constant(CTX, Fraction(5, 3)).partial("z").is_zero()


def test_partial_unknown_variable():
    with pytest.raises(InputError, match="^unknown variable 'w' in context "):
        X.partial("w")


@pytest.mark.parametrize("value", [0, 3, Fraction(-5, 2)])
def test_constants_hash_like_the_scalars_they_equal(value):
    # equal objects hash equal, so a constant finds its scalar's dict entry
    # and a set holds the two as one element; the zero polynomial included
    p = Polynomial.constant(CTX, value)
    assert p == value and hash(p) == hash(value)
    assert {value: "v"}.get(p) == "v"
    assert len({p, value}) == 1
    assert hash(Polynomial.zero(CTX)) == hash(0) and {0: "v"}.get(Polynomial.zero(CTX)) == "v"


def test_zero_degree_sentinel():
    assert Polynomial.zero(CTX).degree() == NEG_INFINITY
    assert Polynomial.zero(CTX).degree() < 0


def test_context_mismatch_raises():
    other = VarContext(["x", "y"])
    with pytest.raises(ContextMismatchError):
        X + Polynomial.variable(other, "x")


def test_exponent_overflow_detected():
    with pytest.raises(ExponentOverflowError):
        Polynomial(CTX, {(2**62 + 1, 0, 0): 1})
    big = Polynomial(CTX, {(2**62 - 1, 0, 0): 1})
    with pytest.raises(ExponentOverflowError):
        big * big


def test_input_errors_are_one_class():
    # exit 3 of the CLI is decided by this class alone; a context mismatch
    # is a library contract that no input reaches, so it stays outside
    assert venlab.InputError is InputError
    assert issubclass(InputError, ValueError)
    assert issubclass(ParseError, InputError)
    assert issubclass(ExponentOverflowError, InputError)
    assert issubclass(ExponentOverflowError, OverflowError)
    assert not issubclass(ContextMismatchError, InputError)


@pytest.mark.parametrize("text", ["elim: 1", "elim:+1", "elim:1 "])
def test_monomial_order_parse_keeps_every_spelling_int_takes(text):
    assert MonomialOrder.parse(text) == MonomialOrder("elim", 1)


# ---------------------------------------------------------------------------
# jacobians

def test_jacobian_identity_system():
    ctx = VarContext(["x", "y", "z", "u"], coeff_block=["x"])
    ys = [Polynomial.variable(ctx, n) for n in ("y", "z", "u")]
    assert jacobian_det(ys, ["y", "z", "u"]) == Polynomial.one(ctx)


def test_jacobian_triangular_system():
    ctx = VarContext(["x", "y", "z", "u"], coeff_block=["x"])
    maps = [parse_polynomial(t, ctx) for t in ("y + x z", "z", "u")]
    assert jacobian_det(maps, ["y", "z", "u"]) == Polynomial.one(ctx)


def test_jacobian_matches_permutation_expansion():
    from helpers import permutation_det, random_polynomial
    from venlab.poly import jacobian_matrix, matrix_det
    rng = random.Random(11)
    for _ in range(20):
        polys = [random_polynomial(rng, CTX, 4) for _ in range(3)]
        try:
            mat = jacobian_matrix(polys, ["x", "y", "z"])
        except ValueError:
            continue
        assert jacobian_det(polys, ["x", "y", "z"]) == permutation_det(mat)
    # rational entries, some of them zero, in matrices of every size 1..4
    for n in range(1, 5):
        for _ in range(12):
            polys = [_operand(rng, CTX, edges=None, max_terms=3, max_degree=3) for _ in range(3)]
            assert jacobian_det(polys, ["x", "y", "z"]) == permutation_det(
                jacobian_matrix(polys, ["x", "y", "z"]))
            mat = [[Polynomial.zero(CTX) if rng.random() < 0.3 else
                    _operand(rng, CTX, edges=None, max_terms=3, max_degree=2)
                    for _ in range(n)] for _ in range(n)]
            det = matrix_det(mat)
            assert det == permutation_det(mat)
            _assert_fraction_terms(det)


# ---------------------------------------------------------------------------
# hypothesis: ring axioms and calculus laws

coeffs = st.fractions(
    min_value=-6, max_value=6,
    max_denominator=4,
)
monos = st.tuples(*(st.integers(min_value=0, max_value=3),) * 3)
polys = st.dictionaries(monos, coeffs, max_size=6).map(lambda d: Polynomial(CTX, d))


@settings(max_examples=120, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + 0 == f
    assert f * 1 == f
    assert (f - f).is_zero()


@settings(max_examples=80, deadline=None)
@given(polys, polys)
def test_leibniz_rule(f, g):
    for v in ("x", "y", "z"):
        assert (f * g).partial(v) == f * g.partial(v) + g * f.partial(v)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_substitution_functorial(f):
    m1 = PolyMap(CTX, CTX, {"x": X + Y, "y": Y, "z": Z * Z})
    m2 = PolyMap(CTX, CTX, {"x": X, "y": Y - 2, "z": X + Z})
    assert m2.compose(m1)(f) == m2(m1(f))


@settings(max_examples=30, deadline=None)
@given(polys, polys)
def test_polymap_is_homomorphism(f, g):
    m = PolyMap(CTX, CTX, {"x": X * Y, "y": Y + 1, "z": Z})
    assert m(f * g) == m(f) * m(g)
    assert m(f + g) == m(f) + m(g)


ORDERS = ("lex", "grevlex", "elim:1", "elim:2", "elim:3")


@pytest.mark.parametrize("text", ORDERS)
@settings(max_examples=40, deadline=None)
@given(f=polys)
def test_print_parse_round_trip(text, f):
    assert parse_polynomial(format_polynomial(f, MonomialOrder.parse(text)), CTX) == f


@pytest.mark.parametrize("text", ORDERS + ("elim:7",))
def test_packed_sort_keys_follow_the_order_oracle(text):
    """The packed key of the order keys that sorted_terms reads (`_sort_keys`)
    compares like the independent comparison of helpers, and sorted_terms
    and leading_term follow it, at arities 4-6 (so elim:7 eliminates every
    variable) and exponents to 2^40."""
    rng = random.Random(text)
    order = MonomialOrder.parse(text)
    cmp = _order_cmp(text)
    for arity in (4, 5, 6):
        monos = list({tuple(rng.choice((0, 0, 1, 2, 5, 2**40)) for _ in range(arity))
                      for _ in range(50)})
        keys = _sort_keys(order, arity, max(map(sum, monos)))
        key = {m: keys.pack(m) for m in monos}
        for a in monos:
            for b in monos:
                assert (key[a] > key[b]) - (key[a] < key[b]) == cmp(a, b), (a, b)
        f = Polynomial(VarContext(["v%d" % i for i in range(arity)]), dict.fromkeys(monos, 1))
        want = sorted(monos, key=cmp_to_key(cmp), reverse=True)
        assert [m for m, _ in f.sorted_terms(order)] == want
        assert f.leading_term(order) == (want[0], 1)


@pytest.mark.parametrize("text", ORDERS + ("elim:7",))
def test_sorted_terms_at_field_width_boundaries(text):
    """sorted_terms keys on the order's forms alone, in fields sized by the
    bit length w of the top degree; the monomials here have degree 2^w - 1
    and 2^w, the last degree of one width and the first of the next."""
    rng = random.Random(text)
    order = MonomialOrder.parse(text)
    cmp = _order_cmp(text)
    for arity in (4, 6):
        ctx = VarContext(["v%d" % i for i in range(arity)])
        for w in range(1, 7):
            monos = set()
            for degree in (2**w - 1, 2**w, 2**w - 1, 2**w, rng.randint(0, 2**w)):
                for _ in range(6):
                    mono = [0] * arity
                    for _ in range(degree):
                        mono[rng.randrange(arity)] += 1
                    monos.add(tuple(mono))
            for top in (2**w - 1, 2**w):
                f = Polynomial(ctx, {m: 1 for m in monos if sum(m) <= top})
                want = sorted(f.terms, key=cmp_to_key(cmp), reverse=True)
                assert [m for m, _ in f.sorted_terms(order)] == want, (arity, w, top)
                assert f.leading_term(order)[0] == want[0]


#: Coefficients with a unit, a negative sign, a denominator, or many digits.
PRINT_COEFFS = (1, -1, 2, -7, Fraction(3, 4), Fraction(-5, 6), Fraction(1, 3),
                Fraction(-1, 2), 10**20 + 1, Fraction(-(10**12), 7))


@pytest.mark.parametrize("text", ORDERS)
def test_format_matches_naive_oracle(text):
    rng = random.Random(text)
    ctx = VarContext(["a", "x", "y", "z"])
    order = MonomialOrder.parse(text)
    printed = []
    for _ in range(60):
        terms = {tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(4)): rng.choice(PRINT_COEFFS)
                 for _ in range(rng.randint(0, 6))}
        if rng.random() < 0.4:
            terms[(0, 0, 0, 0)] = rng.choice(PRINT_COEFFS)
        f = Polynomial(ctx, terms)
        printed.append(format_polynomial(f, order))
        assert printed[-1] == naive_format(f, text)
    joined = "\n".join(printed)
    for feature in (r"^-", r"- 1/2\b", r"\+ [a-z]", r"- [a-z]", r"\d/\d",
                    r"[-+] \d+(/\d+)?$", r"\d{20}", r"^0$"):
        assert re.search(feature, joined, re.M), feature


@pytest.mark.parametrize("text, terms", [
    ("0*(x+1)", {}),
    ("x - x", {}),
    ("2/4*x", {(1, 0, 0): Fraction(1, 2)}),
    ("-3/6", {(0, 0, 0): Fraction(-1, 2)}),
    ("2*3/4*x*5", {(1, 0, 0): Fraction(15, 2)}),
    ("(x+1)*2/3*y", {(1, 1, 0): Fraction(2, 3), (0, 1, 0): Fraction(2, 3)}),
])
def test_parse_coefficients_are_reduced_fractions(text, terms):
    f = P(text)
    assert f == Polynomial(CTX, terms)
    for c in f.terms.values():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


# ---------------------------------------------------------------------------
# parser edge cases

def test_parse_zero():
    assert P("0").is_zero()


@pytest.mark.parametrize("text, value", [
    ("1", 1), ("0", 0), ("-3/4", Fraction(-3, 4)), ("2 (3 + 1/2)", 7),
    ("(1 + 1/2)(1/2 - 3)", Fraction(-15, 4)),
])
def test_parse_constants_over_an_empty_context(text, value):
    ctx = VarContext([])
    assert parse_polynomial(text, ctx) == Polynomial.constant(ctx, value)


def test_parse_nested_example():
    ctx = VarContext(["x", "y", "z", "u"], coeff_block=["x"])
    f = parse_polynomial("y + x^2*(x*z + y*(y*u + z^2))", ctx)
    expanded = parse_polynomial("y + x^3 z + x^2 y^2 u + x^2 y z^2", ctx)
    assert f == expanded


def test_parse_double_plus_is_error():
    with pytest.raises(ParseError) as exc:
        P("y + + z")
    assert exc.value.column == 5


def test_parse_reserved_prefix_rejected():
    ctx = VarContext(["x", "_e_x"])
    with pytest.raises(ParseError):
        parse_polynomial("_e_x + 1", ctx)


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        P("x + w")


def test_parse_implicit_multiplication():
    assert P("2x y") == P("2 * x * y")
    assert P("3/4x^2") == P("3/4 * x^2")


#: Malformed inputs with the message and 1-based (line, column) they report.
MALFORMED = [
    ("", "expected a coefficient, variable or '('", 1, 1),
    ("x +", "expected a coefficient, variable or '('", 1, 4),
    ("y + + z", "expected a coefficient, variable or '('", 1, 5),
    ("2/", "expected a denominator", 1, 3),
    ("2/0", "zero denominator", 1, 3),
    ("1 + 2 / 0", "zero denominator", 1, 9),
    ("2/x", "expected a denominator", 1, 3),
    ("x^", "expected an exponent", 1, 3),
    ("x^y", "expected an exponent", 1, 3),
    ("x^4611686018427387905", "exponent exceeds 4611686018427387904", 1, 3),
    ("(x + 1", "expected ')'", 1, 7),
    ("(x + 1))", "unexpected trailing input", 1, 8),
    ("x)", "unexpected trailing input", 1, 2),
    ("()", "expected a coefficient, variable or '('", 1, 2),
    ("w", "unknown variable 'w'", 1, 1),
    ("_t", "identifier '_t' uses the reserved prefix '_'", 1, 1),
    ("x $ y", "unexpected character '$'", 1, 3),
    ("x +\n\n  w", "unknown variable 'w'", 3, 3),
    ("x\n + (y\n * )", "expected a coefficient, variable or '('", 3, 4),
    ("2^3", "unexpected trailing input", 1, 2),
    ("(x+1)^2", "unexpected trailing input", 1, 6),
    ("x * * y", "expected a coefficient, variable or '('", 1, 5),
    ("-", "expected a coefficient, variable or '('", 1, 2),
    ("--x", "expected a coefficient, variable or '('", 1, 2),
    ("x y z w", "unknown variable 'w'", 1, 7),
    ("(" * 101 + "x" + ")" * 101, "parentheses nested deeper than 100", 1, 101),
    ("x^-1", "expected an exponent", 1, 3),
    ("1/2/3", "unexpected trailing input", 1, 4),
    ("x\t@", "unexpected character '@'", 1, 3),
    ("x -\n", "expected a coefficient, variable or '('", 2, 1),
    ("3 x^2 y (z + 1/0)", "zero denominator", 1, 16),
    ("\u0663*x", "unexpected character '\u0663'", 1, 1),
    ("x\xa0+ 1", "unexpected character '\\xa0'", 1, 2),
]


@pytest.mark.parametrize("text, message, line, column", MALFORMED,
                         ids=[repr(t)[:24] for t, _, _, _ in MALFORMED])
def test_parse_error_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        P(text)
    assert str(exc.value) == "%s (line %d, column %d)" % (message, line, column)
    assert (exc.value.line, exc.value.column) == (line, column)


def _atom_product(rng, depth=0):
    """(text, term dict) of a random product of atoms over CTX, built side by side.

    Atoms are coefficients (zero and fractions among them), powers of one
    variable (repeats such as x*x^3 among them) and, two levels deep at
    most, parenthesised sums of such products.
    """
    parts = []
    terms = {(0, 0, 0): Fraction(1)}
    for _ in range(rng.randint(1, 4)):
        pick = rng.random()
        if pick < 0.3:
            num, den = rng.choice([0, 1, 2, 7, 12]), rng.choice([1, 1, 3, 4])
            text = str(num) if den == 1 else "%d/%d" % (num, den)
            factor = {(0, 0, 0): Fraction(num, den)}
        elif pick < 0.85 or depth == 2:
            i, e = rng.randrange(3), rng.choice([0, 1, 1, 2, 3])
            text = "xyz"[i] if e == 1 and rng.random() < 0.5 else "%s^%d" % ("xyz"[i], e)
            factor = {tuple(e if j == i else 0 for j in range(3)): Fraction(1)}
        else:
            text, factor = _atom_sum(rng, depth + 1)
            text = "(%s)" % text
        if parts:
            joint = rng.choice(["*", " * ", " "])
            if parts[-1][-1] in "0123456789)" and text[0] in "xyz(":
                joint = rng.choice([joint, ""])
            parts.append(joint)
        parts.append(text)
        terms = naive_product(terms, factor)
    return "".join(parts), terms


def _atom_sum(rng, depth=0):
    """(text, term dict) of a signed sum of 1-4 atom products."""
    parts = []
    total = {}
    for k in range(rng.randint(1, 4)):
        sign = rng.choice([1, -1]) if k else rng.choice([1, 1, -1])
        text, terms = _atom_product(rng, depth)
        parts.append(("-" if sign < 0 else "") if not k else (" - " if sign < 0 else " + "))
        parts.append(text)
        for m, c in terms.items():
            total[m] = total.get(m, Fraction(0)) + sign * c
    return "".join(parts), {m: c for m, c in total.items() if c}


def test_parse_atom_products_match_terms_built_by_hand():
    rng = random.Random(2024)
    texts = []
    for _ in range(400):
        text, terms = _atom_sum(rng)
        assert P(text).terms == terms, text
        texts.append(text)
    joined = "\n".join(texts)
    for feature in (r"\d/\d",                     # a fraction
                    r"(^|[-+*( ])0([ *)]|$)",       # a zero coefficient
                    r"([xyz])(\^\d)?[ *]+\1",     # a repeated variable
                    r"\d[xyz(]",                   # implicit '*' without a space
                    r"\((\(|[^()]*\()"):            # a nested group
        assert re.search(feature, joined, re.M), feature


# ---------------------------------------------------------------------------
# the packed integer product kernel against the pair-by-pair oracle

#: Exponents on both sides of field-width edges (2^k - 1 and 2^k).
EDGE_EXPONENTS = [e for k in (1, 2, 3, 7, 8, 31, 32, 61) for e in (2**k - 1, 2**k)]


def _context(arity, prefix="v"):
    return VarContext(["%s%d" % (prefix, i) for i in range(arity)])


def _scalar(rng):
    """A nonzero int or Fraction, negative half the time."""
    n = rng.choice([-1, 1]) * rng.randint(1, 9)
    return n if rng.random() < 0.5 else Fraction(n, rng.randint(1, 7))


def _operand(rng, ctx, edges=EDGE_EXPONENTS, max_terms=6, max_degree=4):
    """Random polynomial built from int and Fraction inputs; sometimes a constant.

    A monomial has total degree <= max_degree, except that one of its
    exponents is sometimes replaced by one from `edges`.
    """
    if rng.random() < 0.15:
        return Polynomial.constant(ctx, _scalar(rng))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * ctx.arity
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(ctx.arity)] += 1
        if edges and rng.random() < 0.3:
            mono[rng.randrange(ctx.arity)] = rng.choice(edges)
        terms[tuple(mono)] = _scalar(rng)
    return Polynomial(ctx, terms)


def _assert_fraction_terms(p):
    assert all(type(c) is Fraction for c in p.terms.values()), p.terms


def test_product_matches_pairwise_oracle():
    rng = random.Random(4101)
    for arity in range(1, 8):
        ctx = _context(arity)
        for _ in range(40):
            a, b = _operand(rng, ctx), _operand(rng, ctx)
            prod = a * b
            assert prod.terms == naive_product(a.terms, b.terms)
            _assert_fraction_terms(prod)
            c = _scalar(rng)
            scaled = a * c
            assert scaled.terms == naive_product(a.terms, {(0,) * arity: c})
            _assert_fraction_terms(scaled)
            _assert_fraction_terms(a + b)
            _assert_fraction_terms(-a)


def test_product_cancellation_matches_pairwise_oracle():
    """(c*m1 + m2)(c*m1 - m2) = c^2*m1^2 - m2^2: the cross terms cancel."""
    rng = random.Random(4102)
    for arity in range(1, 8):
        ctx = _context(arity)
        for _ in range(20):
            m1 = tuple(rng.choice(EDGE_EXPONENTS + [0, 1, 2]) for _ in range(arity))
            m2 = tuple(rng.randint(0, 3) for _ in range(arity))
            if m1 == m2:
                continue
            c = _scalar(rng)
            a = Polynomial(ctx, {m1: c, m2: 1})
            b = Polynomial(ctx, {m1: c, m2: -1})
            prod = a * b
            assert prod.terms == naive_product(a.terms, b.terms)
            assert len(prod.terms) == 2
            _assert_fraction_terms(prod)
            assert (a * b - b * a).is_zero()


def test_substitute_matches_pairwise_oracle():
    rng = random.Random(4103)
    small_edges = [e for e in EDGE_EXPONENTS if e <= 2**8]
    for arity in range(1, 8):
        src = _context(arity, "t")
        for _ in range(12):
            target = _context(rng.randint(1, 7))
            images = {n: _operand(rng, target, small_edges, max_terms=4, max_degree=3)
                      for n in src.names}
            f = _operand(rng, src, edges=None, max_degree=3)
            # a second part whose image cancels across its terms
            t0 = Polynomial.variable(src, "t0")
            if arity == 1:
                c = _scalar(rng)
                images["t0"] = Polynomial.constant(target, c)
                vanishing = t0 - c
            else:
                images["t1"] = Polynomial(target, naive_product(images["t0"].terms,
                                                               images["t0"].terms))
                vanishing = _scalar(rng) * (t0 * t0 - Polynomial.variable(src, "t1"))
            assert vanishing.substitute(images).is_zero()
            for g in (f, f + vanishing):
                image = g.substitute(images)
                assert image.ctx == target
                assert image.terms == naive_substitute(g, images)
                _assert_fraction_terms(image)
                assert PolyMap(src, target, images)(g) == image
            # the witness re-check shape: one-term images with rational
            # coefficients, zero images, and unmentioned variables going to
            # themselves in a wider target
            wide = VarContext(src.names + target.names)
            given = {"t0": images["t0"].rename_context(wide)}
            for n in src.names[1:]:
                kind = rng.random()
                if kind < 0.35:
                    mono = tuple(rng.randint(0, 3) if rng.random() < 0.4 else 0
                                 for _ in range(wide.arity))
                    given[n] = Polynomial(wide, {mono: Fraction(_scalar(rng), rng.randint(2, 7))})
                elif kind < 0.5:
                    given[n] = Polynomial.zero(wide)
            full = {n: given.get(n, Polynomial.variable(wide, n)) for n in src.names}
            for g in (f, f + vanishing):
                image = g.substitute(given)
                assert image.ctx == wide
                assert image.terms == naive_substitute(g, full)
                _assert_fraction_terms(image)
                assert PolyMap(src, wide, full)(g) == image


def test_product_overflow_boundary():
    ctx = VarContext(["x", "y", "z"])
    at_limit = Polynomial(ctx, {(EXPONENT_LIMIT - 1, 0, 0): 1}) * Polynomial(ctx, {(1, 0, 0): 2})
    assert at_limit.terms == {(EXPONENT_LIMIT, 0, 0): Fraction(2)}
    # only y overflows, and only in the last pair of terms
    b = Polynomial(ctx, {(0, 0, 1): 1, (0, 1, 0): -1})
    fits = Polynomial(ctx, {(1, 0, 0): 1, (0, EXPONENT_LIMIT - 1, 0): 3})
    assert (fits * b).terms == naive_product(fits.terms, b.terms)
    assert (fits * b).coefficient((0, EXPONENT_LIMIT, 0)) == -3
    over = Polynomial(ctx, {(1, 0, 0): 1, (0, EXPONENT_LIMIT, 0): 3})
    with pytest.raises(ExponentOverflowError):
        over * b
    with pytest.raises(ExponentOverflowError):
        b * over


def test_substitute_overflow_boundary():
    ctx = VarContext(["x", "y", "z"])
    x, y = Polynomial.variable(ctx, "x"), Polynomial.variable(ctx, "y")
    half = EXPONENT_LIMIT // 2
    f = x * y + Polynomial.variable(ctx, "z") ** 2
    at_limit = f.substitute({"z": x + Polynomial(ctx, {(0, half, 0): 1})})
    assert at_limit.coefficient((0, EXPONENT_LIMIT, 0)) == 1
    with pytest.raises(ExponentOverflowError):
        f.substitute({"z": x + Polynomial(ctx, {(0, half + 1, 0): 1})})


def test_products_above_the_limit_raise_unless_a_factor_is_zero():
    """The one overflow rule of `*`, `**`, substitution and determinants:
    a product's top exponents above EXPONENT_LIMIT raise, unless one of its
    factors is zero, which makes the product vanish first."""
    from venlab.poly import _sum_of_products, matrix_det
    ctx = VarContext(["x", "y"])
    x, y, zero = Polynomial.variable(ctx, "x"), Polynomial.variable(ctx, "y"), Polynomial.zero(ctx)
    top = x ** EXPONENT_LIMIT
    wide = top + y
    # the check comes before any coefficient or denominator is raised to
    # its power, so 2^(2^62) and the like are never formed
    for over in ([(top, 1), (x, 1)], [(x, EXPONENT_LIMIT + 1)], [(wide, 1), (x + 1, 1)],
                 [(wide, 2)], [(zero, 0), (top, 1), (x, 1)], [(2 * x, EXPONENT_LIMIT + 1)],
                 [(x / 2 + y, EXPONENT_LIMIT + 1)], [(3 * y, EXPONENT_LIMIT), (x / 3 + y, 2)]):
        with pytest.raises(ExponentOverflowError):
            _sum_of_products(ctx, [(Fraction(2, 3), over)])
    with pytest.raises(ExponentOverflowError):
        (2 * x) ** (EXPONENT_LIMIT + 1)
    with pytest.raises(ExponentOverflowError):
        (x / 2 + y) ** (EXPONENT_LIMIT + 1)
    with pytest.raises(ExponentOverflowError):
        top.substitute({"x": 2 * y ** 2})
    for vanishing in ([(top, 1), (x, 1), (zero, 1)], [(zero, 3), (wide, 2)],
                      [(wide, EXPONENT_LIMIT), (zero, 1)]):
        assert _sum_of_products(ctx, [(1, vanishing)]).is_zero()
    with pytest.raises(ExponentOverflowError):
        top * x
    with pytest.raises(ExponentOverflowError):
        matrix_det([[top, zero], [zero, x]])
    assert matrix_det([[top, top], [zero, zero]]).is_zero()
    assert matrix_det([[top, zero], [y, x - x]]).is_zero()
    f = x * y
    assert f.substitute({"x": top, "y": zero}).is_zero()
    with pytest.raises(ExponentOverflowError):
        f.substitute({"x": top, "y": x})


def test_sum_of_products_matches_the_oracle_on_factors_made_on_the_fly():
    """Factors that exist only while their item is read: the factor cache
    keeps each one alive, so a later factor cannot reuse its id."""
    from helpers import naive_sum
    from venlab.poly import _sum_of_products
    ctx = _context(3)
    rng = random.Random(4107)
    specs = [(_scalar(rng), [(_operand(rng, ctx, edges=None, max_terms=3, max_degree=2).terms,
                              rng.randint(0, 2)) for _ in range(rng.randint(0, 3))])
             for _ in range(60)]
    total = _sum_of_products(ctx, ((c, [(Polynomial(ctx, terms), e) for terms, e in factors])
                                   for c, factors in specs))
    parts = []
    for c, factors in specs:
        prod = {(0,) * ctx.arity: Fraction(1)}
        for terms, e in factors:
            for _ in range(e):
                prod = naive_product(prod, terms)
        parts.append((c, prod))
    assert total.terms == naive_sum(*parts)
    _assert_fraction_terms(total)


def test_substitute_keeps_a_huge_power_of_a_fixed_variable():
    ctx = VarContext(["x", "y"])
    y = Polynomial.variable(ctx, "y")
    f = Polynomial(ctx, {(2**40, 1): 3, (2**40 + 1, 0): 1})
    assert f.substitute({"y": y + 1}).terms == {
        (2**40, 1): Fraction(3), (2**40, 0): Fraction(3), (2**40 + 1, 0): Fraction(1)}
    assert f.substitute({"x": Polynomial.one(ctx)}) == 3 * y + 1


# ---------------------------------------------------------------------------
# substitution by Horner's rule against the pair-by-pair oracle

SRC = VarContext(["t0", "t1", "t2"])
T0, T1, T2 = (Polynomial.variable(SRC, n) for n in SRC.names)
TARGET = VarContext(["x", "y"])


def _check_substitution(f, given):
    """f.substitute(given) equals the oracle, with unmentioned variables
    going to themselves, and PolyMap and substitute agree."""
    target = next(iter(given.values())).ctx
    full = {n: given[n] if n in given else Polynomial.variable(target, n)
            for n in f.ctx.names if n in given or n in f.variables_used()}
    image = f.substitute(given)
    assert image.terms == naive_substitute(f, full)
    _assert_fraction_terms(image)
    if set(given) == set(f.ctx.names):
        assert PolyMap(f.ctx, image.ctx, full)(f) == image
    return image


def test_horner_squares_across_an_exponent_gap(monkeypatch):
    from math import comb
    from venlab import poly
    ctx = VarContext(["t"])
    t = Polynomial.variable(ctx, "t")
    x = Polynomial.variable(TARGET, "x")
    calls = []
    real = poly._mul_into
    monkeypatch.setattr(poly, "_mul_into", lambda *args: calls.append(1) or real(*args))
    image = (t ** 1000 + t ** 3 + 1).substitute({"t": Fraction(2, 3) * x + 1})
    expected = {(0, 0): Fraction(1)}
    for k in (1000, 3):
        for j in range(k + 1):
            expected[(j, 0)] = expected.get((j, 0), 0) + comb(k, j) * Fraction(2, 3) ** j
    assert image.terms == expected
    # the gap 997 is bridged by squaring, not by 997 products
    assert len(calls) < 30
    # two Horner levels, both with gaps
    _check_substitution(T0 ** 40 * T1 ** 3 + 2 * T0 ** 3 * T1 + T1 ** 7 - 1,
                        {"t0": P("x - 1/2", TARGET), "t1": P("x y + 2", TARGET)})


def test_horner_denominators_at_every_level():
    rng = random.Random(4108)
    images = {"t0": P("1/2 x + 1/3 y", TARGET), "t1": P("1/5 x - 1/5", TARGET),
              "t2": P("3/7 y^2 + 1/4", TARGET)}
    _check_substitution(P("1/3 t0^3 t1 - 5/2 t1^2 t2 + 7/11 t0 t1 t2^2 + 7/11", SRC), images)
    for _ in range(20):
        _check_substitution(_operand(rng, SRC, edges=None, max_degree=5), images)


def test_horner_zero_image_of_an_inner_variable():
    # t0 has the largest exponent sum, so it is the outermost variable
    f = P("t0^4 t1 + t0^3 + 2/3 t1^2 t2 + t2 - t0 t1", SRC)
    image = _check_substitution(f, {"t0": P("x + 1", TARGET), "t1": Polynomial.zero(TARGET),
                                    "t2": P("x - y", TARGET)})
    assert image == P("x^3 + 3 x^2 + 4 x + 1 - y", TARGET)
    assert f.substitute({"t0": Polynomial.zero(SRC), "t1": Polynomial.zero(SRC),
                         "t2": Polynomial.zero(SRC)}).is_zero()


def test_horner_unmentioned_variables_go_to_themselves():
    rng = random.Random(4109)
    for _ in range(20):
        f = _operand(rng, SRC, edges=None, max_degree=5)
        _check_substitution(f, {"t1": P("1/2 t0 + t2^2 - 3", SRC)})
        _check_substitution(f, {"t0": P("t1 t2 - 1/4", SRC), "t2": Fraction(5, 2) * T2})


# ---------------------------------------------------------------------------
# powers, evaluation and renaming against term-by-term oracles

def test_power_matches_repeated_pairwise_product():
    rng = random.Random(4104)
    for arity in range(1, 5):
        ctx = _context(arity)
        operands = [Polynomial.zero(ctx), Polynomial.one(ctx),
                    Polynomial.constant(ctx, Fraction(-2, 3))]
        operands += [_operand(rng, ctx, edges=None, max_terms=4, max_degree=3)
                     for _ in range(12)]
        for f in operands:
            expected = {(0,) * arity: Fraction(1)}
            for n in range(8):
                power = f ** n
                assert power.terms == expected, (f, n)
                _assert_fraction_terms(power)
                expected = naive_product(expected, f.terms)


def test_power_overflow_boundary():
    ctx = VarContext(["x", "y"])
    x, y = Polynomial.variable(ctx, "x"), Polynomial.variable(ctx, "y")
    half = EXPONENT_LIMIT // 2
    assert (x ** EXPONENT_LIMIT).terms == {(EXPONENT_LIMIT, 0): Fraction(1)}
    assert ((x ** 2) ** half).terms == {(EXPONENT_LIMIT, 0): Fraction(1)}
    with pytest.raises(ExponentOverflowError):
        (x ** 2) ** (half + 1)
    # n times the top exponent of y decides, not the total degree
    assert ((-x * y ** 2) ** half).terms == {(half, EXPONENT_LIMIT): Fraction(1)}
    with pytest.raises(ExponentOverflowError):
        (-x * y ** 2) ** (half + 1)
    assert (Polynomial.zero(ctx) ** EXPONENT_LIMIT).is_zero()


def test_evaluate_matches_termwise_oracle():
    rng = random.Random(4105)
    for arity in range(1, 6):
        ctx = _context(arity)
        for _ in range(25):
            f = _operand(rng, ctx, edges=None, max_degree=5)
            point = {n: _scalar(rng) if rng.random() < 0.8 else 0 for n in ctx.names}
            value = f.evaluate(point)
            assert value == naive_evaluate(f, point)
            assert type(value) is Fraction
        assert Polynomial.zero(ctx).evaluate({}) == 0


def test_evaluate_names_the_first_missing_variable_in_context_order():
    f = P("z^2 y + x")
    assert P("x y").evaluate({"x": 2, "y": Fraction(1, 2)}) == 1
    with pytest.raises(InputError, match="^no value for variable 'y'$"):
        f.evaluate({"x": 1})
    with pytest.raises(InputError, match="^no value for variable 'x'$"):
        f.evaluate({})


def test_rename_context_round_trip():
    rng = random.Random(4106)
    wide = VarContext(["w", "z", "q", "x", "y"], coeff_block=["w"])
    for _ in range(30):
        f = _operand(rng, CTX, max_degree=5)
        g = f.rename_context(wide)
        assert g.ctx == wide
        assert g.terms == {
            tuple(dict(zip(CTX.names, m)).get(n, 0) for n in wide.names): c
            for m, c in f.terms.items()}
        _assert_fraction_terms(g)
        assert g.rename_context(CTX) == f


def test_rename_context_needs_every_used_variable():
    narrow = VarContext(["x", "z"])
    assert P("x - z^2").rename_context(narrow) == P("x - z^2", narrow)
    with pytest.raises(ContextMismatchError, match="'y'"):
        P("x + y z").rename_context(narrow)
