"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check:
membership by degree-bounded exact linear algebra (no Groebner bases);
products, substitution, derivations, exponential series, determinants
(by permutation expansion) and shifts (by direct substitution, no Taylor
iteration) pair by pair over Fractions, with plain dict sums (none of
them touches `Polynomial` arithmetic or the packed integer kernel behind
`*`, `**`, substitution, `matrix_det`, derivations and `exp_shift`);
localized witnesses by their closed-form chain over Laurent tuples (no
Groebner basis); the canonical printed form by `Fraction` arithmetic and
monomial orders written out from their definitions (no `MonomialOrder`);
Groebner bases and their work counts by Buchberger's rules over
`Fraction`s on exponent tuples (no packed keys, no fraction-free steps).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from fractions import Fraction
from math import factorial

from venlab.poly import EXPONENT_LIMIT, ExponentOverflowError, Polynomial, PolyMap, VarContext
from venlab.derivation import Derivation


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_mul(a: tuple, b: tuple) -> tuple:
    out = tuple(x + y for x, y in zip(a, b))
    for e in out:
        if e > EXPONENT_LIMIT:
            raise ExponentOverflowError("exponent %d exceeds limit" % e)
    return out


def mono_divides(a: tuple, b: tuple) -> bool:
    """True if monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# random generation (seeded by the caller)

def random_polynomial(rng: random.Random, ctx: VarContext, max_degree: int,
                      max_terms: int = 5, coeff_range: int = 5,
                      allow_zero: bool = True) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        mono = _random_monomial(rng, ctx.arity, max_degree)
        c = rng.randint(-coeff_range, coeff_range)
        if rng.random() < 0.2:
            c = Fraction(c, rng.randint(1, 4))
        terms[mono] = terms.get(mono, 0) + c
    return Polynomial(ctx, {m: c for m, c in terms.items() if c})


def _random_monomial(rng, arity, max_degree):
    degree = rng.randint(0, max_degree)
    mono = [0] * arity
    for _ in range(degree):
        mono[rng.randrange(arity)] += 1
    return tuple(mono)


def monomials_up_to(arity: int, max_degree: int):
    """All exponent tuples with total degree <= max_degree."""
    for mono in itertools.product(range(max_degree + 1), repeat=arity):
        if sum(mono) <= max_degree:
            yield mono


# ---------------------------------------------------------------------------
# oracle 1: degree-bounded ideal membership by exact linear algebra

def ideal_member_linear(f: Polynomial, gens, extra_degree: int = 6) -> bool:
    """Is f = sum c_i g_i solvable with deg(c_i) <= deg(f) + extra_degree?

    Solves the exact linear system over Q by sparse incremental row
    echelon; no Groebner machinery involved.
    """
    ctx = f.ctx
    fdeg = f.degree()
    bound = (int(fdeg) if f.terms else 0) + extra_degree
    columns = []
    for g in gens:
        if g.is_zero():
            continue
        for mono in monomials_up_to(ctx.arity, bound):
            col = {}
            for gm, gc in g.terms.items():
                col[mono_mul(mono, gm)] = col.get(mono_mul(mono, gm), 0) + gc
            columns.append(col)
    # equations: one per monomial appearing anywhere
    eq_monos = set(f.terms)
    for col in columns:
        eq_monos.update(col)
    eq_index = {m: i for i, m in enumerate(sorted(eq_monos))}
    # transpose to rows
    rows = [{} for _ in eq_index]
    for j, col in enumerate(columns):
        for m, c in col.items():
            rows[eq_index[m]][j] = rows[eq_index[m]].get(j, 0) + c
    rhs = [Fraction(0)] * len(eq_index)
    for m, c in f.terms.items():
        rhs[eq_index[m]] = c
    return _solvable(rows, rhs)


def _solvable(rows, rhs) -> bool:
    """Consistency of the sparse system rows * x = rhs over Q."""
    pivots = {}  # column -> (row dict, rhs value)
    for row, b in zip(rows, rhs):
        row = {j: Fraction(c) for j, c in row.items() if c}
        b = Fraction(b)
        while True:
            row = {j: c for j, c in row.items() if c}
            if not row:
                if b != 0:
                    return False
                break
            j = min(row)
            if j not in pivots:
                inv = Fraction(1) / row[j]
                pivots[j] = ({k: c * inv for k, c in row.items()}, b * inv)
                break
            prow, pb = pivots[j]
            factor = row[j]
            for k, c in prow.items():
                row[k] = row.get(k, Fraction(0)) - factor * c
            b -= factor * pb
    return True


# ---------------------------------------------------------------------------
# oracle 2: determinant by permutation expansion

def permutation_det(mat) -> Polynomial:
    """The sum over permutations of signed entry products, by `naive_product`."""
    n = len(mat)
    ctx = mat[0][0].ctx
    parts = []
    for perm in itertools.permutations(range(n)):
        prod = {(0,) * ctx.arity: Fraction(1)}
        for i in range(n):
            prod = naive_product(prod, mat[i][perm[i]].terms)
        parts.append((_perm_sign(perm), prod))
    return Polynomial(ctx, naive_sum(*parts))


def _perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# oracle 3: shift by direct substitution
#
# Oracles 2 and 3 are built on oracle 4 below.

def shifted_by_substitution(f: Polynomial) -> Polynomial:
    """f(t1 + e1, ..., tn + en) computed by `naive_substitute`."""
    from venlab.derivation import SHIFT_PREFIX, shift_context
    ext = shift_context(f.ctx)

    def unit(name):
        return tuple(int(n == name) for n in ext.names)

    images = {}
    for name in f.ctx.names:
        terms = {unit(name): 1}
        if name in f.ctx.fiber_names:
            terms[unit(SHIFT_PREFIX + name)] = 1
        images[name] = Polynomial(ext, terms)
    return Polynomial(ext, naive_substitute(f, images))


# ---------------------------------------------------------------------------
# oracle 4: products, substitution, derivations and exponential series pair
# by pair over tuples and Fractions
#
# These read and build plain {exponent tuple: Fraction} dicts and never call
# Polynomial arithmetic, so they share no code with the packed integer
# product kernel they check.

def naive_product(a: dict, b: dict) -> dict:
    """The term dict of a * b, one Fraction product per pair of terms."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {m: c for m, c in out.items() if c}


def naive_sum(*parts) -> dict:
    """Sum of the term dicts in `parts`, each given as (scale, term dict)."""
    out = {}
    for scale, terms in parts:
        for m, c in terms.items():
            out[m] = out.get(m, Fraction(0)) + scale * c
    return {m: c for m, c in out.items() if c}


def naive_evaluate(f: Polynomial, point: dict) -> Fraction:
    """The value of f at `point`, one Fraction product per factor of each term."""
    total = Fraction(0)
    for mono, c in f.terms.items():
        value = Fraction(c)
        for name, e in zip(f.ctx.names, mono):
            if e:
                value *= Fraction(point[name]) ** e
        total += value
    return total


def naive_substitute(f: Polynomial, images: dict) -> dict:
    """The term dict of f with every variable replaced by its image.

    `images` maps every variable of f to a Polynomial; each term of f is
    expanded by repeated `naive_product` and added to a running total.
    """
    arity = next(iter(images.values())).ctx.arity
    total = {}
    for mono, c in f.terms.items():
        term = {(0,) * arity: Fraction(c)}
        for name, e in zip(f.ctx.names, mono):
            for _ in range(e):
                term = naive_product(term, images[name].terms)
        for m, v in term.items():
            total[m] = total.get(m, Fraction(0)) + v
    return {m: c for m, c in total.items() if c}


def naive_derivation(D: Derivation, terms: dict) -> dict:
    """The term dict of D applied to `terms`, by the Leibniz rule pair by pair.

    Each term c t^m of the input and each term of an image D(t_i) with
    m_i > 0 give c m_i t^(m - e_i) times that image term.  Monomials are
    multiplied by `mono_mul`, so an exponent above EXPONENT_LIMIT raises.
    """
    out = {}
    for i, name in enumerate(D.ctx.names):
        if name not in D.ctx.fiber_names:
            continue
        for m, c in terms.items():
            if not m[i]:
                continue
            dm = m[:i] + (m[i] - 1,) + m[i + 1:]
            for mg, cg in D.images[name].terms.items():
                k = mono_mul(dm, mg)
                out[k] = out.get(k, Fraction(0)) + Fraction(c) * m[i] * Fraction(cg)
    return {m: c for m, c in out.items() if c}


def naive_exp_series(D: Derivation, a: dict, terms: dict) -> dict:
    """The term dict of sum_r a^r D^r(f) / r!, one series term at a time.

    D^r(f) comes from `naive_derivation`, and a^r from `naive_product`
    only up to the last nonzero D^r(f).
    """
    arity = D.ctx.arity
    total = {}
    apow = {(0,) * arity: Fraction(1)}
    r = 0
    while terms:
        if r:
            apow = naive_product(apow, a)
        for m, c in naive_product(apow, terms).items():
            total[m] = total.get(m, Fraction(0)) + c / factorial(r)
        terms = naive_derivation(D, terms)
        r += 1
    return {m: c for m, c in total.items() if c}


# ---------------------------------------------------------------------------
# oracle 5: the localized witnesses of a Venereau-type spec in closed form
#
# A term dict here maps (a, i, j, k) to a Fraction for x^a t0^i t1^j t2^k,
# where a < 0 is a power of 1/x, so x * (1/x) cancels by itself.  Tags
# t0, t1, t2 stand for h, v, w.  Like oracle 4 this reads only `.terms`.

def localized_chain(r: Polynomial, s: Polynomial, Q: Polynomial) -> dict:
    """The witnesses of y, z and u in Q[x, 1/x][t0, t1, t2], by name.

    r and s are in x alone (x first in their context), Q is in (x, V, W).
    The chain follows x^2 p = y w + v^2 + r x v + s x^2:

        y_T = t0 - x Q(x, t1, t2)
        p_T = (y_T t2 + t1^2 + r x t1 + s x^2) / x^2
        z_T = (t1 - y_T p_T) / x
        u_T = (t2 + x (2 z_T + r) p_T + y_T p_T^2) / x^2
    """
    def x_to(a):
        return {(a, 0, 0, 0): Fraction(1)}

    t0, t1, t2 = ({m: Fraction(1)} for m in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    rr = {(m[0], 0, 0, 0): Fraction(c) for m, c in r.terms.items()}
    ss = {(m[0], 0, 0, 0): Fraction(c) for m, c in s.terms.items()}
    qq = {(m[0], 0, m[1], m[2]): Fraction(c) for m, c in Q.terms.items()}
    y = naive_sum((1, t0), (-1, naive_product(x_to(1), qq)))
    p = naive_product(x_to(-2), naive_sum(
        (1, naive_product(y, t2)), (1, naive_product(t1, t1)),
        (1, naive_product(rr, naive_product(x_to(1), t1))), (1, naive_product(ss, x_to(2)))))
    z = naive_product(x_to(-1), naive_sum((1, t1), (-1, naive_product(y, p))))
    u = naive_product(x_to(-2), naive_sum(
        (1, t2), (1, naive_product(naive_product(x_to(1), naive_sum((2, z), (1, rr))), p)),
        (1, naive_product(y, naive_product(p, p)))))
    return {"y": y, "z": z, "u": u}


# ---------------------------------------------------------------------------
# random triangular derivations with synthetic slices

#: Context for the slice-kernel batteries: R = Q[a,b], fiber x,y,z.
SLICE_CTX = VarContext(["a", "b", "x", "y", "z"], coeff_block=["a", "b"])


def random_triangular_slice_instance(rng: random.Random,
                                     ctx: VarContext = SLICE_CTX,
                                     max_degree: int = 2):
    """A locally nilpotent triangular derivation with a known slice.

    Construction: start from the base derivation D0 with D0(x) = 0,
    D0(y) = f(a,b,x), D0(z) = 1 (slice z), then conjugate by a random
    triangular automorphism  phi: x -> x, y -> y + q(a,b,x),
    z -> z + t(a,b,x,y).  The conjugate D = phi^-1 D0 phi is again
    locally nilpotent and has the exact slice s = phi^-1(z).
    """
    a, b, x, y, z = (Polynomial.variable(ctx, n) for n in ("a", "b", "x", "y", "z"))

    sub = VarContext(["a", "b", "x"])
    f = random_polynomial(rng, sub, max_degree, max_terms=2).rename_context(ctx)
    suby = VarContext(["a", "b", "x", "y"])
    q = random_polynomial(rng, sub, max_degree, max_terms=2).rename_context(ctx)
    t = random_polynomial(rng, suby, max_degree, max_terms=2).rename_context(ctx)

    phi = PolyMap(ctx, ctx, {
        "a": a, "b": b, "x": x, "y": y + q, "z": z + t,
    })
    y_inv = y - q
    t_inv = t.substitute({"y": y_inv})
    phi_inv = PolyMap(ctx, ctx, {
        "a": a, "b": b, "x": x, "y": y_inv, "z": z - t_inv,
    })
    assert phi_inv.compose(phi).images["y"] == y
    assert phi_inv.compose(phi).images["z"] == z

    base = Derivation(ctx, {
        "x": Polynomial.zero(ctx),
        "y": f,
        "z": Polynomial.one(ctx),
    })
    images = {n: phi_inv(base(phi.images[n])) for n in ("x", "y", "z")}
    D = Derivation(ctx, images)
    s = phi_inv(z)
    return D, s


# ---------------------------------------------------------------------------
# oracle 6: the canonical printed form, with the monomial orders written
# out from their definitions (no `MonomialOrder`)

def _sign(n) -> int:
    return (n > 0) - (n < 0)


def _lex_cmp(a: tuple, b: tuple) -> int:
    """The first differing exponent decides; the larger one is bigger."""
    for x, y in zip(a, b):
        if x != y:
            return _sign(x - y)
    return 0


def _grevlex_cmp(a: tuple, b: tuple) -> int:
    """Higher total degree is bigger; on a tie, the last differing exponent
    decides, and the smaller one is bigger."""
    if sum(a) != sum(b):
        return _sign(sum(a) - sum(b))
    for x, y in reversed(list(zip(a, b))):
        if x != y:
            return _sign(y - x)
    return 0


def _order_cmp(order: str):
    """Comparison for 'lex', 'grevlex' or 'elim:<k>' (grevlex on the first k
    exponents, ties broken by grevlex on the rest)."""
    if order == "lex":
        return _lex_cmp
    if order == "grevlex":
        return _grevlex_cmp
    k = int(order.split(":")[1])
    return lambda a, b: _grevlex_cmp(a[:k], b[:k]) or _grevlex_cmp(a[k:], b[k:])


def naive_format(f: Polynomial, order: str = "grevlex") -> str:
    """The canonical string of f: terms descending in `order`, each signed
    coefficient printed as a `Fraction`, a unit coefficient dropped before a
    monomial, '^' for exponents above 1 and '*' between factors."""
    if not f.terms:
        return "0"
    monos = sorted(f.terms, key=functools.cmp_to_key(_order_cmp(order)), reverse=True)
    out = ""
    for mono in monos:
        c = f.terms[mono]
        factors = [name if e == 1 else "%s^%s" % (name, e)
                   for name, e in zip(f.ctx.names, mono) if e]
        if factors and abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += (" + " if c > 0 else " - ") + body
    return out


# ---------------------------------------------------------------------------
# oracle 7: Buchberger's algorithm over Fractions, with the rules of
# `groebner.buchberger` written out on exponent-tuple dicts (no packed
# keys, no fraction-free arithmetic, no `MonomialOrder`)

def naive_buchberger(gens, order: str) -> tuple:
    """(basis, pairs_processed, reductions, basis_size, peak) of the ideal of `gens`.

    The rules: each input is reduced against the inputs kept before it;
    pairs are taken by (lcm degree, i, j); a pair whose leads are coprime
    is dropped, and so is one whose lcm the lead of some third element k
    divides while neither pair (i, k) nor (j, k) is still queued (the chain
    criterion); every nonzero remainder joins the basis.  A reduction step
    takes the largest remaining term and the first element, in basis order,
    whose lead divides it.  Then the basis is minimalized (ascending by
    lead) and each element reduced by the others in that order.  `basis` is
    the monic reduced basis as term dicts, ascending by lead; `reductions`
    counts the steps of all three stages; `peak` is the size of the
    working basis before minimalizing, every input and S-polynomial
    remainder kept.
    """
    key = functools.cmp_to_key(_order_cmp(order))
    steps = 0

    def monic(f):
        lt = max(f, key=key)
        return lt, {m: c / f[lt] for m, c in f.items()}

    def reduce(f, basis):
        nonlocal steps
        f, rem = dict(f), {}
        while f:
            m = max(f, key=key)
            divisor = next((e for e in basis if mono_divides(e[0], m)), None)
            if divisor is None:
                rem[m] = f.pop(m)
                continue
            steps += 1
            lt, g = divisor
            f = naive_sum((1, f), (-f[m], naive_product({mono_div(m, lt): 1}, g)))
        return rem

    basis = []      # (lead, monic term dict)
    for g in gens:
        f = reduce({m: Fraction(c) for m, c in g.terms.items()}, basis)
        if f:
            basis.append(monic(f))
    pairs, pending = [], set()

    def queue(i, j):
        heapq.heappush(pairs, (sum(mono_lcm(basis[i][0], basis[j][0])), i, j))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            queue(i, j)
    processed = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        (ti, fi), (tj, fj) = basis[i], basis[j]
        lcm = mono_lcm(ti, tj)
        if lcm == mono_mul(ti, tj):
            continue
        if any(k not in (i, j) and mono_divides(tk, lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, (tk, _) in enumerate(basis)):
            continue
        processed += 1
        s = naive_sum((1, naive_product({mono_div(lcm, ti): 1}, fi)),
                      (-1, naive_product({mono_div(lcm, tj): 1}, fj)))
        s = reduce(s, basis)
        if s:
            basis.append(monic(s))
            for i in range(len(basis) - 1):
                queue(i, len(basis) - 1)

    peak = len(basis)
    minimal = []
    for lt, g in sorted(basis, key=lambda e: key(e[0])):
        if not any(mono_divides(o, lt) for o, _ in minimal):
            minimal.append((lt, g))
    for i, (_, g) in enumerate(minimal):
        minimal[i] = monic(reduce(g, minimal[:i] + minimal[i + 1:]))
    return [g for _, g in minimal], processed, steps, len(minimal), peak
