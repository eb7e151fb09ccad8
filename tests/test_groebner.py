"""Groebner engine: bases, normal forms, membership, budgets, oracle."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from venlab import groebner
from venlab.groebner import (
    Budget,
    BudgetExceededError,
    MembershipResult,
    buchberger,
    ideal_member,
    normal_form,
    subalgebra_member,
    subalgebra_members,
    tag_ring,
    times_x,
)
from venlab.parse import parse_polynomial
from venlab.poly import GREVLEX, MonomialOrder, Polynomial, VarContext

from helpers import (_order_cmp, ideal_member_linear, mono_divides, mono_mul,
                     naive_buchberger, naive_evaluate, random_polynomial)

XY = VarContext(["x", "y"])
XYZ = VarContext(["x", "y", "z"])


def P(text, ctx=XY):
    return parse_polynomial(text, ctx)


# ---------------------------------------------------------------------------
# pinned bases

def test_principal_ideal_already_reduced():
    gb = buchberger([P("x - 1")])
    assert [str(g) for g in gb.generators] == ["x - 1"]


def test_divisible_generators_collapse():
    gb = buchberger([P("x^2"), P("x^3")])
    assert [str(g) for g in gb.generators] == ["x^2"]


def test_lex_basis_of_xy_ideal():
    # hand-checkable: S(xy-1, y^2-1) reduces to x - y
    gb = buchberger([P("x y - 1"), P("y^2 - 1")], MonomialOrder("lex"))
    assert sorted(str(g) for g in gb.generators) == ["x - y", "y^2 - 1"]


def test_buchberger_criterion_by_exhaustive_s_polynomials():
    # every S-polynomial of the computed basis must reduce to zero
    rng = random.Random(3)
    ctx = VarContext(["x", "y", "z"])
    for _ in range(15):
        gens = [random_polynomial(rng, ctx, 3, max_terms=3, allow_zero=False)
                for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        basis = [g for g in gb.generators if not g.is_zero()]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = _s_polynomial(basis[i], basis[j], gb.order)
                assert normal_form(s, gb).is_zero()


def _s_polynomial(f, g, order):
    from helpers import mono_div, mono_lcm
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    lcm = mono_lcm(mf, mg)
    t1 = Polynomial(f.ctx, {mono_div(lcm, mf): 1 / cf})
    t2 = Polynomial(g.ctx, {mono_div(lcm, mg): 1 / cg})
    return t1 * f - t2 * g


def test_reduced_basis_properties():
    rng = random.Random(9)
    ctx = VarContext(["x", "y", "z"])
    for _ in range(10):
        gens = [random_polynomial(rng, ctx, 3, max_terms=3, allow_zero=False)
                for _ in range(2)]
        if any(g.is_zero() for g in gens):
            continue
        gb = buchberger(gens)
        for i, g in enumerate(gb.generators):
            assert g.leading_term(gb.order)[1] == 1  # monic
            for j, other in enumerate(gb.generators):
                if i == j:
                    continue
                lt = other.leading_term(gb.order)[0]
                for mono in g.terms:
                    assert not mono_divides(lt, mono)


# ---------------------------------------------------------------------------
# packed monomial keys

@pytest.mark.parametrize("order", ["lex", "grevlex", "elim:1", "elim:2", "elim:3", "elim:5"])
@pytest.mark.parametrize("bound", [6, 2**42])
def test_packed_keys_follow_the_monomial_order(order, bound):
    # keys must compare like the independent order comparison, test
    # divisibility like mono_divides, and multiply by addition without
    # carrying between fields, also for products of two monomials at the
    # degree bound; elim:5 eliminates every variable, and the wide bound
    # takes exponents from 2^40 to 2^42
    cmp = _order_cmp(order)
    order = MonomialOrder.parse(order)
    rng = random.Random(17)
    arity = 4
    keys = groebner._Keys(order, arity, bound)
    monos = [tuple(bound if i == j else 0 for i in range(arity)) for j in range(arity)]
    monos += [(0,) * arity, (1,) * arity]
    while len(monos) < 40:
        if bound > 6:
            monos.append(tuple(rng.choice((0, 0, 1, 2, 5, 2**40)) for _ in range(arity)))
            continue
        mono = [0] * arity
        for _ in range(rng.choice([rng.randint(0, bound), bound])):
            mono[rng.randrange(arity)] += 1
        monos.append(tuple(mono))
    for a in monos:
        ka = keys.pack(a)
        assert keys.unpack(ka) == a
        assert keys.degree(ka) == sum(a)
        for b in monos:
            kb = keys.pack(b)
            assert (ka < kb) == (cmp(a, b) < 0)
            assert keys.divides(ka, kb) == mono_divides(a, b)
            ab = mono_mul(a, b)
            assert ka + kb == keys.pack(ab)
            assert keys.unpack(ka + kb) == ab
            assert keys.degree(ka + kb) == sum(ab)
            for c in monos[:12]:
                assert (ka + kb < keys.pack(c)) == (cmp(ab, c) < 0)


#: Generators whose S-polynomials widen the keys with two pairs still
#: queued under elim:1 at cap 4 (a tail term of degree 5).
QUEUED_AT_WIDENING = ["3/4*y*z^2 - 5*y", "-2*x*z^2 + x^2 + x*z", "-3*x*y^2 + 3/4*x + 3"]


@pytest.mark.parametrize("gens, order, cap, expected", [
    (["-x*y^2 - 3*x^2", "5*x^2*y"], "lex", 5, None),
    (["5*x^2*y - 2*x*y^2 - 5*x^2", "-3*x^2*y + 5*x - 1/2", "-4*x^2*y - 5*x*y^2 + x*y"],
     "lex", 3, None),
    (["2*x^2*y - 4*y^3", "x^2*y + 4*x*y"], "lex", 3, "degree cap exceeded during reduction"),
    (QUEUED_AT_WIDENING, "elim:1", 4, None),
], ids=["basis", "unit-ideal", "cap-exceeded", "pairs-queued"])
def test_s_polynomial_terms_above_the_cap_widen_the_keys(monkeypatch, gens, order, cap, expected):
    # under lex and elim an S-polynomial term may pass the degree cap (only
    # lcms and reduction products are held to it); the keys widen, the
    # lcms of the pairs still queued are packed again, and the basis, its
    # stats or the budget detail come out as without packing
    bounds = []

    class Recording(groebner._Keys):
        __slots__ = ()

        def __init__(self, order, arity, bound):
            bounds.append(bound)
            super().__init__(order, arity, bound)

    monkeypatch.setattr(groebner, "_Keys", Recording)
    gens = [P(g, XYZ) for g in gens]
    order = MonomialOrder.parse(order)
    if expected is None:
        capped, free = buchberger(gens, order, Budget(max_degree=cap)), buchberger(gens, order)
        assert capped == free
        assert capped.stats == free.stats
    else:
        with pytest.raises(BudgetExceededError, match=expected):
            buchberger(gens, order, Budget(max_degree=cap))
    assert bounds[:2] == [cap, 2 * cap]


def test_bases_and_counts_agree_with_the_naive_oracle():
    # 48 seeded ideals, 12 per order: of their 456 popped pairs, 131 have
    # coprime leads, the chain criterion drops 172 and 153 are reduced;
    # then the widening input at cap 4, whose counts are (15, 29, 5)
    rng = random.Random(1988)
    cases = []
    for order in ("lex", "grevlex", "elim:1", "elim:2"):
        for _ in range(12):
            cases.append((order, Budget(), [random_polynomial(rng, XYZ, 3, max_terms=4,
                                                              allow_zero=False)
                                            for _ in range(rng.randint(2, 3))]))
    cases.append(("elim:1", Budget(max_degree=4), [P(g, XYZ) for g in QUEUED_AT_WIDENING]))
    for order, budget, gens in cases:
        gb = buchberger(gens, MonomialOrder.parse(order), budget)
        basis, pairs, reductions, size, _ = naive_buchberger(gens, order)
        assert [g.terms for g in gb.generators] == basis, (order, gens)
        assert (gb.stats.pairs_processed, gb.stats.reductions, gb.stats.basis_size) == \
            (pairs, reductions, size), (order, gens)
    assert (pairs, reductions, size) == (15, 29, 5)


def test_basis_cap_bounds_every_element_kept():
    # the seeded ideals of the oracle test: a cap below the oracle's peak
    # working basis (inputs and S-polynomial remainders kept) runs out, and
    # the peak itself suffices
    rng = random.Random(1988)
    cases = []
    for order in ("lex", "grevlex", "elim:1", "elim:2"):
        for _ in range(12):
            cases.append((order, Budget(), [random_polynomial(rng, XYZ, 3, max_terms=4,
                                                              allow_zero=False)
                                            for _ in range(rng.randint(2, 3))]))
    cases.append(("elim:1", Budget(max_degree=4), [P(g, XYZ) for g in QUEUED_AT_WIDENING]))
    capped = 0
    for order, budget, gens in cases:
        mono_order = MonomialOrder.parse(order)
        peak = naive_buchberger(gens, order)[4]
        for m in range(1, peak):
            with pytest.raises(BudgetExceededError, match="^basis size cap exceeded$"):
                buchberger(gens, mono_order, replace(budget, max_basis=m))
            capped += 1
        gb = buchberger(gens, mono_order, replace(budget, max_basis=peak))
        assert gb.generators == buchberger(gens, mono_order, budget).generators, (order, gens)
    assert capped == 149


# ---------------------------------------------------------------------------
# metamorphic properties

@pytest.mark.parametrize("order", ["lex", "grevlex", "elim:1", "elim:2"])
def test_reduced_basis_ignores_generator_order_scale_and_repeats(order):
    order = MonomialOrder.parse(order)
    rng = random.Random(41)
    ctx = VarContext(["x", "y", "z"])
    proper = 0
    for _ in range(12):
        gens = [random_polynomial(rng, ctx, 3, max_terms=3, allow_zero=False)
                for _ in range(rng.randint(2, 3))]
        gb = buchberger(gens, order)
        proper += not gb.generators[0].is_constant()
        variants = (
            rng.sample(gens, len(gens)),
            [g * Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)) for g in gens],
            gens + [rng.choice(gens) * Fraction(-2, 3)] + gens[:1],
        )
        for variant in variants:
            other = buchberger(variant, order)
            assert other.generators == gb.generators
            assert other.stats.basis_size == gb.stats.basis_size
    assert proper >= 6


@pytest.mark.parametrize("order", ["lex", "grevlex", "elim:1", "elim:2"])
def test_every_lead_coefficient_is_positive(monkeypatch, order):
    # _reduce scales its work side by lc / gcd(c, lc), which is positive
    # only because every basis entry has a positive lead coefficient; so
    # do the entries that a wide normal form packs again
    order = MonomialOrder.parse(order)
    rng = random.Random(47)
    ctx = VarContext(["x", "y", "z"])
    passed = []
    real = groebner._reduce

    def reduce(terms, basis, *rest):
        passed.append(basis)
        return real(terms, basis, *rest)

    monkeypatch.setattr(groebner, "_reduce", reduce)
    for _ in range(8):
        gens = [random_polynomial(rng, ctx, 3, max_terms=3, allow_zero=False) * -3
                for _ in range(rng.randint(2, 3))]
        gb = buchberger(gens, order, Budget(max_degree=8))
        assert all(lc > 0 for _, lc, _ in gb._entries)
        passed.clear()
        normal_form(random_polynomial(rng, ctx, 3, allow_zero=False) * P("x^10", ctx), gb)
        (basis,) = passed
        assert basis is not gb._entries and len(basis) == len(gb._entries)
        assert all(lc > 0 for _, lc, _ in basis)


@pytest.mark.parametrize("split, reductions, pairs", [(1, 39, 15), (2, 119, 23)])
def test_elimination_basis_work_counts_are_pinned(split, reductions, pairs):
    # the reduction steps and their order are part of the contract: the
    # golden reports print these counts
    ctx = VarContext(["x", "y", "z", "w"])
    gens = [parse_polynomial(t, ctx)
            for t in ("x^2 - y*z + 1", "x*y - w^2 + 2*z", "y^2 - 3*z*w + x")]
    gb = buchberger(gens, MonomialOrder("elim", block_split=split))
    assert (gb.stats.reductions, gb.stats.pairs_processed, gb.stats.basis_size) == (
        reductions, pairs, 7)


# ---------------------------------------------------------------------------
# normal form

def test_normal_form_membership():
    gb = buchberger([P("x - 1")])
    assert normal_form(P("x^2 - 1"), gb).is_zero()


def test_normal_form_idempotent_on_reduced_input():
    gb = buchberger([P("x y - 1")])
    f = P("x + y^3")
    assert normal_form(f, gb) == f


def test_normal_form_single_division_step():
    gb = buchberger([P("x y - 1")])
    assert normal_form(P("x^2 y"), gb) == P("x")


def test_normal_form_linear_in_f():
    rng = random.Random(21)
    ctx = VarContext(["x", "y", "z"])
    gb = buchberger([parse_polynomial("x^2 + y", ctx),
                     parse_polynomial("y z - 1", ctx)])
    for _ in range(20):
        f = random_polynomial(rng, ctx, 4)
        g = random_polynomial(rng, ctx, 4)
        nf = normal_form
        assert nf(f + g, gb) == nf(f, gb) + nf(g, gb)
        assert nf(f * 3, gb) == nf(f, gb) * 3
        assert nf(nf(f, gb), gb) == nf(f, gb)  # idempotence


# ---------------------------------------------------------------------------
# ideal membership

@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_normal_form_is_a_remainder_over_q(order):
    # the fraction-free kernel divides den * f and undoes scale * den at the
    # end: the result must be fully reduced and differ from f by an ideal
    # element, judged by the linear-algebra oracle
    rng = random.Random(29)
    ctx = VarContext(["x", "y", "z"])
    fractional = 0
    for _ in range(15):
        gens = [random_polynomial(rng, ctx, 2, max_terms=3, allow_zero=False)
                for _ in range(2)]
        gb = buchberger(gens, MonomialOrder(order))
        leads = [g.leading_term(gb.order)[0] for g in gb.generators if not g.is_zero()]
        f = random_polynomial(rng, ctx, 3, max_terms=6)
        fractional += any(c.denominator > 1 for c in f.terms.values())
        nf = normal_form(f, gb)
        assert not any(mono_divides(lead, m) for lead in leads for m in nf.terms)
        assert ideal_member_linear(f - nf, gens)
    assert fractional >= 3


def test_normal_form_respects_degree_cap():
    gb = buchberger([P("x y - 1"), P("y^2 - 1")])
    with pytest.raises(BudgetExceededError, match="degree cap"):
        normal_form(P("x^5 y^3"), gb, Budget(max_degree=3))
    assert normal_form(P("x^5 y^3"), gb) == P("1")


@pytest.mark.parametrize("target", ["x^5 y^4 + 3 x^3 y^2 - x y + 2", "x^17 y^7 - 2 x^9 + y"])
def test_normal_form_widens_the_keys_of_a_narrow_basis(target):
    # the basis is packed for degree 4, whose fields hold exponent sums up
    # to 15; the target and the default budget need wider ones, which
    # normal_form makes for the call
    gens = [P("x y - 1"), P("y^2 - x")]
    narrow = buchberger(gens, budget=Budget(max_degree=4))
    target = P(target)
    assert narrow._keys.bound < target.degree()
    assert normal_form(target, narrow) == normal_form(target, buchberger(gens))


def test_ideal_member_basic():
    assert ideal_member(P("x^2 - 1"), [P("x - 1")])
    assert not ideal_member(Polynomial.one(XY), [P("x"), P("y")])


def test_unit_ideal_with_inverse_relation():
    ctx = VarContext(["x", "xi"])
    one = Polynomial.one(ctx)
    # 1 = xi*x - (x*xi - 1)
    assert ideal_member(one, [parse_polynomial("x xi - 1", ctx),
                              parse_polynomial("x", ctx)])


def test_membership_agrees_with_linear_algebra_oracle():
    rng = random.Random(123)
    ctx = VarContext(["x", "y", "z"])
    checked = 0
    for _ in range(40):
        gens = [random_polynomial(rng, ctx, 3, max_terms=3, allow_zero=False)
                for _ in range(2)]
        if any(g.is_zero() for g in gens):
            continue
        if rng.random() < 0.5:
            c1 = random_polynomial(rng, ctx, 2, max_terms=2)
            c2 = random_polynomial(rng, ctx, 2, max_terms=2)
            f = c1 * gens[0] + c2 * gens[1]
        else:
            f = random_polynomial(rng, ctx, 3)
        if f.is_zero():
            continue
        assert ideal_member(f, gens) == ideal_member_linear(f, gens)
        checked += 1
    assert checked >= 25


# ---------------------------------------------------------------------------
# elimination and subalgebra membership

def test_elimination_property():
    # eliminate x from (x^2 - y, x^3 - z): the elimination ideal contains y^3 - z^2
    ctx = VarContext(["x", "y", "z"])
    order = MonomialOrder("elim", block_split=1)
    gb = buchberger([parse_polynomial("x^2 - y", ctx),
                     parse_polynomial("x^3 - z", ctx)], order)
    eliminated = [g for g in gb.generators if "x" not in g.variables_used()]
    assert any(g == parse_polynomial("y^3 - z^2", ctx)
               or g == -parse_polynomial("y^3 - z^2", ctx) for g in eliminated)
    # normal forms of x-free inputs stay x-free
    f = parse_polynomial("y^4 + z", ctx)
    assert "x" not in normal_form(f, gb).variables_used()


def test_subalgebra_z_not_in_z2_z3():
    ctx = VarContext(["z"])
    z = Polynomial.variable(ctx, "z")
    result = subalgebra_member(z, [z ** 2, z ** 3])
    assert result.status == "nonmember"


def test_subalgebra_z5_witness():
    ctx = VarContext(["z"])
    z = Polynomial.variable(ctx, "z")
    result = subalgebra_member(z ** 5, [z ** 2, z ** 3])
    assert result.status == "member"
    assert result.witness_identity_holds(z ** 5, [z ** 2, z ** 3])
    # the only product of z^2 and z^3 reaching degree 5 is their product
    assert str(result.witness) in ("_t0*_t1", "_t1*_t0")


def test_subalgebra_with_inverted_variable():
    # y/x-style membership: z = (x z) / x needs x inverted
    ctx = VarContext(["x", "z"], coeff_block=["x"])
    x = Polynomial.variable(ctx, "x")
    z = Polynomial.variable(ctx, "z")
    assert subalgebra_member(z, [x * z]).status == "nonmember"
    res = subalgebra_member(z, [x * z], invert="x")
    assert res.status == "member"
    assert res.witness_identity_holds(z, [x * z])


def test_subalgebra_over_the_coefficient_block_alone():
    # no variable is eliminated: the tag ring takes grevlex, the elim order
    # with an empty first block, and every f in R = Q[x, y] is a member
    ctx = VarContext(["x", "y"], coeff_block=["x", "y"])
    x = Polynomial.variable(ctx, "x")
    y = Polynomial.variable(ctx, "y")
    assert tag_ring(ctx, 1)[1] == GREVLEX
    for f, gens in [(x * y, []), (x ** 2 + y, [x]), (x * y - 1, [x * y, y ** 2])]:
        result = subalgebra_member(f, gens)
        assert result.status == "member"
        assert result.witness_identity_holds(f, gens)


@pytest.mark.parametrize("coeff_block", [(), ("x",)], ids=["no-block", "x-block"])
def test_inverting_a_variable_outside_the_coefficient_block_is_an_error(coeff_block):
    ctx = VarContext(["x", "z"], coeff_block=coeff_block)
    x = Polynomial.variable(ctx, "x")
    z = Polynomial.variable(ctx, "z")
    with pytest.raises(ValueError, match="coefficient block"):
        subalgebra_member(z, [x * z], invert="z")
    with pytest.raises(ValueError, match="coefficient block"):
        list(subalgebra_members([z, x], [x * z], invert="z"))


def test_subalgebra_witness_validates_on_random_instances():
    rng = random.Random(5)
    ctx = VarContext(["x", "y"])
    for _ in range(15):
        g1 = random_polynomial(rng, ctx, 2, max_terms=2, allow_zero=False)
        g2 = random_polynomial(rng, ctx, 2, max_terms=2, allow_zero=False)
        if g1.is_zero() or g2.is_zero():
            continue
        # f is a polynomial combination of the generators: always a member
        f = g1 * g2 + g1 ** 2 + 3
        result = subalgebra_member(f, [g1, g2])
        assert result.status == "member"
        assert result.witness_identity_holds(f, [g1, g2])


@pytest.mark.parametrize("invert", [None, "x"])
def test_shared_basis_matches_per_target_membership(invert):
    # one basis for all targets decides exactly as one basis per target,
    # also when the budget runs out in a normal form or in the basis
    ctx = VarContext(["x", "y", "z"], coeff_block=["x"])
    seen = set()
    for budget in (Budget(), Budget(max_reductions=3), Budget(max_degree=2)):
        rng = random.Random(11)
        for _ in range(8):
            gens = [random_polynomial(rng, ctx, 2, max_terms=2, allow_zero=False)
                    for _ in range(2)]
            targets = [Polynomial.variable(ctx, "y"), Polynomial.variable(ctx, "z"),
                       gens[0] * gens[1] + 1, random_polynomial(rng, ctx, 2)]
            shared = list(subalgebra_members(targets, gens, invert=invert, budget=budget))
            assert len(shared) == len(targets)
            for f, got in zip(targets, shared):
                alone = subalgebra_member(f, gens, invert=invert, budget=budget)
                assert (got.status, got.witness, got.stats, got.detail) == (
                    alone.status, alone.witness, alone.stats, alone.detail)
                if got:
                    assert got.witness_identity_holds(f, gens)
                seen.add(got.status)
    assert seen == {"member", "nonmember", "undetermined"}


def test_member_status_means_a_rechecked_witness(monkeypatch):
    z = Polynomial.variable(VarContext(["z"]), "z")
    result = subalgebra_member(z ** 5, [z ** 2, z ** 3])
    assert result.status == "member"
    assert result.expansion == z ** 5
    monkeypatch.setattr(MembershipResult, "witness_identity_holds",
                        lambda self, f, gens: False)
    result = subalgebra_member(z ** 5, [z ** 2, z ** 3])
    assert result.status == "undetermined"
    assert result.detail == "witness failed re-substitution"
    assert result.witness is None


# ---------------------------------------------------------------------------
# budgets

def test_budget_degree_cap_raises():
    ctx = VarContext(["x", "y"])
    gens = [parse_polynomial("x^5 - y", ctx)]
    with pytest.raises(BudgetExceededError):
        buchberger(gens, budget=Budget(max_degree=3))


def test_budget_makes_subalgebra_undetermined():
    ctx = VarContext(["x", "y"])
    g = parse_polynomial("x^3 + y^2 x + y", ctx)
    f = g ** 4 + g
    result = subalgebra_member(f, [g], budget=Budget(max_reductions=20))
    assert result.status == "undetermined"
    assert "cap" in result.detail
    # the same question resolves under the default budget
    assert subalgebra_member(f, [g]).status == "member"


def test_determinism_same_inputs_same_basis():
    rng = random.Random(77)
    ctx = VarContext(["x", "y", "z"])
    gens = [random_polynomial(rng, ctx, 3, max_terms=4, allow_zero=False)
            for _ in range(3)]
    gb1 = buchberger(gens)
    gb2 = buchberger(gens)
    assert [str(g) for g in gb1.generators] == [str(g) for g in gb2.generators]


def test_basis_serialization():
    gb = buchberger([P("x y - 1"), P("y^2 - 1")], MonomialOrder("lex"))
    payload = gb.serialize()
    assert payload["order"] == "lex"
    assert payload["variables"] == ["x", "y"]
    assert all(isinstance(s, str) for s in payload["basis"])


def test_times_x_agrees_with_evaluation_where_x_inv_is_the_reciprocal():
    # oracle: at any point with x_inv = 1/x, times_x(f, x, k) takes the
    # value x^k * f; and no term of the result holds both x and x_inv
    rng = random.Random(7103)
    ctx = VarContext(["x", "y"], coeff_block=["x"])
    work_ctx, _, _, inv_name = tag_ring(ctx, 1, "x")
    xi, ii = work_ctx.index("x"), work_ctx.index(inv_name)
    for _ in range(30):
        f = random_polynomial(rng, work_ctx, 4, max_terms=6)
        for k in range(-3, 4):
            g = times_x(f, "x", k)
            assert all(not (m[xi] and m[ii]) for m in g.terms)
            for _ in range(3):
                point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for n in work_ctx.names}
                point["x"] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
                point[inv_name] = 1 / point["x"]
                assert naive_evaluate(g, point) == point["x"] ** k * naive_evaluate(f, point)
