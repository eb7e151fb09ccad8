"""Venereau-type specs: construction formulas, checks, negative controls."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import localized_chain, naive_product, naive_substitute, naive_sum
from venlab import cli, groebner, venereau
from venlab.groebner import Budget
from venlab.parse import parse_polynomial
from venlab.poly import InputError, Polynomial, VarContext
from venlab.venereau import (
    FAMILY_NAMES,
    MAIN_CONTEXT,
    Q_CONTEXT,
    VenereauSpec,
    _closed_form,
    build,
    check_fibers,
    check_jacobian,
    check_localized,
    check_residual,
    family,
    run_checks,
)


def M(text):
    return parse_polynomial(text, MAIN_CONTEXT)


# ---------------------------------------------------------------------------
# construction formulas

def test_build_v1_formulas():
    spec = family("venereau", 1)
    assert spec.lam == M("z^2")
    assert spec.p == M("y u + z^2")
    assert spec.v == M("x z + y (y u + z^2)")
    assert spec.w == M("x^2 u - 2 x z (y u + z^2)") - M("y") * M("y u + z^2") ** 2
    assert spec.h == M("y") + M("x") * spec.v


def test_build_b1_formulas():
    spec = family("bhatwadekar-dutta", 1)
    assert spec.lam == M("z^2 + z")
    assert spec.p == M("y u + z^2 + z")
    assert spec.w == (M("x^2 u") - M("x") * M("2 z + 1") * spec.p
                      - M("y") * spec.p ** 2)


def test_build_v3_uses_x_cubed():
    spec = family("venereau", 3)
    assert spec.h == M("y") + M("x^3") * spec.v


def test_lewis_simplest_shape():
    # Q = V, no Q2: h = y + x^2 v
    spec = family("lewis", Q="V")
    assert spec.h == M("y") + M("x^2") * spec.v


def test_lewis_q2_term():
    spec = family("lewis", Q="V", Q2="W")
    expected = M("y") + M("x^2") * spec.v + M("x^3") * spec.v * spec.w
    assert spec.h == expected


def test_build_matches_the_naive_construction():
    # build and identities_hold both run on the product kernel; here the
    # construction is redone term by term on the Fraction oracle, over 20
    # seeded (r, s, Q) of x-degree <= 2 whose Q uses both V and W
    rng = random.Random(2026)

    def coeff():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))

    def in_x():
        return {(e, 0, 0, 0): coeff() for e in range(3) if rng.random() < 0.5}

    x, y, z, u = ({m: Fraction(1)} for m in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    for _ in range(20):
        r, s = in_x(), in_x()
        shapes = [(1, 0), (0, 1)] + rng.sample([(0, 0), (1, 1), (2, 0), (0, 2)], 2)
        Q = Polynomial(Q_CONTEXT, {(rng.randint(0, 2),) + vw: coeff() for vw in shapes})
        spec = build(Polynomial(MAIN_CONTEXT, r), Polynomial(MAIN_CONTEXT, s), Q)
        lam = naive_sum((1, naive_product(z, z)), (1, naive_product(r, z)), (1, s))
        p = naive_sum((1, naive_product(y, u)), (1, lam))
        v = naive_sum((1, naive_product(x, z)), (1, naive_product(y, p)))
        w = naive_sum((1, naive_product(naive_product(x, x), u)),
                      (-1, naive_product(naive_product(x, naive_sum((2, z), (1, r))), p)),
                      (-1, naive_product(y, naive_product(p, p))))
        images = {n: Polynomial(MAIN_CONTEXT, t) for n, t in (("x", x), ("V", v), ("W", w))}
        h = naive_sum((1, y), (1, naive_product(x, naive_substitute(Q, images))))
        assert (spec.lam.terms, spec.p.terms, spec.v.terms, spec.w.terms, spec.h.terms) == \
            (lam, p, v, w, h), (r, s, Q)


def test_identity_underpins_every_family():
    x, y = M("x"), M("y")
    for spec in (family("venereau", 1), family("bhatwadekar-dutta", 1),
                 family("daigle-freudenburg", 1, r="x", s="1 + x^2")):
        lhs = x ** 2 * spec.p
        rhs = y * spec.w + spec.v ** 2 + spec.r * x * spec.v + spec.s * x ** 2
        assert lhs == rhs


def test_family_validation():
    with pytest.raises(ValueError):
        family("nope")
    with pytest.raises(ValueError):
        family("venereau", 0)
    with pytest.raises(ValueError):
        family("lewis")  # needs Q
    with pytest.raises(ValueError):
        build("y", 0, "V")  # r must be univariate in x


def test_build_rejects_q_outside_the_placeholder_context_as_input():
    # the one type for rejected input, like the r/s check before it
    with pytest.raises(InputError, match=r"^Q must live in the \(x, V, W\) placeholder context$"):
        build(0, 0, Polynomial.variable(MAIN_CONTEXT, "x"))


@pytest.mark.parametrize("name, option, value", [
    ("venereau", "r", "x"), ("venereau", "s", 0), ("venereau", "Q", "V"),
    ("venereau", "Q2", "W"), ("bhatwadekar-dutta", "r", 1), ("bhatwadekar-dutta", "Q", "W"),
    ("daigle-freudenburg", "Q", "W"), ("daigle-freudenburg", "Q2", "W"),
    ("lewis", "r", "x"), ("lewis", "s", "1"), ("lewis", "n", 1),
])
def test_family_rejects_a_parameter_it_does_not_take(name, option, value):
    given = {"Q": "V"} if name == "lewis" else {}
    with pytest.raises(ValueError, match="^the %s family does not take %s$" % (name, option)):
        family(name, **given, **{option: value})


def test_family_parameters_not_given_take_their_defaults():
    assert family("daigle-freudenburg", 2).h == build(0, 0, "x*V").h
    assert family("daigle-freudenburg", 1, r="x").h == build("x", 0, "V").h
    assert family("lewis", Q="V").h == family("lewis", Q="V", Q2="0").h


# ---------------------------------------------------------------------------
# individual checks

def test_residual_pass_and_quotient():
    spec = family("venereau", 2)
    report = check_residual(spec)
    assert report.verdict == "pass"
    quotient = parse_polynomial(
        report.witnesses["quotient_of_h_minus_y_by_x"], MAIN_CONTEXT)
    assert M("x") * quotient == spec.h - M("y")


def test_residual_negative_control():
    spec = family("venereau", 1)
    bad = spec.corrupted(h=M("y + z"))
    report = check_residual(bad)
    assert report.verdict == "fail"
    assert report.witnesses["h_mod_x"] == "y + z"


@pytest.mark.parametrize("h, at_zero", [("y + z + x*u", "y + z"), ("x*y", "0")])
def test_residual_witness_is_h_at_x_equals_0(h, at_zero):
    report = check_residual(family("venereau", 1).corrupted(h=M(h)))
    assert (report.verdict, report.witnesses) == ("fail", {"h_mod_x": at_zero})


def test_localized_pass_with_witnesses():
    spec = family("venereau", 1)
    report = check_localized(spec)
    assert report.verdict == "pass"
    assert set(report.witnesses) == {"y", "z", "u"}
    for name in ("y", "z", "u"):
        assert report.witnesses[name]["inverted"] == "x"
        assert report.data[name].witness_identity_holds(
            Polynomial.variable(MAIN_CONTEXT, name), [spec.h, spec.v, spec.w])


def test_localized_builds_one_basis(monkeypatch):
    # y, z and u share the generators (h, v, w), hence one Groebner basis: the
    # closed form on an intact spec, one Buchberger run on a corrupted one
    calls = []
    real = groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    spec = family("venereau", 1)
    report = check_localized(spec)
    assert report.verdict == "pass"
    assert calls == []
    assert report.stats == dict.fromkeys(("y", "z", "u"), {"basis": "closed-form", "basis_size": 4})
    # p is not a generator: the coordinate system is intact, the chain is not
    assert check_localized(spec.corrupted(p=spec.p + M("x"))).verdict == "pass"
    assert len(calls) == 1


def test_fibers_specialise_the_localized_identities():
    spec = family("venereau", 2)
    localized = check_localized(spec)
    x = Polynomial.variable(MAIN_CONTEXT, "x")
    for name in ("y", "z", "u"):
        result = localized.data[name]
        assert result.expansion == Polynomial.variable(MAIN_CONTEXT, name) * x ** result.inv_power
    report = check_fibers(spec, samples=[(1, 0), (-1, 1), (3, 2)], localized=localized)
    assert report.verdict == "pass"


def test_localized_negative_control():
    # dropping the u-part of w breaks the coordinate property
    spec = family("venereau", 1)
    bad = spec.corrupted(w=spec.w - M("x^2 u"))
    report = check_localized(bad)
    assert report.verdict in ("fail", "undetermined")
    assert report.verdict == "fail"


def test_localized_budget_starvation_is_undetermined():
    # an input past the degree cap, and Buchberger's own steps where the
    # closed form does not apply
    spec = family("venereau", 1)
    assert check_localized(spec, budget=Budget(max_degree=4)).verdict == "undetermined"
    report = check_localized(spec.corrupted(p=spec.p + M("x")), budget=Budget(max_reductions=10))
    assert report.verdict == "undetermined"
    assert report.stats["detail"] == "reduction step cap exceeded"


def test_localized_failed_witness_is_undetermined(monkeypatch):
    # a witness that fails its re-check disproves nothing; a corrupted p
    # keeps the generators and takes the substitution path
    monkeypatch.setattr(groebner.MembershipResult, "witness_identity_holds",
                        lambda self, f, gens: False)
    v1 = family("venereau", 1)
    spec = v1.corrupted(p=v1.p + M("x"))
    report = check_localized(spec)
    assert report.verdict == "undetermined"
    assert report.stats["detail"] == "witness failed re-substitution"
    fibers = check_fibers(spec, samples=[(0, 0), (1, 0), (-1, 1)], localized=report)
    assert fibers.verdict == "undetermined"
    assert fibers.witnesses["(0,0)"]["verdict"] == "pass"
    assert fibers.witnesses["(1,0)"]["verdict"] == "undetermined"
    assert fibers.witnesses["(-1,1)"]["verdict"] == "undetermined"


def test_jacobian_golden_value():
    for name, n in (("venereau", 1), ("venereau", 2), ("venereau", 3),
                    ("bhatwadekar-dutta", 1)):
        report = check_jacobian(family(name, n))
        assert report.verdict == "pass"
        assert report.witnesses["c"] == "1"
        assert report.witnesses["m"] == 3


def test_jacobian_negative_control():
    spec = family("venereau", 1)
    bad = spec.corrupted(w=spec.w + M("y^2 z"))
    report = check_jacobian(bad)
    assert report.verdict == "fail"
    assert "determinant" in report.witnesses


def test_jacobian_one_term_without_x_fails():
    # h = y, v = z, w = z u: the 3 x 3 determinant is z, one term but not c x^m
    spec = family("venereau", 1).corrupted(h=M("y"), v=M("z"), w=M("z*u"))
    assert spec.identities_hold is False
    report = check_jacobian(spec)
    assert report.verdict == "fail"
    assert report.witnesses == {"determinant": "z"}


def test_jacobian_row_operation_matches_the_leibniz_oracle(monkeypatch):
    """A spec whose identities hold takes det d(v,w)/d(z,u); a corrupted
    one takes the 3 x 3 sum.  Both equal the permutation expansion of the
    full matrix, byte for byte in the report."""
    from helpers import permutation_det
    from venlab.parse import format_polynomial
    from venlab.poly import jacobian_matrix
    sizes = []
    real = venereau.jacobian_det
    monkeypatch.setattr(venereau, "jacobian_det",
                        lambda polys, names: sizes.append(len(polys)) or real(polys, names))
    rng = random.Random(4110)
    # the stress specs' h has over 200 terms, which the oracle expands slowly
    specs = [spec for spec in _chain_specs(4110) if len(spec.h.terms) < 60]
    for spec in specs:
        assert spec.identities_hold
        for bad in (spec, spec.corrupted(h=spec.h + M("x z^2")),
                    spec.corrupted(h=spec.h + rng.choice((1, -2)) * M("y z")),
                    spec.corrupted(w=spec.w + M("y^2 z"))):
            del sizes[:]
            report = check_jacobian(bad)
            expected = permutation_det(jacobian_matrix([bad.h, bad.v, bad.w], ["y", "z", "u"]))
            assert report.witnesses["determinant"] == format_polynomial(expected), bad.label
            assert sizes == [2 if bad is spec else 3]


def test_fibers_pass_and_regimes():
    spec = family("venereau", 1)
    report = check_fibers(spec, samples=[(0, 0), (0, 1), (1, 0), (2, 1)])
    assert report.verdict == "pass"
    assert report.witnesses["(0,0)"]["regime"] == "residual"
    assert report.witnesses["(1,0)"]["regime"] == "localized"
    assert report.stats["samples"] == 4


def test_fibers_decide_each_sample_point_once(monkeypatch):
    # FIBER_SAMPLES lists each c = 1, -1, 2 twice (d = 0, 1); the witness
    # check depends on c alone
    calls = []
    original = venereau._fiber_witnesses_hold

    def counting(spec, localized, c):
        calls.append(c)
        return original(spec, localized, c)

    monkeypatch.setattr(venereau, "_fiber_witnesses_hold", counting)
    report = check_fibers(family("venereau", 1))
    assert report.verdict == "pass"
    assert report.stats["samples"] == 8
    assert sorted(calls) == [-1, 1, 2]


def test_fibers_propagate_undetermined():
    spec = family("venereau", 1)
    report = check_fibers(spec, samples=[(0, 0), (1, 0)],
                          budget=Budget(max_degree=4))
    assert report.verdict == "undetermined"
    assert report.witnesses["(0,0)"]["verdict"] == "pass"
    assert report.witnesses["(1,0)"]["verdict"] == "undetermined"


def test_fibers_negative_control():
    spec = family("venereau", 1)
    bad = spec.corrupted(h=M("y + z"))
    report = check_fibers(bad, samples=[(0, 0)])
    assert report.verdict == "fail"


@pytest.mark.parametrize("corrupt, expected", [
    (lambda spec: {"h": M("y + z")}, "fail"),
    (lambda spec: {"h": spec.h + M("x z^2")}, "pass"),
], ids=["residual-fails", "residual-passes"])
def test_c0_fibers_report_the_residual_verdict(monkeypatch, corrupt, expected):
    spec = family("venereau", 1)
    bad = spec.corrupted(**corrupt(spec))
    assert check_residual(bad).verdict == expected
    calls = []
    real = venereau.check_residual
    monkeypatch.setattr(venereau, "check_residual", lambda spec: calls.append(spec) or real(spec))
    samples = [(0, 0), (0, 1), (1, 0)]
    reports = run_checks(bad, samples=samples)
    assert len(calls) == 1
    for fibers in (reports[-1], check_fibers(bad, samples=samples)):
        assert fibers.witnesses["(0,0)"]["verdict"] == expected
        assert fibers.witnesses["(0,1)"]["verdict"] == expected
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# orchestration and reports

def test_run_checks_order_and_serialization():
    spec = family("venereau", 1)
    reports = run_checks(spec, samples=[(0, 0), (1, 0)])
    assert [r.check for r in reports] == ["residual", "localized", "jacobian", "fibers"]
    assert all(r.verdict == "pass" for r in reports)
    for r in reports:
        payload = r.to_dict()
        assert payload["schema"] == 1
        assert payload["check"] == r.check
        assert "data" not in payload


@pytest.mark.parametrize("checks", [("fibers", "localized"), ("fibers", "residual"),
                                    ("jacobian", "fibers", "residual", "localized"), ("fibers",)])
def test_run_checks_shares_reports_whatever_the_order(monkeypatch, checks):
    # the intact spec takes the closed form, the corrupted one Buchberger
    v1 = family("venereau", 1)
    for spec, n_bases in ((v1, 0), (v1.corrupted(p=v1.p + M("x")), 1)):
        default = {r.check: r.to_dict() for r in run_checks(spec)}
        localized, bases, residuals = [], [], []
        real_localized, real_residual = venereau.check_localized, venereau.check_residual
        real_basis = groebner.buchberger
        monkeypatch.setattr(venereau, "check_localized",
                            lambda *args: localized.append(1) or real_localized(*args))
        monkeypatch.setattr(groebner, "buchberger",
                            lambda *args, **kw: bases.append(1) or real_basis(*args, **kw))
        monkeypatch.setattr(venereau, "check_residual",
                            lambda s: residuals.append(1) or real_residual(s))
        reports = run_checks(spec, checks)
        monkeypatch.undo()
        assert [r.check for r in reports] == list(checks)
        assert [r.to_dict() for r in reports] == [default[name] for name in checks]
        assert len(localized) == 1 and len(residuals) == 1
        assert len(bases) == n_bases


def test_generic_instance_passes_everything():
    spec = build("x", "1", "V + W", label="generic")
    reports = run_checks(spec, samples=[(0, 0), (1, 1)])
    assert all(r.verdict == "pass" for r in reports)


def test_localized_implies_unit_jacobian():
    # whenever the membership check certifies the coordinate identity, the
    # Jacobian shape check must agree
    for spec in (family("venereau", 1), family("bhatwadekar-dutta", 1),
                 family("lewis", Q="V")):
        if check_localized(spec).verdict == "pass":
            assert check_jacobian(spec).verdict == "pass"


def test_corrupted_keeps_original_intact():
    spec = family("venereau", 1)
    bad = spec.corrupted(h=M("y + z"))
    assert bad.label.endswith("corrupted")
    assert spec.h != bad.h
    assert check_residual(spec).verdict == "pass"


def test_corrupted_takes_a_given_label():
    spec = family("venereau", 1)
    bad = spec.corrupted(label="x", h=M("y + z"))
    assert bad.label == "x"
    assert bad.h == M("y + z")
    assert spec.corrupted().label == spec.label + "+corrupted"
    assert replace(spec, label="").corrupted().label == "corrupted"


# ---------------------------------------------------------------------------
# the closed-form chain and basis

#: (r, s) of the daigle-freudenburg specs, n = 1.
DF_PAIRS = (("1", "x"), ("2", "x"), ("x", "x"), ("2*x", "2"), ("x^2", "1"), ("x^2", "2"))

#: (Q, Q2) of the lewis specs.
LEWIS_PAIRS = (("V", "1"), ("V", "x"), ("V", "2"), ("2*V", "1"), ("2*V", "2"))

#: Monomials of the seeded lewis shapes Q.
LEWIS_MONOMIALS = ("1", "x", "V", "W", "x*V", "x*W", "V^2", "V*W", "W^2")

#: Specs given by (r, s, Q) directly.
CUSTOM_SPECS = {
    "Q=W": ("0", "0", "W"),
    "generic": ("x", "1", "V + W"),
    "stress": ("x^2+1", "x", "V+W+V^2"),
    "stress-2": ("x^2+1", "x", "V+W+V^2+W^2"),
    "stress-3": ("x^2+1", "x", "V^3+W^2"),
    "stress-4": ("x^3+x", "x^2-1", "V^2+W^2+V W"),
}


def _chain_specs(seed: int) -> list:
    rng = random.Random(seed)
    specs = [family("venereau", n) for n in range(1, 9)]
    specs += [family("bhatwadekar-dutta", n) for n in range(1, 4)]
    specs += [family("daigle-freudenburg", 1, r=r, s=s) for r, s in DF_PAIRS]
    for _ in range(7):
        Q = sum((rng.choice((-2, -1, 1, 2)) * parse_polynomial(mono, Q_CONTEXT)
                 for mono in rng.sample(LEWIS_MONOMIALS, 2)), Polynomial.zero(Q_CONTEXT))
        Q2 = rng.choice((-1, 1, 2)) * parse_polynomial(rng.choice(("1", "x", "V", "W")), Q_CONTEXT)
        specs.append(replace(family("lewis", Q=Q, Q2=Q2), label="lewis Q=%s Q2=%s" % (Q, Q2)))
    specs += [build(r, s, Q, label=label) for label, (r, s, Q) in CUSTOM_SPECS.items()]
    return specs


def test_identities_are_tested_once_per_spec(monkeypatch):
    contexts = []
    real = venereau._sum_of_products

    def counting(ctx, items):
        contexts.append(ctx)
        return real(ctx, items)

    monkeypatch.setattr(venereau, "_sum_of_products", counting)
    spec = family("venereau", 2)
    assert contexts == [MAIN_CONTEXT] * 4
    # the four chain steps in the tag ring, and no identity again
    assert check_localized(spec).verdict == "pass"
    assert len(contexts) == 8 and MAIN_CONTEXT not in contexts[4:]
    assert spec.corrupted(h=spec.h + M("x z^2")).identities_hold is False
    # a copy tests again, so it never inherits a stale answer
    del contexts[:]
    assert replace(spec, label="x").identities_hold is True
    assert contexts == [MAIN_CONTEXT] * 4


def _laurent_terms(witness: Polynomial) -> dict:
    """A tag-ring polynomial's terms keyed (a, i, j, k) as in `localized_chain`."""
    names = witness.ctx.names
    xi, ii = names.index("x"), names.index("_inv_x")
    tags = [names.index(t) for t in ("_t0", "_t1", "_t2")]
    out = {}
    for mono, c in witness.terms.items():
        assert not (mono[xi] and mono[ii]), "x * x_inv left in a normal form"
        out[(mono[xi] - mono[ii],) + tuple(mono[t] for t in tags)] = c
    return out


@pytest.mark.parametrize("seed", [5, 17])
def test_normal_form_equals_the_closed_form_chain(monkeypatch, seed):
    # the witnesses are the normal forms as computed; no re-check runs
    monkeypatch.setattr(groebner.MembershipResult, "witness_identity_holds",
                        lambda self, f, gens: True)
    targets = [Polynomial.variable(MAIN_CONTEXT, name) for name in ("y", "z", "u")]
    for spec in _chain_specs(seed):
        chain = localized_chain(spec.r, spec.s, spec.Q)
        results = groebner.subalgebra_members(targets, [spec.h, spec.v, spec.w], invert="x")
        for name, result in zip(("y", "z", "u"), results):
            assert result.status == "member", (spec.label, name)
            assert _laurent_terms(result.witness) == chain[name], (spec.label, name)


@pytest.mark.parametrize("seed", [3, 29])
def test_buchberger_finds_the_closed_form_basis(seed):
    """Oracle: on intact specs, Buchberger on the tag relations returns the
    closed form {x x_inv - 1, u - u_T, z - z_T, y - y_T}, in that order."""
    rng = random.Random(seed)
    specs = [family("daigle-freudenburg", 1, r=r, s=s) for r, s in rng.sample(DF_PAIRS, 2)]
    for q, q2 in rng.sample(LEWIS_PAIRS, 2):
        specs.append(family("lewis", Q=q, Q2=q2))
    specs.append(build(*CUSTOM_SPECS["stress"], label="stress"))
    for spec in specs:
        work_ctx, order, tags, inv_name = groebner.tag_ring(spec.ctx, 3, "x")
        relations = [Polynomial.variable(work_ctx, t) - g.rename_context(work_ctx)
                     for t, g in zip(tags, (spec.h, spec.v, spec.w))]
        x_x_inv = Polynomial.variable(work_ctx, "x") * Polynomial.variable(work_ctx, inv_name)
        gb = groebner.buchberger(relations + [x_x_inv - 1], order)
        closed = [Polynomial.variable(work_ctx, t) - result.witness
                  for t, result in zip("yzu", _closed_form(spec))]
        assert gb.generators == (x_x_inv - 1,) + tuple(reversed(closed)), spec.label
        assert gb.stats.basis_size == 4


def _witness_substitutions(monkeypatch) -> list:
    """Collect every later Polynomial.substitute call made on a tag-ring polynomial."""
    calls = []
    real = Polynomial.substitute

    def counting(self, images):
        if "_t0" in self.ctx:
            calls.append(self)
        return real(self, images)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    return calls


def test_corrupted_p_passes_through_the_fallback(monkeypatch):
    # p is not a generator: the coordinate system is intact, the chain is not
    spec = family("venereau", 1)
    bad = spec.corrupted(p=spec.p + M("x"))
    assert _closed_form(bad) is None
    calls = _witness_substitutions(monkeypatch)
    assert check_localized(bad).verdict == "pass"
    assert len(calls) == 3


@pytest.mark.parametrize("overrides", [
    lambda spec: {"w": spec.w - M("x^2 u")},
    lambda spec: {"h": spec.h + M("x z^2")},
], ids=["w-minus-x2u", "h-plus-xz2"])
def test_corrupted_generators_still_fail(overrides):
    spec = family("venereau", 1)
    bad = spec.corrupted(**overrides(spec))
    assert _closed_form(bad) is None
    assert check_localized(bad).verdict == "fail"


#: sha256 of `venlab --json venereau verify` stdout from the closed form.  Apart
#: from the localized stats, the bytes are those of Buchberger's basis with
#: every witness re-checked by substitution.
STRESS_STDOUT_SHA256 = {
    "stress": "83b455a2ad6c0506e2499012f477828cb58081dd1cb03d024bee861e2a919f11",
    "stress-2": "672a3057b8c8b8dd63ca6dcb6826991566a9f09452bed64671df7fc5417fefcd",
}


@pytest.mark.parametrize("label", sorted(STRESS_STDOUT_SHA256))
def test_stress_specs_take_the_certificate_path(monkeypatch, capsys, label):
    r, s, Q = CUSTOM_SPECS[label]
    calls = _witness_substitutions(monkeypatch)
    assert cli.main(["--json", "venereau", "verify", "--r", r, "--s", s, "--Q", Q]) == 0
    assert calls == []
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STRESS_STDOUT_SHA256[label]
