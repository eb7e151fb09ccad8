"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every check is exact (zero-remainder) rational arithmetic; randomized
batteries are seeded and deterministic.
"""

import random

from venlab.derivation import Derivation, dixmier_projection, exp_shift
from venlab.groebner import Budget, ideal_member, buchberger, normal_form
from venlab.parse import parse_polynomial
from venlab.poly import Polynomial, VarContext
from venlab.slice_kernel import (
    certify_polynomial_ring,
    check_stably_free_shadow,
    kernel_from_slice,
)
from venlab.venereau import (
    build,
    check_fibers,
    check_jacobian,
    check_localized,
    check_residual,
    family,
)

from helpers import (
    ideal_member_linear,
    random_polynomial,
    random_triangular_slice_instance,
    shifted_by_substitution,
)

SPECS = [
    family("venereau", 1),
    family("venereau", 2),
    family("venereau", 3),
    family("bhatwadekar-dutta", 1),
    build("x", "1", "V + W", label="generic"),
]

#: Pinned golden Jacobian values (c, m) with det d(h,v,w)/d(y,z,u) = c*x^m,
#: identical across all five specs.
GOLDEN_JACOBIAN = {"v1": ("1", 3), "v2": ("1", 3), "v3": ("1", 3),
                   "b1": ("1", 3), "generic": ("1", 3)}


def _line(name, ok):
    print("acceptance: %-28s %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, name


# ---------------------------------------------------------------------------

def test_criterion_1_coordinate_identities():
    ok = True
    for spec in SPECS:
        residual = check_residual(spec)
        localized = check_localized(spec)
        if residual.verdict != "pass" or localized.verdict != "pass":
            ok = False
            break
        for name in ("y", "z", "u"):
            target = Polynomial.variable(spec.ctx, name)
            if not localized.data[name].witness_identity_holds(
                    target, [spec.h, spec.v, spec.w]):
                ok = False
    _line("coordinate-identities", ok)


def test_criterion_2_jacobian_unit_shape():
    ok = True
    for spec in SPECS:
        report = check_jacobian(spec)
        golden = GOLDEN_JACOBIAN[spec.label]
        if report.verdict != "pass":
            ok = False
        elif (report.witnesses["c"], report.witnesses["m"]) != golden:
            ok = False
    # corrupted negative controls must fail
    v1 = SPECS[0]
    for broken in (v1.corrupted(w=v1.w + parse_polynomial("y^2 z", v1.ctx)),
                   v1.corrupted(h=parse_polynomial("y + z^2", v1.ctx))):
        if check_jacobian(broken).verdict != "fail":
            ok = False
    _line("jacobian-unit-shape", ok)


def test_criterion_3_exponential_laws():
    rng = random.Random(2024)
    ctx = VarContext(["x", "y", "z"])
    ok = True
    for _ in range(200):
        f = random_polynomial(rng, ctx, 6)
        g = random_polynomial(rng, ctx, 6)
        sf, sg = exp_shift(f), exp_shift(g)
        if sf != shifted_by_substitution(f):
            ok = False
            break
        if exp_shift(f * g) != sf * sg or exp_shift(f + g) != sf + sg:
            ok = False
            break
        # counit: zero shift recovers f
        ext = sf.ctx
        zero = {"_e_" + n: Polynomial.zero(ext) for n in ctx.names}
        if sf.substitute(zero) != f.rename_context(ext):
            ok = False
            break
        # co-associativity: shifting the shifted polynomial by fresh
        # offsets equals one shift by the sum
        ctx3 = VarContext(["ax", "ay", "az", "x", "y", "z"],
                          coeff_block=["ax", "ay", "az"])
        ext3 = ctx3.extend(["_e_" + n for n in ctx.names])
        relabel = {"_e_" + n: Polynomial.variable(ctx3, "a" + n) for n in ctx.names}
        relabel.update({n: Polynomial.variable(ctx3, n) for n in ctx.names})
        twice = exp_shift(sf.substitute(relabel))
        merged = sf.substitute(
            {n: Polynomial.variable(ext3, n) for n in ctx.names}
            | {"_e_" + n: Polynomial.variable(ext3, "a" + n)
               + Polynomial.variable(ext3, "_e_" + n) for n in ctx.names})
        if twice != merged:
            ok = False
            break
    _line("exponential-laws", ok)


def test_criterion_4_dixmier_suite():
    rng = random.Random(7)
    ctx = None
    ok = True
    for _ in range(100):
        D, s = random_triangular_slice_instance(rng)
        ctx = D.ctx
        if not D.certify_nilpotent().certified:
            ok = False
            break
        f = random_polynomial(rng, ctx, 3, max_terms=3)
        g = random_polynomial(rng, ctx, 3, max_terms=3)
        pf = dixmier_projection(D, s, f)
        pg = dixmier_projection(D, s, g)
        if not D(pf).is_zero():
            ok = False
            break
        if dixmier_projection(D, s, pf) != pf:
            ok = False
            break
        if not dixmier_projection(D, s, s).is_zero():
            ok = False
            break
        if dixmier_projection(D, s, f * g) != pf * pg:
            ok = False
            break
        result = kernel_from_slice(D, s)
        if result.generation_verdict != "pass":
            ok = False
            break
    _line("dixmier-suite", ok)


def test_criterion_5_slice_kernel_structure():
    rng = random.Random(19)
    undetermined = 0
    total = 25
    ok = True
    for _ in range(total):
        D, s = random_triangular_slice_instance(rng)
        D.certify_nilpotent()
        result = kernel_from_slice(D, s)
        if result.generation_verdict != "pass":
            ok = False
            break
        result = check_stably_free_shadow(certify_polynomial_ring(result))
        if result.pair_verdict == "undetermined":
            undetermined += 1
            continue
        if result.pair_verdict != "pass" or result.stably_free_verdict != "pass":
            ok = False
            break
    if undetermined > total // 5:
        ok = False
    _line("slice-kernel-structure", ok)


def test_criterion_6_groebner_oracle():
    rng = random.Random(101)
    ctx = VarContext(["x", "y", "z"])
    checked = 0
    ok = True
    while checked < 100:
        gens = [random_polynomial(rng, ctx, 3, max_terms=3, allow_zero=False)
                for _ in range(2)]
        if any(g.is_zero() for g in gens):
            continue
        if rng.random() < 0.5:
            f = (random_polynomial(rng, ctx, 2, max_terms=2) * gens[0]
                 + random_polynomial(rng, ctx, 2, max_terms=2) * gens[1])
        else:
            f = random_polynomial(rng, ctx, 3)
        if f.is_zero():
            continue
        if ideal_member(f, gens) != ideal_member_linear(f, gens):
            ok = False
            break
        gb = buchberger(gens)
        nf = normal_form(f, gb)
        if normal_form(nf, gb) != nf:
            ok = False
            break
        checked += 1
    _line("groebner-oracle", ok)


def test_criterion_7_fiber_checks():
    v1 = SPECS[0]
    report = check_fibers(v1, samples=[(0, 0), (0, 1), (1, 0), (2, 1)])
    ok = report.verdict == "pass"
    if ok:
        ok = (report.witnesses["(0,0)"]["regime"] == "residual"
              and report.witnesses["(0,1)"]["regime"] == "residual"
              and report.witnesses["(1,0)"]["regime"] == "localized"
              and report.witnesses["(2,1)"]["regime"] == "localized")
    starved = check_fibers(v1, samples=[(1, 0)], budget=Budget(max_degree=4))
    if starved.verdict != "undetermined":
        ok = False
    _line("fiber-checks", ok)
