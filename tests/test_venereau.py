"""Venereau-type specs: construction formulas, checks, negative controls."""

import pytest

from venlab import groebner
from venlab.groebner import Budget
from venlab.parse import parse_polynomial
from venlab.poly import Polynomial, VarContext
from venlab.venereau import (
    FAMILY_NAMES,
    MAIN_CONTEXT,
    Q_CONTEXT,
    VenereauSpec,
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
    # y, z and u share the generators (h, v, w), hence one Groebner basis
    calls = []
    real = groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    report = check_localized(family("venereau", 1))
    assert report.verdict == "pass"
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
    spec = family("venereau", 1)
    report = check_localized(spec, budget=Budget(max_reductions=10))
    assert report.verdict == "undetermined"


def test_localized_failed_witness_is_undetermined(monkeypatch):
    # a witness that fails its re-check disproves nothing
    monkeypatch.setattr(groebner.MembershipResult, "witness_identity_holds",
                        lambda self, f, gens: False)
    spec = family("venereau", 1)
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


def test_fibers_pass_and_regimes():
    spec = family("venereau", 1)
    report = check_fibers(spec, samples=[(0, 0), (0, 1), (1, 0), (2, 1)])
    assert report.verdict == "pass"
    assert report.witnesses["(0,0)"]["regime"] == "residual"
    assert report.witnesses["(1,0)"]["regime"] == "localized"
    assert report.stats["samples"] == 4


def test_fibers_propagate_undetermined():
    spec = family("venereau", 1)
    report = check_fibers(spec, samples=[(0, 0), (1, 0)],
                          budget=Budget(max_reductions=10))
    assert report.verdict == "undetermined"
    assert report.witnesses["(0,0)"]["verdict"] == "pass"
    assert report.witnesses["(1,0)"]["verdict"] == "undetermined"


def test_fibers_negative_control():
    spec = family("venereau", 1)
    bad = spec.corrupted(h=M("y + z"))
    report = check_fibers(bad, samples=[(0, 0)])
    assert report.verdict == "fail"


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
