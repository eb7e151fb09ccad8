"""Slice-determined kernel structure: projection, generation, certification."""

import random

import pytest

from venlab import derivation, groebner, slice_kernel
from venlab.derivation import Derivation, dixmier_projection, exp_automorphism
from venlab.groebner import Budget, BudgetExceededError
from venlab.parse import parse_polynomial
from venlab.poly import InputError, Polynomial, VarContext
from venlab.slice_kernel import (
    certify_polynomial_ring,
    check_stably_free_shadow,
    kernel_from_slice,
)

from helpers import SLICE_CTX, naive_substitute, random_triangular_slice_instance
from test_cli import TEMPLATE_B, TEMPLATE_B_SLICE

CTX = VarContext(["x", "y", "z"])
X, Y, Z = (Polynomial.variable(CTX, n) for n in "xyz")


# ---------------------------------------------------------------------------
# the two hand-checkable cases

def test_plain_partial_derivative():
    # D = d/dz, slice z: kernel generators are x, y, projection of z is 0
    D = Derivation(CTX, {"z": Polynomial.one(CTX)})
    result = kernel_from_slice(D, Z)
    assert result.kernel_generators["x"] == X
    assert result.kernel_generators["y"] == Y
    assert result.kernel_generators["z"].is_zero()
    assert result.generation_verdict == "pass"

    result = certify_polynomial_ring(result)
    assert result.pair_verdict == "pass"
    assert set(result.two_generator_subset) == {"x", "y"}

    result = check_stably_free_shadow(result)
    assert result.stably_free_verdict == "pass"
    assert result.stably_free_witnesses["determinant"] in ("1", "-1")


def test_triangular_with_parameter():
    # D(y) = x, D(z) = 1 over Q[x]... here x is an honest fiber variable
    # with D(x) = 0, so pi(x) = x and pi(y) = y - x z
    D = Derivation(CTX, {"y": X, "z": Polynomial.one(CTX)})
    result = kernel_from_slice(D, Z)
    assert result.kernel_generators["x"] == X
    assert result.kernel_generators["y"] == Y - X * Z
    assert result.generation_verdict == "pass"
    # y must be recovered from {x, y - xz, 0, z}
    assert result.generation_witnesses["y"]["status"] == "member"

    result = check_stably_free_shadow(certify_polynomial_ring(result))
    assert result.pair_verdict == "pass"
    assert result.stably_free_verdict == "pass"


def test_kernel_from_slice_builds_no_basis(monkeypatch):
    # every witness is read off the certificate by the Slice Theorem
    D, s = random_triangular_slice_instance(random.Random(3))
    D.certify_nilpotent()
    calls = []
    real = groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    result = kernel_from_slice(D, s)
    assert result.generation_verdict == "pass"
    assert calls == []


def test_kernel_witness_rechecks_share_products(monkeypatch):
    """Pin the term products of the witness re-checks of one kernel.

    D = phi^-1 D0 phi with D0 = (0, 2b - x^2, 1) and phi three elementary
    steps, the shape of the benchmark's lnd instances.  Substitution by
    Horner's rule shares the products of the generators' powers across the
    witness terms; expanding each term as its own product took 4391, 4380
    and 34983 term products for the Groebner normal forms once used as
    witnesses.  The closed-form witnesses read off the Slice Theorem cost
    more products to re-check (the reduced normal forms re-checked in 276,
    275 and 3170), while the whole call, which builds no basis, costs less.
    """
    from venlab import poly
    from venlab.poly import PolyMap
    P = lambda text: parse_polynomial(text, SLICE_CTX)
    phi = phi_inv = PolyMap.identity(SLICE_CTX)
    for var, p in (("y", P("x^2 - 2*a*x")), ("z", P("2*x*y + b")), ("x", P("1 - a*y"))):
        step, back = ({n: Polynomial.variable(SLICE_CTX, n) + (q if n == var else 0)
                       for n in SLICE_CTX.names} for q in (p, -p))
        phi = phi.compose(PolyMap(SLICE_CTX, SLICE_CTX, step))
        phi_inv = PolyMap(SLICE_CTX, SLICE_CTX, back).compose(phi_inv)
    d0 = Derivation(SLICE_CTX, {"y": P("2*b - x^2"), "z": Polynomial.one(SLICE_CTX)})
    D = Derivation(SLICE_CTX, {n: phi_inv(d0(phi.images[n])) for n in ("x", "y", "z")})
    s = phi_inv(Polynomial.variable(SLICE_CTX, "z"))
    counts, inside = [], []
    real_mul, real_check = poly._mul_into, groebner.MembershipResult.witness_identity_holds

    def counting_mul(acc, a, b, scale):
        if inside:
            counts[-1] += len(a) * len(b)
        return real_mul(acc, a, b, scale)

    def counting_check(self, *args):
        counts.append(0)
        inside.append(1)
        try:
            return real_check(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(poly, "_mul_into", counting_mul)
    monkeypatch.setattr(groebner.MembershipResult, "witness_identity_holds", counting_check)
    assert kernel_from_slice(D, s).generation_verdict == "pass"
    assert counts == [1713, 1740, 13714]


def test_kernel_failed_witness_raises(monkeypatch):
    # a closed-form witness that fails its re-check is an internal error
    monkeypatch.setattr(groebner.MembershipResult, "witness_identity_holds",
                        lambda self, f, gens: False)
    D = Derivation(CTX, {"y": X, "z": Polynomial.one(CTX)})
    with pytest.raises(AssertionError, match="^witness of x failed re-substitution$"):
        kernel_from_slice(D, Z)


def test_invalid_slice_rejected():
    D = Derivation(CTX, {"z": Polynomial.one(CTX)})
    with pytest.raises(InputError, match=r"^D\(s\) != 1 for s = z\^2$"):
        kernel_from_slice(D, Z ** 2)


def test_kernel_checks_the_slice_and_the_certificate_once(monkeypatch):
    slices, certificates = [], []
    real_check, real_require = derivation.check_slice, Derivation._require_certificate

    def check(D, s):
        slices.append(s)
        return real_check(D, s)

    def require(self, budget):
        certificates.append((self, budget))
        return real_require(self, budget)

    monkeypatch.setattr(derivation, "check_slice", check)
    monkeypatch.setattr(slice_kernel, "check_slice", check)
    monkeypatch.setattr(Derivation, "_require_certificate", require)
    D = Derivation(CTX, {"y": X, "z": Polynomial.one(CTX)})
    budget = Budget(max_nilpotency=3)
    assert kernel_from_slice(D, Z, budget).generation_verdict == "pass"
    assert slices == [Z]
    assert certificates == [(D, budget)]


def test_series_reuse_the_certificate(monkeypatch):
    # once D is certified, exp(t D) applies D only to check t, and the
    # kernel projections only to check the slice and then each projection
    D, s = random_triangular_slice_instance(random.Random(7))
    D.certify_nilpotent()
    calls = []
    real = Derivation.__call__
    monkeypatch.setattr(Derivation, "__call__", lambda self, f: calls.append(f) or real(self, f))
    a = Polynomial.variable(D.ctx, "a")
    images = exp_automorphism(D, a).images
    assert calls == [a]
    assert images["a"] == a and images["b"] == Polynomial.variable(D.ctx, "b")
    calls.clear()
    result = kernel_from_slice(D, s)
    assert result.generation_verdict == "pass"
    assert calls == [s] + list(result.kernel_generators.values())


def test_kernel_checks_the_slice_before_the_certificate():
    # D(y) = y is not locally nilpotent
    D = Derivation(CTX, {"y": Y, "z": Polynomial.one(CTX)})
    with pytest.raises(InputError, match=r"^D\(s\) != 1 for s = z\^2$"):
        kernel_from_slice(D, Z ** 2)
    with pytest.raises(BudgetExceededError, match="not certified locally nilpotent"):
        kernel_from_slice(D, Z)


# ---------------------------------------------------------------------------
# randomized battery over Q[a,b][x,y,z]

def test_random_triangular_instances():
    rng = random.Random(2026)
    done = 0
    for _ in range(12):
        D, s = random_triangular_slice_instance(rng)
        cert = D.certify_nilpotent()
        assert cert.certified
        result = kernel_from_slice(D, s)
        assert result.generation_verdict == "pass"
        for name, g in result.kernel_generators.items():
            assert D(g).is_zero()
        result = check_stably_free_shadow(certify_polynomial_ring(result))
        assert result.pair_verdict in ("pass", "undetermined")
        if result.pair_verdict == "pass":
            assert result.stably_free_verdict == "pass"
            done += 1
    assert done >= 8  # the construction should certify most of the time


def _oracle_instances():
    """12 seeded triangular instances, template B, and one of index 6 (D^5(z) != 0)."""
    rng = random.Random(2027)
    instances = [random_triangular_slice_instance(rng) for _ in range(12)]
    B = derivation.parse_derivation(TEMPLATE_B)
    instances.append((B, parse_polynomial(TEMPLATE_B_SLICE, B.ctx)))
    P = lambda text: parse_polynomial(text, SLICE_CTX)
    instances.append((Derivation(SLICE_CTX, {"x": P("1"), "y": P("a*x"), "z": P("y^2 + b")}),
                      P("x")))
    return instances


def test_generation_witnesses_expand_to_the_fiber_variables():
    # oracle: each printed closed-form witness, and the Groebner witness of
    # the same membership, expand on Fraction term dicts to the variable
    indices = []
    for D, s in _oracle_instances():
        indices += D.certify_nilpotent().indices.values()
        result = kernel_from_slice(D, s)
        gens = list(result.kernel_generators.values()) + [s]
        tags = ["_t%d" % i for i in range(len(gens))]
        labels = dict(zip(tags, ["pi(%s)" % n for n in result.kernel_generators] + ["s"]))
        # the parser rejects the reserved tag names, so read them as t0, t1, ...
        read_ctx = VarContext(list(D.ctx.coeff_block) + [tag[1:] for tag in tags])
        images = {n: Polynomial.variable(D.ctx, n) for n in D.ctx.coeff_block}
        images.update(zip(tags, gens))
        read_images = {n.lstrip("_"): g for n, g in images.items()}
        targets = [Polynomial.variable(D.ctx, n) for n in result.kernel_generators]
        members = groebner.subalgebra_members(targets, gens)
        for t, member in zip(targets, members):
            (name,) = t.variables_used()
            entry = result.generation_witnesses[name]
            assert entry["tags"] == labels
            witness = parse_polynomial(entry["expression"].replace("_t", "t"), read_ctx)
            assert naive_substitute(witness, read_images) == t.terms
            assert member and naive_substitute(member.witness, images) == t.terms
    assert max(indices) == 6


def test_projection_transport_under_conjugation():
    # pi computed for the conjugated derivation agrees with conjugating
    # the base projection: pi_D = phi^-1 o pi_D0 o phi with phi = exp(s*D)-style
    # transport is implicit in the construction; spot-check multiplicativity
    rng = random.Random(4)
    D, s = random_triangular_slice_instance(rng)
    D.certify_nilpotent()
    f = parse_polynomial("x y + a z", SLICE_CTX)
    g = parse_polynomial("b x^2 - y", SLICE_CTX)
    pf = dixmier_projection(D, s, f)
    pg = dixmier_projection(D, s, g)
    assert dixmier_projection(D, s, f * g) == pf * pg
    assert dixmier_projection(D, s, s).is_zero()


def test_exp_automorphism_transports_kernel():
    # conjugating D by exp(t*D) for t in Ker D preserves the kernel setwise
    rng = random.Random(8)
    D, s = random_triangular_slice_instance(rng)
    D.certify_nilpotent()
    result = kernel_from_slice(D, s)
    t = result.kernel_generators["x"]  # in Ker D
    phi = exp_automorphism(D, t)
    for g in result.kernel_generators.values():
        assert D(phi(g)).is_zero()


# ---------------------------------------------------------------------------
# degenerate and adversarial inputs

def test_degenerate_pair_not_certified():
    # force two projected generators to coincide: no rank-2 pair among
    # (x, x, 0) exists, so certification must stay honest
    from venlab.slice_kernel import SliceKernelResult
    D = Derivation(CTX, {"z": Polynomial.one(CTX)})
    result = kernel_from_slice(D, Z)
    result.kernel_generators["y"] = result.kernel_generators["x"]
    result = certify_polynomial_ring(result)
    assert result.pair_verdict == "undetermined"
    result = check_stably_free_shadow(result)
    assert result.stably_free_verdict == "undetermined"


def test_generation_budget_starvation():
    # generation runs no Groebner basis, so no Groebner cap starves it
    rng = random.Random(15)
    D, s = random_triangular_slice_instance(rng, max_degree=2)
    for budget in (Budget(max_reductions=2), Budget(max_degree=1)):
        assert kernel_from_slice(D, s, budget=budget).generation_verdict == "pass"


def test_serialization_shape():
    D = Derivation(CTX, {"z": Polynomial.one(CTX)})
    result = check_stably_free_shadow(certify_polynomial_ring(kernel_from_slice(D, Z)))
    payload = result.to_dict()
    assert payload["schema"] == 1
    assert payload["generation"]["verdict"] == "pass"
    assert payload["polynomial_ring_pair"]["verdict"] == "pass"
    assert payload["stably_free_shadow"]["verdict"] == "pass"
    assert set(payload["kernel_generators"]) == {"x", "y", "z"}
