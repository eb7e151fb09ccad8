"""Venereau-type polynomials and machine checks of their coordinate identities.

Construction, over k[x][y,z,u]:

    lambda = z^2 + r(x) z + s(x)
    p      = y u + lambda
    v      = x z + y p
    w      = x^2 u - x (d lambda / d z) p - y p^2
    h      = y + x Q(x, v, w)

With this w one has the exact identity  x^2 p = y w + v^2 + r x v + s x^2,
which is what makes (h, v, w) a coordinate system of k[x]_x[y,z,u]; the
checks below verify that identity's consequences algorithmically and
produce explicit witnesses.  The identity also gives the reduced Groebner
basis of the localized check, and with it the witnesses, in closed form
(see `_closed_form`); a spec whose identities fail runs Buchberger.

Checks: residual coordinate at x = 0, localized coordinate system over
k[x] with x inverted (Groebner subalgebra membership with witnesses),
Jacobian unit shape c*x^m, and desk-scale fiber verification for the
morphism (x, h).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .groebner import (Budget, DEFAULT_BUDGET, MembershipResult, subalgebra_members, tag_ring,
                       times_x)
from .parse import format_polynomial, parse_polynomial
from .poly import InputError, Polynomial, VarContext, _sum_of_products, jacobian_det

#: Context of every built spec: k[x][y,z,u].
MAIN_CONTEXT = VarContext(["x", "y", "z", "u"], coeff_block=["x"])

#: Context in which the shape polynomial Q is written: x plus two
#: placeholders standing for v and w.
Q_CONTEXT = VarContext(["x", "V", "W"])

#: Default fiber sample points (c, d) for the morphism (x, h).
FIBER_SAMPLES = tuple((c, d) for c in (0, 1, -1, 2) for d in (0, 1))

FAMILY_NAMES = ("venereau", "bhatwadekar-dutta", "daigle-freudenburg", "lewis")


@dataclass(frozen=True)
class VenereauSpec:
    """The data (r, s, Q) together with every derived polynomial."""

    r: Polynomial          # in MAIN_CONTEXT, uses only x
    s: Polynomial          # in MAIN_CONTEXT, uses only x
    Q: Polynomial          # in Q_CONTEXT
    lam: Polynomial
    p: Polynomial
    v: Polynomial
    w: Polynomial
    h: Polynomial
    label: str = ""

    @property
    def ctx(self) -> VarContext:
        return MAIN_CONTEXT

    @cached_property
    def identities_hold(self) -> bool:
        """Whether the four identities of the construction hold on this spec:

            h - y   = x Q(x, v, w)
            x^2 p   = y w + v^2 + r x v + s x^2
            x z     = v - y p
            x^2 u   = w + x (2z + r) p + y p^2

        Each is one zero test of a sum of products.  A copy made by
        `corrupted` or `replace` is a new object and tests them again.
        """
        x, y, z, u = (Polynomial.variable(MAIN_CONTEXT, n) for n in ("x", "y", "z", "u"))
        r, s, p, v, w = self.r, self.s, self.p, self.v, self.w
        identities = (
            [(1, [(self.h, 1)]), (-1, [(y, 1)])] + _x_Q(-1, self.Q, x, v, w),
            [(1, [(x, 2), (p, 1)])] + _p_rhs(-1, x, y, v, w, r, s),
            [(1, [(x, 1), (z, 1)]), (-1, [(v, 1)]), (1, [(y, 1), (p, 1)])],
            [(1, [(x, 2), (u, 1)])] + _u_rhs(-1, x, y, z, p, w, r),
        )
        return all(_sum_of_products(MAIN_CONTEXT, items).is_zero() for items in identities)

    def corrupted(self, **overrides) -> "VenereauSpec":
        """A deliberately broken copy, for negative-control tests.

        Its label is `label` when one is given, else ``<label>+corrupted``.
        """
        overrides.setdefault("label", (self.label + "+corrupted").lstrip("+"))
        return replace(self, **overrides)


@dataclass
class CheckReport:
    """Verdict plus re-validating witness data for one check."""

    check: str
    verdict: str  # 'pass' | 'fail' | 'undetermined'
    witnesses: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    # live objects (e.g. MembershipResults) backing the witnesses; not serialized
    data: dict = field(default_factory=dict, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "check": self.check,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "stats": self.stats,
        }


def worst_verdict(*verdicts) -> str:
    """The one verdict order: any fail, else any undetermined or not-run, else pass."""
    if any(v == "fail" for v in verdicts):
        return "fail"
    if any(v in ("undetermined", "not-run") for v in verdicts):
        return "undetermined"
    return "pass"


def _as_x_polynomial(f) -> Polynomial:
    """Coerce r or s input (string, int, Fraction, Polynomial) into k[x]."""
    if isinstance(f, str):
        f = parse_polynomial(f, MAIN_CONTEXT)
    elif isinstance(f, (int, Fraction)):
        f = Polynomial.constant(MAIN_CONTEXT, f)
    elif isinstance(f, Polynomial) and f.ctx != MAIN_CONTEXT:
        f = f.rename_context(MAIN_CONTEXT)
    bad = f.variables_used() - {"x"}
    if bad:
        raise InputError("r and s must be univariate in x; found %s" % sorted(bad))
    return f


def build(r, s, Q, label: str = "") -> VenereauSpec:
    """Construct the spec from (r, s, Q) in the paper's operator form.

    Q may be a string or a Polynomial in the (x, V, W) placeholder
    context.  The derived polynomials are validated against the four
    identities of `VenereauSpec.identities_hold`, an independent
    recomputation, before the spec is returned; the first of them makes
    h - y divisible by x.  The result stays on the spec for the checks.
    """
    r = _as_x_polynomial(r)
    s = _as_x_polynomial(s)
    if isinstance(Q, str):
        Q = parse_polynomial(Q, Q_CONTEXT)
    if Q.ctx != Q_CONTEXT:
        raise InputError("Q must live in the (x, V, W) placeholder context")

    ctx = MAIN_CONTEXT
    x = Polynomial.variable(ctx, "x")
    y = Polynomial.variable(ctx, "y")
    z = Polynomial.variable(ctx, "z")
    u = Polynomial.variable(ctx, "u")

    lam = z ** 2 + r * z + s
    p = y * u + lam
    v = x * z + y * p
    w = x ** 2 * u - x * lam.partial("z") * p - y * p ** 2
    h = y + x * Q.substitute({
        "x": x, "V": v, "W": w,
    })

    spec = VenereauSpec(r=r, s=s, Q=Q, lam=lam, p=p, v=v, w=w, h=h, label=label)
    if not spec.identities_hold:
        raise AssertionError("an internal identity of the construction failed")
    return spec


def family(name: str, n: int = None, Q=None, Q2=None, r=None, s=None) -> VenereauSpec:
    """Named families.

      * venereau:            r = s = 0, Q = x^(n-1) V   (h = y + x^n v)
      * bhatwadekar-dutta:   r = 1, s = 0, Q = x^(n-1) V
      * daigle-freudenburg:  general r, s (default 0), Q = x^(n-1) V
      * lewis:               r = s = 0, h = y + x^2 Q + x^3 v Q2(x, v^2, w)

    None means "not given" for n (default 1), r, s, Q and Q2; giving one
    that the family does not take raises InputError.
    """
    if name not in FAMILY_NAMES:
        raise InputError("unknown family %r (expected one of %s)" % (name, ", ".join(FAMILY_NAMES)))
    takes = {"daigle-freudenburg": ("n", "r", "s"), "lewis": ("Q", "Q2")}.get(name, ("n",))
    for option, value in (("n", n), ("r", r), ("s", s), ("Q", Q), ("Q2", Q2)):
        if value is not None and option not in takes:
            raise InputError("the %s family does not take %s" % (name, option))
    n = 1 if n is None else n
    if n < 1:
        raise InputError("family parameter n must be >= 1, got %d" % n)
    xq = Polynomial.variable(Q_CONTEXT, "x")
    V = Polynomial.variable(Q_CONTEXT, "V")
    W = Polynomial.variable(Q_CONTEXT, "W")
    if name == "venereau":
        return build(0, 0, xq ** (n - 1) * V, label="v%d" % n)
    if name == "bhatwadekar-dutta":
        return build(1, 0, xq ** (n - 1) * V, label="b%d" % n)
    if name == "daigle-freudenburg":
        return build(0 if r is None else r, 0 if s is None else s, xq ** (n - 1) * V,
                     label="df%d" % n)
    # lewis
    if Q is None:
        raise InputError("the lewis family needs Q")
    if isinstance(Q, str):
        Q = parse_polynomial(Q, Q_CONTEXT)
    if Q2 is None:
        Q2 = Polynomial.zero(Q_CONTEXT)
    elif isinstance(Q2, str):
        Q2 = parse_polynomial(Q2, Q_CONTEXT)
    q2sq = Q2.substitute({"x": xq, "V": V ** 2, "W": W})
    effective = xq * Q + xq ** 2 * V * q2sq
    return build(0, 0, effective, label="lewis")


def _x_Q(sign: int, Q: Polynomial, x: Polynomial, v: Polynomial, w: Polynomial) -> list:
    """Items of sign * x * Q(x, v, w) for `_sum_of_products`, one per term of Q."""
    return [(Fraction(sign * q, Q.den), [(x, a + 1), (v, b), (w, c)])
            for (a, b, c), q in Q.nums.items()]


def _p_rhs(sign: int, x, y, v, w, r, s) -> list:
    """Items of sign * (y w + v^2 + r x v + s x^2), which is x^2 p."""
    return [(sign, [(y, 1), (w, 1)]), (sign, [(v, 2)]), (sign, [(r, 1), (x, 1), (v, 1)]),
            (sign, [(s, 1), (x, 2)])]


def _u_rhs(sign: int, x, y, z, p, w, r) -> list:
    """Items of sign * (w + x (2z + r) p + y p^2), which is x^2 u."""
    return [(sign, [(w, 1)]), (2 * sign, [(x, 1), (z, 1), (p, 1)]),
            (sign, [(x, 1), (r, 1), (p, 1)]), (sign, [(y, 1), (p, 2)])]


# ---------------------------------------------------------------------------
# checks

def check_residual(spec: VenereauSpec) -> CheckReport:
    """Pass iff h reduces to y modulo the ideal (x), with the quotient as witness.

    One pass over h splits it as x q + h(0); the check passes iff h(0) = y,
    and then q = (h - y) / x.
    """
    i, h = spec.ctx.index("x"), spec.h
    quotient = {m[:i] + (m[i] - 1,) + m[i + 1:]: c for m, c in h.nums.items() if m[i]}
    at_zero = Polynomial._reduced(spec.ctx, {m: c for m, c in h.nums.items() if not m[i]}, h.den)
    if at_zero != Polynomial.variable(spec.ctx, "y"):
        return CheckReport("residual", "fail", witnesses={
            "h_mod_x": format_polynomial(at_zero),
        })
    return CheckReport("residual", "pass", witnesses={
        "quotient_of_h_minus_y_by_x": format_polynomial(
            Polynomial._reduced(spec.ctx, quotient, h.den)),
    })


def check_localized(spec: VenereauSpec, budget: Budget = DEFAULT_BUDGET) -> CheckReport:
    """Pass iff y, z, u all lie in Q[x]_x[h, v, w], with re-validated witnesses.

    When `_closed_form` applies, the witnesses are read off the reduced
    basis it gives, and each target's stats name that basis; otherwise (a
    corrupted spec, or relations past an input cap) `subalgebra_members`
    runs Buchberger and re-checks each witness by substitution.
    """
    gens = [spec.h, spec.v, spec.w]
    names = ("y", "z", "u")
    targets = [Polynomial.variable(spec.ctx, name) for name in names]
    witnesses, stats, data = {}, {}, {}
    closed = _closed_form(spec, budget)
    results = closed or subalgebra_members(targets, gens, invert="x", budget=budget)
    for name, result in zip(names, results):
        stats[name] = ({"basis": "closed-form", "basis_size": 4} if closed
                       else _membership_stats(result))
        if result.status != "member":
            verdict = "undetermined" if result.status == "undetermined" else "fail"
            return CheckReport("localized", verdict, witnesses=witnesses,
                               stats=stats | {"detail": result.detail})
        witnesses[name] = _witness_payload(result)
        data[name] = result
    return CheckReport("localized", "pass", witnesses=witnesses, stats=stats, data=data)


def _closed_form(spec: VenereauSpec, budget: Budget = DEFAULT_BUDGET) -> Optional[list]:
    """Member results of y, z, u read off the closed-form basis, or None.

    With tags t0, t1, t2 for h, v, w, the chain

        y_T = t0 - x Q(x, t1, t2)
        p_T = (y_T t2 + t1^2 + r x t1 + s x^2) x_inv^2
        z_T = (t1 - y_T p_T) x_inv
        u_T = (t2 + x (2 z_T + r) p_T + y_T p_T^2) x_inv^2

    maps to y, p, z, u under t -> (h, v, w), x_inv -> 1/x, one identity of
    `VenereauSpec.identities_hold` per step.  So when they hold, the tag-ring
    ideal of `subalgebra_members` has the reduced basis {x x_inv - 1,
    u - u_T, z - z_T, y - y_T} (coprime leads, each element in the ideal,
    and a surjection of polynomial rings over Q[x^+-1] in three variables is
    injective), and t_T is the witness of t, with expansion x^k t.  None
    unless the identities hold (the spec tested them once) and the relations
    pass Buchberger's input caps: each within `budget.max_degree`, and the
    four basis elements within `budget.max_basis`.  Each chain step is one
    sum of products with x * x_inv cancelled afterwards, as in a normal form.
    """
    # the relations are t_i - g_i and x x_inv - 1
    degree = max(2, spec.h.degree(), spec.v.degree(), spec.w.degree())
    if not spec.identities_hold or degree > budget.max_degree or budget.max_basis < 4:
        return None
    work_ctx, _, tags, inv_name = tag_ring(spec.ctx, 3, "x")
    t0, t1, t2 = (Polynomial.variable(work_ctx, t) for t in tags)
    X = Polynomial.variable(work_ctx, "x")
    r, s = spec.r.rename_context(work_ctx), spec.s.rename_context(work_ctx)
    y_T = _sum_of_products(work_ctx, [(1, [(t0, 1)])] + _x_Q(-1, spec.Q, X, t1, t2))
    p_T = times_x(_sum_of_products(work_ctx, _p_rhs(1, X, y_T, t1, t2, r, s)), "x", -2)
    z_T = times_x(_sum_of_products(work_ctx, [(1, [(t1, 1)]), (-1, [(y_T, 1), (p_T, 1)])]), "x", -1)
    u_T = times_x(_sum_of_products(work_ctx, _u_rhs(1, X, y_T, z_T, p_T, t2, r)), "x", -2)
    x = Polynomial.variable(spec.ctx, "x")
    return [MembershipResult("member", w, tags, inv_name, "x",
                             expansion=Polynomial.variable(spec.ctx, t) * x ** w.degree(inv_name))
            for t, w in zip("yzu", (y_T, z_T, u_T))]


def _membership_stats(result: MembershipResult) -> dict:
    if result.stats is None:
        return {}
    return {
        "basis_size": result.stats.basis_size,
        "pairs_processed": result.stats.pairs_processed,
        "reductions": result.stats.reductions,
    }


def _witness_payload(result: MembershipResult) -> dict:
    return {
        "expression": format_polynomial(result.witness),
        "tags": {tag: gen for tag, gen in zip(result.tag_names, ("h", "v", "w"))},
        "inverted": result.invert,
    }


def check_jacobian(spec: VenereauSpec) -> CheckReport:
    """Pass iff det d(h,v,w)/d(y,z,u) is c * x^m with c a nonzero rational.

    When `spec.identities_hold`, h = y + x Q(x, v, w), so the h row is the
    y row (1, 0, 0) plus x Q_V(x, v, w) times the v row plus x Q_W(x, v, w)
    times the w row; subtracting those rows leaves det d(v,w)/d(z,u).
    Otherwise (a corrupted spec) the 3 x 3 Leibniz sum is taken.
    """
    if spec.identities_hold:
        det = jacobian_det([spec.v, spec.w], ["z", "u"])
    else:
        det = jacobian_det([spec.h, spec.v, spec.w], ["y", "z", "u"])
    report = CheckReport("jacobian", "fail",
                         witnesses={"determinant": format_polynomial(det)})
    if len(det.nums) != 1:
        return report
    mono, coeff = det.leading_term()
    if any(e and name != "x" for name, e in zip(spec.ctx.names, mono)):
        return report
    m = mono[spec.ctx.index("x")]
    report.verdict = "pass"
    report.witnesses.update({"c": str(coeff), "m": m})
    return report


def check_fibers(spec: VenereauSpec, samples: Sequence[tuple] = FIBER_SAMPLES,
                 budget: Budget = DEFAULT_BUDGET,
                 localized: Optional[CheckReport] = None,
                 residual: Optional[CheckReport] = None) -> CheckReport:
    """Fiber checks for the morphism (x, h) at rational points (c, d).

    c = 0: the fiber ring Q[y,z,u]/(h(0,y,z,u) - d) is a polynomial ring
    because h(0) = y, the residual identity; every such sample reports it.
    c != 0: the fiber is the coordinate plane in (v, w), a corollary of
    the localized identities x^k * t = E(x, h, v, w) for t = y, z, u.  A
    sample specialises E at x = c, once per distinct c, but E is x^k * t
    on both localized paths (the closed form sets it, and a witness keeps
    it only once it equals x^k * t), so no sample can fail while
    `localized` passes: it restates that verdict and adds no evidence.  An
    undetermined localized check propagates to every c != 0 sample.
    Reports not passed in are computed.
    """
    if localized is None:
        localized = check_localized(spec, budget)
    if residual is None:
        residual = check_residual(spec)
    at_zero = {"regime": "residual", "verdict": residual.verdict,
               "fiber_ring": "Q[z,u] after eliminating y" if residual.verdict == "pass" else None}
    per_sample = {}
    holds = {}  # c -> whether the witnesses specialise at x = c
    for c, d in samples:
        c = Fraction(c)
        key = "(%s,%s)" % (c, d)
        if c == 0:
            per_sample[key] = dict(at_zero)
        elif localized.verdict == "undetermined":
            per_sample[key] = {"regime": "localized", "verdict": "undetermined",
                               "detail": "localized identity undetermined"}
        elif localized.verdict == "fail":
            per_sample[key] = {"regime": "localized", "verdict": "fail"}
        else:
            if c not in holds:
                holds[c] = _fiber_witnesses_hold(spec, localized, c)
            ok = holds[c]
            per_sample[key] = {
                "regime": "localized",
                "verdict": "pass" if ok else "fail",
                "fiber_ring": "plane in (v,w) coordinates" if ok else None,
                "note": "corollary of the localized coordinate identity",
            }
    verdict = worst_verdict(*(sample["verdict"] for sample in per_sample.values()))
    return CheckReport("fibers", verdict, witnesses=per_sample,
                       stats={"samples": len(per_sample)})


def _fiber_witnesses_hold(spec: VenereauSpec, localized: CheckReport, c: Fraction) -> bool:
    """Specialise each localized identity x^k * t = E at x = c and confirm
    that E(c) reproduces c^k * t, for t = y, z, u."""
    cpoly = Polynomial.constant(spec.ctx, c)
    for name in ("y", "z", "u"):
        result = localized.data[name]
        target = Polynomial.variable(spec.ctx, name)
        if result.expansion.substitute({"x": cpoly}) != target * c ** result.inv_power:
            return False
    return True


def run_checks(spec: VenereauSpec, checks: Sequence[str] = ("residual", "localized", "jacobian", "fibers"),
               budget: Budget = DEFAULT_BUDGET,
               samples: Sequence[tuple] = FIBER_SAMPLES) -> list:
    """Run the named checks in order; each runs at most once, and fibers
    reads the residual and localized reports whatever the order."""
    done = {}
    return [_run_check(name, spec, budget, samples, done) for name in checks]


def _run_check(name: str, spec: VenereauSpec, budget: Budget, samples: Sequence[tuple],
               done: dict) -> CheckReport:
    """The report of one check, made once and kept in `done`."""
    if name not in done:
        if name == "residual":
            done[name] = check_residual(spec)
        elif name == "localized":
            done[name] = check_localized(spec, budget)
        elif name == "jacobian":
            done[name] = check_jacobian(spec)
        elif name == "fibers":
            done[name] = check_fibers(spec, samples, budget,
                                      _run_check("localized", spec, budget, samples, done),
                                      _run_check("residual", spec, budget, samples, done))
        else:
            raise InputError("unknown check %r" % name)
    return done[name]
