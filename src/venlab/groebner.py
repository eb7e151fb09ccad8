"""Buchberger Groebner bases over Q, plus ideal and subalgebra membership.

The engine is deliberately simple: normal selection strategy (pairs by
lcm degree, then by index), the coprime-leading-term and chain criteria,
and full tail reduction to a unique reduced basis.  Internally all
reductions are fraction-free over Z on content-normalized integer
polynomials; the published basis is monic over Q.

Subalgebra membership f in R[g_1..g_m] uses tag-variable elimination:
adjoin tags t_i with relations t_i - g_i (and x*x_inv - 1 when a variable
is inverted), compute a block-elimination basis once per generator set,
and inspect the normal form of each target f.  The normal form doubles as
an explicit witness expressing f in the generators.

Every potentially explosive computation runs under a Budget; exhaustion
raises BudgetExceededError (or surfaces as an 'undetermined' membership
status), never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappush, heappop
from math import gcd
from typing import Optional, Sequence

from .poly import (
    ContextMismatchError,
    MonomialOrder,
    Polynomial,
    VarContext,
    clear_denominators,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

TAG_PREFIX = "_t"
INV_PREFIX = "_inv_"


class BudgetExceededError(RuntimeError):
    """A Groebner computation hit a resource cap before finishing."""


@dataclass(frozen=True)
class Budget:
    """Caps for Groebner computations; any breach aborts loudly."""

    max_degree: int = 40
    max_basis: int = 5000
    max_reductions: int = 2_000_000

    def __post_init__(self):
        if self.max_degree <= 0 or self.max_basis <= 0 or self.max_reductions <= 0:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = Budget()


@dataclass
class GroebnerStats:
    reductions: int = 0
    pairs_processed: int = 0
    basis_size: int = 0


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic generators, no inter-divisibility."""

    generators: tuple
    order: MonomialOrder
    ctx: VarContext
    stats: GroebnerStats = field(default_factory=GroebnerStats, compare=False)

    def serialize(self) -> dict:
        """Order descriptor plus canonical polynomial strings."""
        from .parse import format_polynomial
        if self.order.kind == "elim":
            descr = "elim:%d" % self.order.block_split
        else:
            descr = self.order.kind
        return {
            "order": descr,
            "variables": list(self.ctx.names),
            "basis": [format_polynomial(g, self.order) for g in self.generators],
        }


# ---------------------------------------------------------------------------
# fraction-free integer core

def _to_int_terms(p: Polynomial, keyf) -> dict:
    """Content-normalized integer term dict with positive leading coefficient."""
    return _normalize_int(clear_denominators(p.terms)[0], keyf)


def _normalize_int(terms: dict, keyf) -> dict:
    if not terms:
        return terms
    g = 0
    for c in terms.values():
        g = gcd(g, c)
    if g > 1:
        terms = {m: c // g for m, c in terms.items()}
    lead = max(terms, key=keyf)
    if terms[lead] < 0:
        terms = {m: -c for m, c in terms.items()}
    return terms


def _reduce_int(work: dict, basis: list, keyf, budget: Budget, stats: GroebnerStats):
    """Full normal form of an integer polynomial modulo `basis`, fraction-free.

    `basis` entries are (lead_mono, lead_coeff, terms).  Returns
    (remainder, scale) with scale * work == remainder modulo the basis and
    scale a positive integer; cofactors are not tracked.  Every step counts
    against `budget.max_reductions` and every product term against
    `budget.max_degree`.
    """
    work = dict(work)
    rem: dict = {}
    scale = 1
    while work:
        m = max(work, key=keyf)
        c = work.pop(m)
        if c == 0:
            continue
        hit = None
        for lt, lc, terms in basis:
            if mono_divides(lt, m):
                hit = (lt, lc, terms)
                break
        if hit is None:
            rem[m] = c
            continue
        stats.reductions += 1
        if stats.reductions > budget.max_reductions:
            raise BudgetExceededError("reduction step cap exceeded")
        lt, lc, terms = hit
        q = mono_div(m, lt)
        g = gcd(c, lc)
        a = lc // g          # multiply work side
        b = c // g           # multiply reducer side
        if a < 0:
            a, b = -a, -b
        if a != 1:
            scale *= a
            for k in work:
                work[k] *= a
            for k in rem:
                rem[k] *= a
        for tm, tc in terms.items():
            if tm == lt:
                continue
            mm = mono_mul(tm, q)
            if mono_deg(mm) > budget.max_degree:
                raise BudgetExceededError("degree cap exceeded during reduction")
            s = work.get(mm, 0) - b * tc
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return rem, scale


def _spoly_int(f, g, keyf, budget: Budget) -> dict:
    """Fraction-free S-polynomial of two integer basis entries."""
    (ltf, lcf, tf), (ltg, lcg, tg) = f, g
    l = mono_lcm(ltf, ltg)
    if mono_deg(l) > budget.max_degree:
        raise BudgetExceededError("degree cap exceeded in S-pair")
    d = gcd(lcf, lcg)
    mf, mg = mono_div(l, ltf), mono_div(l, ltg)
    cf, cg = lcg // d, lcf // d
    out: dict = {}
    for tm, tc in tf.items():
        mm = mono_mul(tm, mf)
        out[mm] = out.get(mm, 0) + cf * tc
    for tm, tc in tg.items():
        mm = mono_mul(tm, mg)
        s = out.get(mm, 0) - cg * tc
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = None,
               budget: Budget = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Deterministic: S-pairs are processed by (lcm degree, index pair), and
    the final interreduction yields the unique reduced basis for the
    order.  Raises BudgetExceededError if any cap is hit.
    """
    if not gens:
        raise ValueError("empty generator list")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatchError("generators live in different contexts")
    if order is None:
        order = MonomialOrder("grevlex")
    keyf = _key_cache(order)
    stats = GroebnerStats()

    basis = []  # (lead_mono, lead_coeff, terms)
    for g in gens:
        terms = _to_int_terms(g, keyf)
        if not terms:
            continue
        if max(mono_deg(m) for m in terms) > budget.max_degree:
            raise BudgetExceededError("input generator exceeds degree cap")
        terms = _normalize_int(_reduce_int(terms, basis, keyf, budget, stats)[0], keyf)
        if terms:
            lead = max(terms, key=keyf)
            basis.append((lead, terms[lead], terms))
    if not basis:
        return GroebnerBasis((Polynomial.zero(ctx),), order, ctx, stats=stats)

    pairs = []          # heap of (lcm degree, i, j)
    pending = set()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            l = mono_lcm(basis[i][0], basis[j][0])
            heappush(pairs, (mono_deg(l), i, j))
            pending.add((i, j))

    while pairs:
        _, i, j = heappop(pairs)
        pending.discard((i, j))
        fi, fj = basis[i], basis[j]
        if fi is None or fj is None:
            continue
        l = mono_lcm(fi[0], fj[0])
        # coprime leading terms: S-polynomial reduces to zero
        if l == mono_mul(fi[0], fj[0]):
            continue
        # chain criterion
        skip = False
        for k, fk in enumerate(basis):
            if fk is None or k == i or k == j:
                continue
            if mono_divides(fk[0], l):
                pi = (min(i, k), max(i, k))
                pj = (min(j, k), max(j, k))
                if pi not in pending and pj not in pending:
                    skip = True
                    break
        if skip:
            continue
        stats.pairs_processed += 1
        s = _spoly_int(fi, fj, keyf, budget)
        live = [b for b in basis if b is not None]
        s = _normalize_int(_reduce_int(s, live, keyf, budget, stats)[0], keyf)
        if not s:
            continue
        lead = max(s, key=keyf)
        new_index = len(basis)
        basis.append((lead, s[lead], s))
        if sum(1 for b in basis if b is not None) > budget.max_basis:
            raise BudgetExceededError("basis size cap exceeded")
        for k, fk in enumerate(basis[:-1]):
            if fk is None:
                continue
            l2 = mono_lcm(fk[0], lead)
            heappush(pairs, (mono_deg(l2), k, new_index))
            pending.add((k, new_index))

    live = [b for b in basis if b is not None]
    reduced = _interreduce(live, keyf, budget, stats)
    polys = []
    for terms in reduced:
        lead = max(terms, key=keyf)
        lc = terms[lead]
        polys.append(Polynomial(ctx, {m: Fraction(c, lc) for m, c in terms.items()}))
    polys.sort(key=lambda p: keyf(p.leading_term(order)[0]))
    stats.basis_size = len(polys)
    return GroebnerBasis(tuple(polys), order, ctx, stats=stats)


def _interreduce(basis: list, keyf, budget: Budget, stats: GroebnerStats) -> list:
    """Minimalize and tail-reduce to the unique reduced basis (up to scaling)."""
    # minimal: no lead divides another lead
    basis = sorted(basis, key=lambda b: keyf(b[0]))
    minimal = []
    for b in basis:
        if not any(mono_divides(o[0], b[0]) for o in minimal):
            minimal.append(b)
    # tail-reduce each against the others until stable
    changed = True
    current = [b[2] for b in minimal]
    while changed:
        changed = False
        for i in range(len(current)):
            others = []
            for j, terms in enumerate(current):
                if j == i:
                    continue
                lead = max(terms, key=keyf)
                others.append((lead, terms[lead], terms))
            red = _normalize_int(_reduce_int(current[i], others, keyf, budget, stats)[0], keyf)
            if red != current[i]:
                current[i] = red
                changed = True
        current = [t for t in current if t]
    return current


def _key_cache(order: MonomialOrder):
    cache: dict = {}
    base = order.key

    def keyf(mono):
        k = cache.get(mono)
        if k is None:
            k = base(mono)
            cache[mono] = k
        return k

    return keyf


# ---------------------------------------------------------------------------
# membership

def normal_form(f: Polynomial, gb: GroebnerBasis,
                budget: Budget = DEFAULT_BUDGET) -> Polynomial:
    """Remainder of multivariate division of f by the basis.

    Zero iff f lies in the ideal; idempotent and Q-linear in f.  The
    reduction runs fraction-free on den * f under the same caps as
    `buchberger`, with its own step count so that `gb.stats` describes
    the basis alone; the remainder is unique because the basis is reduced.
    """
    if f.ctx != gb.ctx:
        raise ContextMismatchError("polynomial and basis contexts differ")
    keyf = _key_cache(gb.order)
    entries = []
    for g in gb.generators:
        if g.is_zero():
            continue
        terms = _to_int_terms(g, keyf)
        lead = max(terms, key=keyf)
        entries.append((lead, terms[lead], terms))
    work, den = clear_denominators(f.terms)
    rem, scale = _reduce_int(work, entries, keyf, budget, GroebnerStats())
    return Polynomial(f.ctx, {m: Fraction(c, scale * den) for m, c in rem.items()})


def ideal_member(f: Polynomial, gens: Sequence[Polynomial],
                 order: MonomialOrder = None,
                 budget: Budget = DEFAULT_BUDGET) -> bool:
    """True iff f lies in the ideal generated by `gens`."""
    gb = buchberger(gens, order, budget)
    return normal_form(f, gb, budget).is_zero()


@dataclass
class MembershipResult:
    """Outcome of a subalgebra membership test.

    status is 'member', 'nonmember' or 'undetermined' (budget ran out, or
    the witness failed its re-check).  For members, `witness` expresses f
    in the tag variables (one per generator), the coefficient-block
    variables, and the inverted variable's reciprocal; it has already
    passed `witness_identity_holds`, which substitutes everything back and
    keeps the expanded side of the identity in `expansion`.
    """

    status: str
    witness: Optional[Polynomial] = None
    work_ctx: Optional[VarContext] = None
    tag_names: tuple = ()
    inv_name: Optional[str] = None
    invert: Optional[str] = None
    stats: Optional[GroebnerStats] = None
    detail: str = ""
    # x^k * f expanded from the witness, set once witness_identity_holds confirmed it
    expansion: Optional[Polynomial] = field(default=None, repr=False, compare=False)

    def __bool__(self) -> bool:
        return self.status == "member"

    @property
    def inv_power(self) -> int:
        """k: the top power of the inverted variable in the witness (0 if none)."""
        if self.inv_name is None or self.witness is None or self.witness.is_zero():
            return 0
        return self.witness.degree(self.inv_name)

    def witness_identity_holds(self, f: Polynomial, gens: Sequence[Polynomial]) -> bool:
        """Re-validate the witness by pure substitution in the original ring.

        Checks x^k * f == witness with tags replaced by the generators and
        x_inv^j replaced by x^(k-j), where k is the top x_inv power.
        """
        self.expansion = None
        if self.status != "member" or self.witness is None:
            return False
        k = self.inv_power
        witness = self.witness
        images = dict(zip(self.tag_names, gens))
        target = f
        if self.inv_name is not None:
            xi, ii = self.work_ctx.index(self.invert), self.work_ctx.index(self.inv_name)
            terms = {}
            for mono, c in witness.terms.items():
                m = list(mono)
                m[xi] += k - m[ii]
                m[ii] = 0
                m = tuple(m)
                terms[m] = terms.get(m, 0) + c
            witness = Polynomial(self.work_ctx, terms)
            images[self.inv_name] = Polynomial.one(f.ctx)
            target = f * Polynomial.variable(f.ctx, self.invert) ** k
        expansion = witness.substitute(images)
        if expansion != target:
            return False
        self.expansion = expansion
        return True


def subalgebra_members(targets: Sequence[Polynomial], gens: Sequence[Polynomial],
                       invert: str = None, budget: Budget = DEFAULT_BUDGET):
    """Decide each target in R[gens] (R = coefficient block, over Q); yield results.

    When `invert` names a coefficient-block variable x, membership is
    decided over R with x made invertible, via a fresh variable x_inv and
    the relation x*x_inv - 1.  Complete decision procedure by tag-variable
    elimination.  The basis depends on `gens` and `invert` only, so it is
    built once, when the first result is requested, and each target then
    costs one normal form and one re-check of its witness by
    `witness_identity_holds`.  Budget exhaustion yields status
    'undetermined' (for every target when the basis itself runs out), as
    does a witness that fails its re-check; never a wrong boolean.
    """
    if not targets:
        return
    ctx = targets[0].ctx
    for g in list(targets) + list(gens):
        if g.ctx != ctx:
            raise ContextMismatchError("targets and generators must share one context")
    if invert is not None and invert not in ctx:
        raise KeyError("unknown variable %r" % invert)
    coeff = set(ctx.coeff_block)
    elim = [n for n in ctx.names if n not in coeff]
    low = [n for n in ctx.names if n in coeff]
    inv_name = None
    if invert is not None:
        inv_name = INV_PREFIX + invert
        low.append(inv_name)
    tags = tuple("%s%d" % (TAG_PREFIX, i) for i in range(len(gens)))
    work_ctx = VarContext(tuple(elim) + tuple(low) + tags)
    order = MonomialOrder("elim", block_split=len(elim))

    relations = []
    for tag, g in zip(tags, gens):
        relations.append(Polynomial.variable(work_ctx, tag) - g.rename_context(work_ctx))
    if invert is not None:
        relations.append(
            Polynomial.variable(work_ctx, invert)
            * Polynomial.variable(work_ctx, inv_name) - 1)

    try:
        gb = buchberger(relations, order, budget)
    except BudgetExceededError as exc:
        for _ in targets:
            yield MembershipResult("undetermined", detail=str(exc))
        return

    elim_set = set(elim)
    for f in targets:
        try:
            nf = normal_form(f.rename_context(work_ctx), gb, budget)
        except BudgetExceededError as exc:
            yield MembershipResult("undetermined", detail=str(exc))
            continue
        leaked = nf.variables_used() & elim_set
        status = "nonmember" if leaked else "member"
        result = MembershipResult(
            status=status,
            witness=nf if status == "member" else None,
            work_ctx=work_ctx,
            tag_names=tags,
            inv_name=inv_name,
            invert=invert,
            stats=gb.stats,
            detail="" if status == "member" else
            "normal form still involves %s" % sorted(leaked),
        )
        if status == "member" and not result.witness_identity_holds(f, gens):
            # a bad witness disproves nothing
            result = MembershipResult("undetermined", stats=gb.stats,
                                      detail="witness failed re-substitution")
        yield result


def subalgebra_member(f: Polynomial, gens: Sequence[Polynomial],
                      invert: str = None,
                      budget: Budget = DEFAULT_BUDGET) -> MembershipResult:
    """Decide f in R[gens]: the one-target case of `subalgebra_members`."""
    return next(subalgebra_members([f], gens, invert, budget))
