"""Buchberger Groebner bases over Q, plus ideal and subalgebra membership.

The engine is deliberately simple: normal selection strategy (pairs by
lcm degree, then by index), the coprime-leading-term and chain criteria,
and full tail reduction to a unique reduced basis.  Internally all
reductions are fraction-free over Z on content-normalized integer
polynomials, with each leading term taken from a heap.  Both encodings
come from `poly`: an input is read in the cleared form kept on the
polynomial (integer numerators over one denominator), and its monomials
are packed by the order keys `poly._Keys`, which also turn the integer
results back into the published basis (monic over Q) and the normal
form.  Each queued S-pair carries its lcm, taken once from the packed
leads, and the criteria test it against the packed leads inline.

Subalgebra membership f in R[g_1..g_m] uses tag-variable elimination:
adjoin tags t_i with relations t_i - g_i (and x*x_inv - 1 when a variable
is inverted), compute a block-elimination basis once per generator set,
and inspect the normal form of each target f.  The normal form doubles as
an explicit witness expressing f in the generators, re-checked by
substitution.

Every potentially explosive computation runs under a Budget; exhaustion
raises BudgetExceededError (or surfaces as an 'undetermined' membership
status), never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd
from operator import itemgetter
from typing import Optional, Sequence

from .poly import (
    GREVLEX,
    ContextMismatchError,
    InputError,
    MonomialOrder,
    Polynomial,
    VarContext,
    _Keys,
)

TAG_PREFIX = "_t"
INV_PREFIX = "_inv_"


class BudgetExceededError(RuntimeError):
    """A computation hit a resource cap before finishing."""


@dataclass(frozen=True)
class Budget:
    """Every cap a user can set; any breach aborts loudly.

    `max_degree` bounds the total degree of the input generators, of every
    S-pair lcm and of every product term formed during a reduction.  It
    does not bound the other terms of an S-polynomial: under lex and elim
    these can pass the cap, and the packed keys then widen to hold them.
    `max_basis` bounds every element kept before interreduction, reduced
    inputs and S-polynomial remainders alike.  `max_nilpotency` bounds the
    applications of a derivation per fiber variable when certifying it.
    """

    max_degree: int = 40
    max_basis: int = 5000
    max_reductions: int = 2_000_000
    max_nilpotency: int = 64

    def __post_init__(self):
        if min(self.max_degree, self.max_basis, self.max_reductions, self.max_nilpotency) <= 0:
            raise InputError("budget caps must be positive")


DEFAULT_BUDGET = Budget()


@dataclass
class GroebnerStats:
    reductions: int = 0
    pairs_processed: int = 0
    basis_size: int = 0


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis (monic, no inter-divisibility) and its packed entries."""

    generators: tuple
    order: MonomialOrder
    ctx: VarContext
    stats: GroebnerStats = field(default_factory=GroebnerStats, compare=False)
    _keys: _Keys = field(kw_only=True, repr=False, compare=False)
    _entries: list = field(kw_only=True, repr=False, compare=False)

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
# fraction-free integer core over packed keys (`poly._Keys`)
#
# A polynomial is a descending list of (key, int) pairs; a basis entry is
# (lead_key, lead_coeff, tail) with the tail a descending list.

def _rekeyed(entries: list, old: _Keys, order: MonomialOrder, bound: int) -> tuple:
    """(keys, entries): basis entries packed by `old`, packed again for degree <= bound."""
    keys = _Keys(order, len(old.shifts), bound)
    return keys, [(keys.pack(old.unpack(lt)), lc, keys.rekey(tail, old))
                  for lt, lc, tail in entries]


def _normalize(terms: list) -> list:
    """Content-normalized, with a positive leading coefficient."""
    if not terms:
        return terms
    g = 0
    for _, c in terms:
        g = gcd(g, c)
    if terms[0][1] < 0:
        g = -g
    if g != 1:
        terms = [(k, c // g) for k, c in terms]
    return terms


def _entry(terms: list) -> tuple:
    return terms[0][0], terms[0][1], terms[1:]


def _reduce(terms, basis: list, keys: _Keys, budget: Budget, stats: GroebnerStats):
    """Full normal form of an integer polynomial modulo `basis`, fraction-free.

    `terms` yields (key, coeff) pairs.  Returns (remainder, scale) with
    scale * terms == remainder modulo the basis, the remainder descending
    and scale a positive integer; cofactors are not tracked.  Each leading
    term is a heap pop; keys cancelled on the way stay in the heap and are
    skipped when popped.  Every step counts against
    `budget.max_reductions` and every product term against
    `budget.max_degree`.
    """
    work = dict(terms)
    heap = [-k for k in work]
    heapify(heap)
    guard, deg_field = keys.guard, keys.deg_field
    cap = budget.max_degree << keys.deg_shift
    rem: dict = {}
    scale = 1
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        for lt, lc, tail in basis:
            if not (m - lt) & guard:
                break
        else:
            rem[m] = c
            continue
        stats.reductions += 1
        if stats.reductions > budget.max_reductions:
            raise BudgetExceededError("reduction step cap exceeded")
        q = m - lt
        g = gcd(c, lc)
        a = lc // g          # multiply work side (positive: _normalize makes lc > 0)
        b = c // g           # multiply reducer side
        if a != 1:
            scale *= a
            for k in work:
                work[k] *= a
            for k in rem:
                rem[k] *= a
        for tm, tc in tail:
            mm = tm + q
            if mm & deg_field > cap:
                raise BudgetExceededError("degree cap exceeded during reduction")
            bc = b * tc
            s = work.get(mm)
            if s is None:
                work[mm] = -bc
                heappush(heap, -mm)
            elif s != bc:
                work[mm] = s - bc
            else:
                del work[mm]
    return list(rem.items()), scale


def _spoly(f: tuple, g: tuple, lcm: int, keys: _Keys) -> dict:
    """Fraction-free S-polynomial of two basis entries with lead lcm `lcm`."""
    (ltf, lcf, tf), (ltg, lcg, tg) = f, g
    d = gcd(lcf, lcg)
    mf, mg = lcm - ltf, lcm - ltg
    cf, cg = lcg // d, lcf // d
    out = {tm + mf: cf * tc for tm, tc in tf}
    for tm, tc in tg:
        mm = tm + mg
        s = out.get(mm, 0) - cg * tc
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
               budget: Budget = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens` under `order`.

    Deterministic: the inputs, then the S-pairs by (lcm degree, index
    pair), join the basis through one reduction step, and the final
    interreduction yields the unique reduced basis for the order.  Raises
    BudgetExceededError if any cap is hit.
    """
    if not gens:
        raise ValueError("empty generator list")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatchError("generators live in different contexts")
    stats = GroebnerStats()
    keys = _Keys(order, ctx.arity, max([budget.max_degree] + [g.degree() for g in gens]))

    # The pair bookkeeping reads only the exponent fields of the keys (the
    # low arity fields, below the degree field).  There the lcm of two leads
    # is their fieldwise max, leads a and b are coprime when that max is
    # a + b, and a divides b when b - a borrows into no guard bit.
    basis = []      # (lead_key, lead_coeff, tail)
    pairs = []      # heap of (lcm degree, i, j)
    queued = []     # queued[j]: {i: exponent fields of the lcm} for each queued pair (i, j)
    raws = []       # exponent fields of each lead

    def queue(j):
        """Queue every pair (i, j) with i < j, its lcm taken once."""
        b, mask, guard = raws[j], keys.mask, keys.low_guard
        width, ones, last = keys.width, keys.ones, keys.last
        lcms = {}
        for i in range(j):
            a = raws[i]
            t = ((a | guard) - b) & guard       # the guard bit of each field where a >= b
            t -= t >> width                     # turned into ones over that field
            lcms[i] = r = (a & t) | (b & ~t)
            # every field summed into the last one: the lcm degree
            heappush(pairs, (((r * ones) >> last) & mask, i, j))
        queued.append(lcms)

    def add(terms):
        """Reduce `terms` by the basis; a nonzero remainder joins it, its pairs queued."""
        terms = _normalize(_reduce(terms, basis, keys, budget, stats)[0])
        if not terms:
            return
        basis.append(_entry(terms))
        raws.append(terms[0][0] & keys.low)
        if len(basis) > budget.max_basis:
            raise BudgetExceededError("basis size cap exceeded")
        queue(len(basis) - 1)

    for g in gens:
        if g.degree() > budget.max_degree:
            raise BudgetExceededError("input generator exceeds degree cap")
        add(keys.encode(g)[0])

    while pairs:
        d, i, j = heappop(pairs)
        r = queued[j].pop(i)
        # coprime leading terms: S-polynomial reduces to zero
        if r == raws[i] + raws[j]:
            continue
        # chain criterion: another lead divides the lcm, and neither of its
        # pairs with i and j is still queued
        skip = False
        guard = keys.low_guard
        for k, rk in enumerate(raws):
            if (r - rk) & guard or k == i or k == j:
                continue
            if (i not in queued[k] if i < k else k not in queued[i]) and \
                    (j not in queued[k] if j < k else k not in queued[j]):
                skip = True
                break
        if skip:
            continue
        stats.pairs_processed += 1
        if d > budget.max_degree:
            raise BudgetExceededError("degree cap exceeded in S-pair")
        s = _spoly(basis[i], basis[j], keys.pack(keys.unpack(r)), keys)
        # S-polynomial tails are not held to the degree cap; widen the
        # fields before a term above the bound can enter a product, and
        # pack the basis and the queued lcms again
        top = max([k & keys.deg_field for k in s], default=0) >> keys.deg_shift
        if top > keys.bound:
            old = keys
            keys, basis = _rekeyed(basis, old, order, max(top, 2 * keys.bound))
            s = dict(keys.rekey(s.items(), old))
            raws = [b[0] & keys.low for b in basis]
            for lcms in queued:
                for iq, rq in lcms.items():
                    lcms[iq] = keys.pack(old.unpack(rq)) & keys.low
        add(s.items())

    basis = _interreduce(basis, keys, budget, stats)
    polys = tuple(keys.decode(ctx, [(lead, lc)] + tail, lc) for lead, lc, tail in basis)
    stats.basis_size = len(polys)
    return GroebnerBasis(polys or (Polynomial.zero(ctx),), order, ctx, stats,
                         _keys=keys, _entries=basis)


def _interreduce(basis: list, keys: _Keys, budget: Budget, stats: GroebnerStats) -> list:
    """Minimalize and tail-reduce to the unique reduced basis (up to scaling).

    Returns the entries ascending by lead.  Tail reduction keeps every
    lead, since in a minimal basis no lead divides another, and leaves only
    terms that no lead divides; so one pass reduces every tail for good.
    """
    minimal = []
    for b in sorted(basis, key=itemgetter(0)):
        if not any(keys.divides(o[0], b[0]) for o in minimal):
            minimal.append(b)
    for i, (lead, lc, tail) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        minimal[i] = _entry(_normalize(_reduce([(lead, lc)] + tail, others, keys, budget, stats)[0]))
    return minimal


# ---------------------------------------------------------------------------
# membership

def normal_form(f: Polynomial, gb: GroebnerBasis,
                budget: Budget = DEFAULT_BUDGET) -> Polynomial:
    """Remainder of multivariate division of f by the basis.

    Zero iff f lies in the ideal; idempotent and Q-linear in f.  The
    reduction runs fraction-free on den * f under the same caps as
    `buchberger`, with its own step count so that `gb.stats` describes
    the basis alone; the remainder is unique because the basis is reduced.
    The entries on `gb` are packed again only when f or the budget needs
    wider fields.
    """
    if f.ctx != gb.ctx:
        raise ContextMismatchError("polynomial and basis contexts differ")
    keys, entries = gb._keys, gb._entries
    bound = max(budget.max_degree, f.degree())
    if bound > keys.bound:
        keys, entries = _rekeyed(entries, keys, gb.order, bound)
    work, den = keys.encode(f)
    rem, scale = _reduce(work, entries, keys, budget, GroebnerStats())
    return keys.decode(f.ctx, rem, scale * den)


def ideal_member(f: Polynomial, gens: Sequence[Polynomial],
                 order: MonomialOrder = GREVLEX,
                 budget: Budget = DEFAULT_BUDGET) -> bool:
    """True iff f lies in the ideal generated by `gens`, decided under `order`."""
    gb = buchberger(gens, order, budget)
    return normal_form(f, gb, budget).is_zero()


@dataclass
class MembershipResult:
    """Outcome of a subalgebra membership test.

    status is 'member', 'nonmember' or 'undetermined' (budget ran out, or
    the witness failed its re-check).  For members, `witness` expresses f
    in the tag variables (one per generator), the coefficient-block
    variables, and the inverted variable's reciprocal; from
    `subalgebra_members` it has already passed `witness_identity_holds`,
    which keeps the expanded side of the identity in `expansion`.
    """

    status: str
    witness: Optional[Polynomial] = None
    tag_names: tuple = ()
    inv_name: Optional[str] = None
    invert: Optional[str] = None
    stats: Optional[GroebnerStats] = None
    detail: str = ""
    # x^k * f, the expanded side of the witness identity once it is confirmed
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
        """Re-validate the witness: x^k * f == witness with tags replaced by
        the generators and x_inv^j by x^(k-j), where k is the top x_inv power.

        The witness is expanded by pure substitution in the original ring.
        """
        self.expansion = None
        if self.status != "member" or self.witness is None:
            return False
        k = self.inv_power
        witness = self.witness
        target = f
        if self.inv_name is not None:
            target = f * Polynomial.variable(f.ctx, self.invert) ** k
        # the coefficient block maps to itself: the expansion lands in f's context
        images = {n: Polynomial.variable(f.ctx, n) for n in f.ctx.coeff_block}
        images.update(zip(self.tag_names, gens))
        if self.inv_name is not None:
            witness = times_x(witness, self.invert, k)
            images[self.inv_name] = Polynomial.one(f.ctx)
        expansion = witness.substitute(images)
        if expansion != target:
            return False
        self.expansion = expansion
        return True


def tag_ring(ctx: VarContext, n_gens: int, invert: str = None) -> tuple:
    """(work_ctx, order, tags, inv_name) of tag-variable elimination over ctx.

    The variables outside the coefficient block come first and form the
    eliminated block of the elim order (grevlex when the block is empty);
    then the coefficient block, the reciprocal x_inv of an inverted
    variable x, and one tag per generator.
    An `invert` outside the coefficient block raises InputError.
    """
    if invert is not None and invert not in ctx.coeff_block:
        raise InputError("cannot invert %r: not in the coefficient block %r"
                         % (invert, ctx.coeff_block))
    coeff = set(ctx.coeff_block)
    elim = [n for n in ctx.names if n not in coeff]
    low = [n for n in ctx.names if n in coeff]
    inv_name = None
    if invert is not None:
        inv_name = INV_PREFIX + invert
        low.append(inv_name)
    tags = tuple("%s%d" % (TAG_PREFIX, i) for i in range(n_gens))
    work_ctx = VarContext(tuple(elim) + tuple(low) + tags)
    order = MonomialOrder("elim", block_split=len(elim)) if elim else GREVLEX
    return work_ctx, order, tags, inv_name


def times_x(f: Polynomial, invert: str, k: int) -> Polynomial:
    """f * x^k for the inverted variable x = `invert` of f's tag ring, with
    every x * x_inv cancelled; k may have either sign."""
    xi, ii = f.ctx.index(invert), f.ctx.index(INV_PREFIX + invert)
    nums = {}
    for mono, c in f.nums.items():
        e = mono[xi] - mono[ii] + k
        m = list(mono)
        m[xi], m[ii] = max(e, 0), max(-e, 0)
        m = tuple(m)
        nums[m] = nums.get(m, 0) + c
    return Polynomial._reduced(f.ctx, {m: c for m, c in nums.items() if c}, f.den)


def subalgebra_members(targets: Sequence[Polynomial], gens: Sequence[Polynomial],
                       invert: str = None, budget: Budget = DEFAULT_BUDGET):
    """Decide each target in R[gens] (R = coefficient block, over Q); yield results.

    When `invert` names a coefficient-block variable x, membership is
    decided over R with x made invertible, via a fresh variable x_inv and
    the relation x*x_inv - 1.  Complete decision procedure by tag-variable
    elimination in the ring of `tag_ring`.  The basis depends on `gens` and
    `invert` only, so it is built once, when the first result is
    requested, and each target then costs one normal form and one re-check
    of its witness by `witness_identity_holds`.  Budget exhaustion yields
    status 'undetermined' (for every target when the basis itself runs
    out), as does a witness that fails its re-check; never a wrong boolean.
    When no variable is eliminated, every target is a member, and one whose
    basis or normal form runs out of budget is its own witness.  An
    `invert` outside the coefficient block raises InputError.
    """
    if not targets:
        return
    ctx = targets[0].ctx
    for g in list(targets) + list(gens):
        if g.ctx != ctx:
            raise ContextMismatchError("targets and generators must share one context")
    work_ctx, order, tags, inv_name = tag_ring(ctx, len(gens), invert)

    relations = []
    for tag, g in zip(tags, gens):
        relations.append(Polynomial.variable(work_ctx, tag) - g.rename_context(work_ctx))
    if invert is not None:
        relations.append(
            Polynomial.variable(work_ctx, invert)
            * Polynomial.variable(work_ctx, inv_name) - 1)

    try:
        # no relations: the zero ideal, and R[] = R
        gb = buchberger(relations or [Polynomial.zero(work_ctx)], order, budget)
        stats, detail = gb.stats, ""
    except BudgetExceededError as exc:
        gb, stats, detail = None, None, str(exc)

    elim_set = set(work_ctx.names[:order.block_split])
    for f in targets:
        nf = None
        if gb is not None:
            try:
                nf = normal_form(f.rename_context(work_ctx), gb, budget)
            except BudgetExceededError as exc:
                detail = str(exc)
        if nf is None:
            if elim_set:
                yield MembershipResult("undetermined", detail=detail)
                continue
            # nothing is eliminated, so f is in R[gens] and its own witness
            nf = f.rename_context(work_ctx)
        leaked = nf.variables_used() & elim_set
        status = "nonmember" if leaked else "member"
        result = MembershipResult(
            status=status,
            witness=nf if status == "member" else None,
            tag_names=tags,
            inv_name=inv_name,
            invert=invert,
            stats=stats,
            detail="" if status == "member" else
            "normal form still involves %s" % sorted(leaked),
        )
        if status == "member" and not result.witness_identity_holds(f, gens):
            # a bad witness disproves nothing
            result = MembershipResult("undetermined", stats=stats,
                                      detail="witness failed re-substitution")
        yield result


def subalgebra_member(f: Polynomial, gens: Sequence[Polynomial],
                      invert: str = None,
                      budget: Budget = DEFAULT_BUDGET) -> MembershipResult:
    """Decide f in R[gens]: the one-target case of `subalgebra_members`."""
    return next(subalgebra_members([f], gens, invert, budget))
