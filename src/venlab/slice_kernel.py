"""Kernel structure of locally nilpotent derivations with a slice.

Given a locally nilpotent R-derivation D of R[x,y,z] (R a polynomial
ring over Q, the coefficient block of the context) and a slice s with
D(s) = 1, the Dixmier projection pi is an R-algebra retraction onto the
kernel B, and f = sum_n pi(D^n f) s^n / n! for every f (the Slice
Theorem).  This module computes pi(x), pi(y), pi(z), confirms
B[s] = R[x,y,z] by witnesses read off that identity, and then tries to
certify that B is an R-polynomial ring in two of the projected
generators, with a unit-Jacobian cross-check: an honest semi-decision,
where a miss reports 'undetermined', never a wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .derivation import Derivation, _exp_series, check_slice
from .groebner import Budget, DEFAULT_BUDGET, MembershipResult, subalgebra_members, tag_ring
from .parse import format_polynomial
from .poly import Polynomial, jacobian_matrix, matrix_det


@dataclass
class SliceKernelResult:
    """Projected kernel generators plus structural verdicts and witnesses."""

    derivation: Derivation
    slice: Polynomial
    kernel_generators: dict            # fiber variable name -> pi(variable)
    generation_verdict: str            # B[s] = R[x,y,z]: 'pass' once kernel_from_slice returns
    generation_witnesses: dict = field(default_factory=dict)
    two_generator_subset: Optional[tuple] = None   # (name_i, name_j)
    pair_verdict: str = "not-run"      # 'pass' | 'undetermined' | 'not-run'
    pair_witnesses: dict = field(default_factory=dict)
    stably_free_verdict: str = "not-run"
    stably_free_witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "slice": format_polynomial(self.slice),
            "kernel_generators": {
                n: format_polynomial(g) for n, g in self.kernel_generators.items()},
            "generation": {"verdict": self.generation_verdict,
                           "witnesses": self.generation_witnesses},
            "polynomial_ring_pair": {
                "verdict": self.pair_verdict,
                "pair": list(self.two_generator_subset) if self.two_generator_subset else None,
                "witnesses": self.pair_witnesses,
            },
            "stably_free_shadow": {"verdict": self.stably_free_verdict,
                                   "witnesses": self.stably_free_witnesses},
        }


def kernel_from_slice(D: Derivation, s, budget: Budget = DEFAULT_BUDGET) -> SliceKernelResult:
    """Project the fiber variables onto Ker D and verify B[s] = R[x,y,z].

    Checks D(s) = 1, then D's certificate under `budget`, once each, and
    projects each fiber variable by the Dixmier series, re-checked to be
    killed by D.  Since pi(D^n t) is D^n t at the projected generators, the
    Slice Theorem writes each fiber variable t as the series over its
    certified iterates with tags (`tag_ring`) for pi(x), pi(y), pi(z), s:
    no Groebner basis.  A projection outside Ker D, or a witness failing
    `MembershipResult.witness_identity_holds`, raises AssertionError.
    """
    check_slice(D, s)
    chains = D._require_certificate(budget).iterates
    projected = {name: _exp_series(-s, chain) for name, chain in chains.items()}
    for name, pi_g in projected.items():
        if not D(pi_g).is_zero():
            raise AssertionError("projection of %s left the kernel" % name)

    gens = list(projected.values()) + [s]
    work_ctx, _, tags, _ = tag_ring(D.ctx, len(gens))
    labels = dict(zip(tags, ["pi(%s)" % n for n in projected] + ["s"]))
    tag_of = {name: Polynomial.variable(work_ctx, tag) for name, tag in zip(projected, tags)}
    s_tag = Polynomial.variable(work_ctx, tags[-1])
    witnesses = {}
    for name, chain in chains.items():
        witness = _exp_series(s_tag, [g.substitute(tag_of) for g in chain])
        if not MembershipResult("member", witness, tags).witness_identity_holds(
                Polynomial.variable(D.ctx, name), gens):
            raise AssertionError("witness of %s failed re-substitution" % name)
        witnesses[name] = {"status": "member", "expression": format_polynomial(witness),
                           "tags": dict(labels)}
    return SliceKernelResult(
        derivation=D, slice=s, kernel_generators=projected,
        generation_verdict="pass", generation_witnesses=witnesses)


def certify_polynomial_ring(result: SliceKernelResult,
                            budget: Budget = DEFAULT_BUDGET) -> SliceKernelResult:
    """Search the projected-generator pairs for a two-variable presentation.

    A pair (g_i, g_j) is certified when the remaining projected generator
    lies in R[g_i, g_j] and the 2x3 Jacobian of (g_i, g_j) with respect
    to the fiber variables has rank 2 (algebraic independence over
    Frac(R), characteristic-zero Jacobian criterion).  A fruitless search
    yields 'undetermined': the two generators promised by the theory need
    not occur among these three pairs.
    """
    generators = result.kernel_generators
    fiber = list(result.derivation.ctx.fiber_names)
    for i, j in combinations(generators, 2):
        if not _jacobian_rank2(generators[i], generators[j], fiber):
            continue
        rest = [n for n in generators if n not in (i, j)]
        members = subalgebra_members([generators[n] for n in rest],
                                     [generators[i], generators[j]], budget=budget)
        witness_info = {}
        for n, member in zip(rest, members):
            if not member:
                break
            witness_info["pi(%s)" % n] = format_polynomial(member.witness)
        else:
            result.two_generator_subset = (i, j)
            result.pair_verdict = "pass"
            result.pair_witnesses = {"pair": ["pi(%s)" % i, "pi(%s)" % j],
                                     "third_generator_membership": witness_info,
                                     "jacobian_rank": 2}
            return result
    result.pair_verdict = "undetermined"
    result.pair_witnesses = {"detail": "no projected-generator pair certified"}
    return result


def _jacobian_rank2(gi: Polynomial, gj: Polynomial, fiber: Sequence[str]) -> bool:
    """Rank-2 test via nonvanishing of some 2x2 minor of the 2xN Jacobian."""
    mat = jacobian_matrix([gi, gj], fiber)
    return any(not matrix_det([[row[a], row[b]] for row in mat]).is_zero()
               for a, b in combinations(range(len(fiber)), 2))


def check_stably_free_shadow(result: SliceKernelResult) -> SliceKernelResult:
    """Unit-determinant check for (g_1, g_2, s) against the fiber variables.

    With a certified pair, the 3x3 Jacobian of (g_1, g_2, s) with respect
    to the fiber variables must have determinant equal to a nonzero
    rational constant (a unit of R): the computable shadow of the
    splitting of the cotangent sequence.
    """
    if result.pair_verdict != "pass" or result.two_generator_subset is None:
        result.stably_free_verdict = "undetermined"
        result.stably_free_witnesses = {"detail": "no certified pair available"}
        return result
    ctx = result.derivation.ctx
    i, j = result.two_generator_subset
    triple = [result.kernel_generators[i], result.kernel_generators[j], result.slice]
    fiber = list(ctx.fiber_names)
    if len(fiber) != len(triple):
        result.stably_free_verdict = "fail"
        result.stably_free_witnesses = {"detail": "fiber arity is not 3"}
        return result
    det = matrix_det(jacobian_matrix(triple, fiber))
    result.stably_free_witnesses = {"determinant": format_polynomial(det)}
    if not det.is_zero() and det.is_constant():
        result.stably_free_verdict = "pass"
    else:
        result.stably_free_verdict = "fail"
    return result
