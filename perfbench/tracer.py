"""Per-layer timing of venlab by wrapping its functions at run time.

Nothing under ``src/`` changes: ``Tracer.install`` rebinds each traced
function wherever a caller looks it up (every venlab module global bound
to it, or every class attribute holding it, so ``__rmul__`` follows
``__mul__``), and ``uninstall`` puts the originals back.

A wrapper adds its call to a count and its *self time* (duration minus the
time of traced calls made inside it) to a per-layer total, so a layer's
``*_s`` figures add up without double counting.  Calls that are not hot
also leave a span (name, start, end, parent) in memory.  The hot ones
(``Polynomial.__mul__``/``__add__``, ``Derivation.__call__``) only add to
totals.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from venlab.groebner import BudgetExceededError


@dataclass(frozen=True)
class Target:
    module: str                 # venlab submodule holding the function
    name: str                   # "func" or "Class.method"
    calls: Optional[str]        # count key, or None
    time: str                   # self-time key
    hot: bool = False           # no span per call
    root: bool = False          # its children count as top-level layer spans
    after: Optional[Callable] = None   # after(tracer, args, result) adds work counts
    budget_key: Optional[str] = None   # counts BudgetExceededError raised out of it


def _mul_products(tr, args, result):
    a, b = args
    tr.counts["poly.mul_term_products"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _format_terms(tr, args, result):
    tr.counts["parse.format_terms"] += len(args[0].terms)


def _basis(tr, args, result):
    stats = result.stats
    tr.counts["groebner.pairs_processed"] += stats.pairs_processed
    tr.counts["groebner.reductions"] += stats.reductions
    tr.counts["groebner.basis_size"] += stats.basis_size
    order = args[1] if len(args) > 1 else None
    tr.basis_inputs.add((tuple(args[0]), order))


def _witness_terms(tr, args, result):
    witness = args[0].witness
    tr.counts["groebner.witness_terms"] += len(witness.terms) if witness is not None else 0


def _fiber_samples(tr, args, result):
    tr.counts["venereau.fiber_samples"] += result.stats.get("samples", 0)


def _pair_undetermined(tr, args, result):
    tr.counts["slice_kernel.pair_undetermined"] += result.pair_verdict == "undetermined"


TARGETS = (
    Target("cli", "main", "cli.calls", "cli.self_s", root=True),
    Target("parse", "parse_polynomial", "parse.parse_calls", "parse.parse_s"),
    Target("parse", "format_polynomial", "parse.format_calls", "parse.format_s",
           after=_format_terms),
    Target("poly", "Polynomial.__mul__", "poly.mul_calls", "poly.mul_s", hot=True,
           after=_mul_products),
    Target("poly", "Polynomial.__add__", "poly.add_calls", "poly.add_s", hot=True),
    Target("poly", "Polynomial.substitute", "poly.substitute_calls", "poly.substitute_s"),
    Target("poly", "jacobian_det", None, "poly.jacobian_s"),
    Target("poly", "jacobian_matrix", "poly.jacobian_calls", "poly.jacobian_s"),
    Target("poly", "matrix_det", None, "poly.jacobian_s"),
    Target("groebner", "buchberger", "groebner.buchberger_calls", "groebner.buchberger_s",
           after=_basis, budget_key="groebner.undetermined"),
    Target("groebner", "normal_form", "groebner.normal_form_calls", "groebner.normal_form_s",
           budget_key="groebner.undetermined"),
    Target("groebner", "subalgebra_member", "groebner.member_calls", "groebner.member_s"),
    Target("groebner", "MembershipResult.witness_identity_holds", "groebner.witness_checks",
           "groebner.witness_check_s", after=_witness_terms),
    Target("derivation", "Derivation.__call__", "derivation.apply_calls", "derivation.apply_s",
           hot=True),
    Target("derivation", "parse_derivation", "derivation.load_calls", "derivation.load_s"),
    Target("derivation", "Derivation.certify_nilpotent", "derivation.nilpotent_calls",
           "derivation.nilpotent_s"),
    Target("derivation", "exp_automorphism", "derivation.exp_calls", "derivation.exp_s"),
    Target("derivation", "dixmier_projection", "derivation.dixmier_calls", "derivation.dixmier_s"),
    Target("venereau", "family", None, "venereau.build_s"),
    Target("venereau", "build", "venereau.build_calls", "venereau.build_s"),
    Target("venereau", "check_residual", None, "venereau.residual_s"),
    Target("venereau", "check_localized", "venereau.localized_calls", "venereau.localized_s"),
    Target("venereau", "check_jacobian", None, "venereau.jacobian_s"),
    Target("venereau", "check_fibers", "venereau.fibers_calls", "venereau.fibers_s",
           after=_fiber_samples),
    Target("venereau", "_fiber_witnesses_hold", None, "venereau.fibers_s"),
    Target("slice_kernel", "kernel_from_slice", "slice_kernel.kernel_calls", "slice_kernel.kernel_s"),
    Target("slice_kernel", "certify_polynomial_ring", None, "slice_kernel.pair_s",
           after=_pair_undetermined),
    Target("slice_kernel", "check_stably_free_shadow", None, "slice_kernel.shadow_s"),
)

#: Work counts filled by the `after` hooks; reported even when zero.
WORK_COUNTS = ("poly.mul_term_products", "parse.format_terms", "groebner.pairs_processed",
               "groebner.reductions", "groebner.basis_size", "groebner.undetermined",
               "groebner.witness_terms", "venereau.fiber_samples",
               "slice_kernel.pair_undetermined")


def binding_sites() -> list:
    """(target, [(owner, attribute), ...], original) for every traced function.

    The list holds every place the original is bound, which is where its
    callers look it up.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "venlab" or n.startswith("venlab.")]
    sites = []
    for target in TARGETS:
        owner = sys.modules["venlab." + target.module]
        cls_name, _, attr = target.name.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            original = vars(cls)[attr]
            sites.append((target, [(cls, n) for n, v in vars(cls).items() if v is original], original))
        else:
            original = getattr(owner, attr)
            sites.append((target, [(m, n) for m in modules for n, v in vars(m).items()
                                   if v is original], original))
    return sites


def wrapped_sites(sites) -> int:
    """How many binding sites do not hold their original function."""
    return sum(getattr(owner, n) is not original
               for _, places, original in sites for owner, n in places)


class Tracer:
    """Counts, self times and spans of the traced calls made inside `run_case`."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.spans = []             # [name, start, end, parent span index or -1]
        self.basis_inputs = set()   # distinct (generators, order) given to buchberger
        self.case_wall = 0.0
        self.covered = 0.0          # time inside top-level layer spans
        self._frames = []           # [child time, is root, span index] per open call
        self._patches = []

    def run_case(self, name: str, fn):
        span = len(self.spans)
        self.spans.append(["case " + name, 0.0, 0.0, -1])
        self._frames.append([0.0, True, span])
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self._frames.pop()
            self.case_wall += end - start
            self.spans[span][1:3] = [start, end]

    def install(self, sites) -> None:
        for target, places, original in sites:
            wrapper = self._wrap(original, target)
            for owner, n in places:
                setattr(owner, n, wrapper)
                self._patches.append((owner, n, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, n, original = self._patches.pop()
            setattr(owner, n, original)

    def _wrap(self, fn, target: Target):
        tracer = self
        frames = self._frames
        counts, times, spans = self.counts, self.times, self.spans

        def wrapper(*args, **kwargs):
            if not frames:
                return fn(*args, **kwargs)
            parent = frames[-1]
            span = parent[2]
            if not target.hot:
                span = len(spans)
                spans.append([target.name, 0.0, 0.0, parent[2]])
            frame = [0.0, target.root, span]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError:
                if target.budget_key:
                    counts[target.budget_key] += 1
                raise
            finally:
                end = perf_counter()
                frames.pop()
                elapsed = end - start
                times[target.time] += elapsed - frame[0]
                if target.calls:
                    counts[target.calls] += 1
                parent[0] += elapsed
                if parent[1] and not target.root:
                    tracer.covered += elapsed
                if not target.hot:
                    spans[span][1:3] = [start, end]
            if target.after:
                target.after(tracer, args, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        """Every count and self time by name, zeros included."""
        out = {}
        for target in TARGETS:
            if target.calls:
                out[target.calls] = self.counts[target.calls]
            out[target.time] = self.times[target.time]
        for key in WORK_COUNTS:
            out[key] = self.counts[key]
        calls = self.counts["groebner.buchberger_calls"]
        out["groebner.unique_basis_ratio"] = len(self.basis_inputs) / calls if calls else 0.0
        return out
