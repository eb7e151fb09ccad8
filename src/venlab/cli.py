"""Command-line front end.

Subcommands::

    poly     {eval,diff,compose,print}
    groebner basis
    member   {ideal,subalgebra}
    lnd      {apply,nilpotent,exp,dixmier,kernel}
    venereau {build,verify}

Reports are emitted as JSON lines on stdout when ``--json`` is given
(one object per check: schema, check, verdict, witnesses, stats), or as
concise text otherwise.  Diagnostics go to stderr.  Exit codes: 0 all
pass, 1 any fail, 2 undetermined, 3 input rejected: a usage error of
argparse, or an `InputError` raised where input enters, with one
``venlab: error:`` line.  Any other exception is a bug and propagates.
Identical inputs give byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import venereau as vn
from .derivation import Derivation, exp_automorphism, dixmier_projection, parse_derivation
from .groebner import (
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    buchberger,
    normal_form,
    subalgebra_member,
)
from .parse import format_polynomial, parse_polynomial, reject_reserved_names
from .poly import InputError, MonomialOrder, Polynomial, VarContext
from .slice_kernel import certify_polynomial_ring, check_stably_free_shadow, kernel_from_slice

USAGE_ERROR = 3

#: The argument parser of `main`, built on its first call.
_PARSER = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _context(args) -> VarContext:
    def names(text):
        return [n.strip() for n in text.split(",") if n.strip()]
    ctx = VarContext(names(args.vars), coeff_block=names(getattr(args, "coeff_vars", "")))
    reject_reserved_names(ctx.names)
    return ctx


def _budget(args) -> Budget:
    """The caps the command declares (as `max_*` options), the rest at their defaults."""
    return Budget(**{k: v for k, v in vars(args).items() if k.startswith("max_")})


def _split_polys(text: str, ctx: VarContext) -> list:
    return [parse_polynomial(part, ctx) for part in text.split(",") if part.strip()]


class Reporter:
    """Collects check reports; prints them and derives the exit code."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.verdicts = []

    def emit(self, check: str, verdict: str, witnesses=None, stats=None):
        self.emit_report(vn.CheckReport(check, verdict, witnesses or {}, stats or {}))

    def emit_report(self, report: vn.CheckReport) -> None:
        self.verdicts.append(report.verdict)
        if self.as_json:
            print(json.dumps(report.to_dict(), sort_keys=True))
        else:
            extra = ""
            if len(report.witnesses) == 1:
                extra = "  %s" % next(iter(report.witnesses.values()))
            print("%s: %s%s" % (report.check, report.verdict, extra))

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "undetermined": 2}[vn.worst_verdict(*self.verdicts)]


# ---------------------------------------------------------------------------
# subcommand handlers

def _named_items(items, option: str, ctx: VarContext, noun: str, repeated: str):
    """(name, value text) of each `name=value` item, its name in ctx and new."""
    seen = set()
    for item in items:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq:
            raise InputError("%s item %r is not name=value" % (option, item))
        if name not in ctx:
            raise InputError("%s %r in %s is not in --vars" % (noun, name, option))
        if name in seen:
            raise InputError("%s %r %s %s" % (noun, name, repeated, option))
        seen.add(name)
        yield name, value


def _cmd_poly(args, rep: Reporter):
    ctx = _context(args)
    f = parse_polynomial(args.expr, ctx)
    if args.action == "print":
        order = MonomialOrder.parse(args.order)
        rep.emit("poly.print", "pass", {"canonical": format_polynomial(f, order)})
    elif args.action == "diff":
        rep.emit("poly.diff", "pass",
                 {"derivative": format_polynomial(f.partial(args.wrt))})
    elif args.action == "eval":
        point = {}
        items = args.at.split(",") if args.at.strip() else []  # blank: the empty point
        for name, val in _named_items(items, "--at", ctx, "coordinate", "given twice in"):
            try:
                point[name] = Fraction(val.strip())
            except ZeroDivisionError:
                raise InputError("zero denominator in --at value %r" % val.strip())
            except ValueError:
                raise InputError("--at value %r is not a rational number" % val.strip())
        rep.emit("poly.eval", "pass", {"value": str(f.evaluate(point))})
    elif args.action == "compose":
        images = {name: parse_polynomial(expr, ctx) for name, expr in
                  _named_items(args.map, "--map", ctx, "variable", "mapped twice in")}
        rep.emit("poly.compose", "pass",
                 {"image": format_polynomial(f.substitute(images))})


def _cmd_groebner(args, rep: Reporter):
    ctx = _context(args)
    order = MonomialOrder.parse(args.order)
    gens = [parse_polynomial(g, ctx) for g in args.gens]
    try:
        gb = buchberger(gens, order, _budget(args))
    except BudgetExceededError as exc:
        rep.emit("groebner.basis", "undetermined", {}, {"detail": str(exc)})
        return
    witnesses = {"size": len(gb.generators)}
    if args.emit_basis:
        witnesses["basis"] = gb.serialize()
    rep.emit("groebner.basis", "pass", witnesses, {
        "pairs_processed": gb.stats.pairs_processed,
        "reductions": gb.stats.reductions,
    })


def _cmd_member(args, rep: Reporter):
    ctx = _context(args)
    f = parse_polynomial(args.f, ctx)
    gens = _split_polys(args.gens, ctx)
    budget = _budget(args)
    if args.kind == "ideal":
        order = MonomialOrder.parse(args.order)
        try:
            gb = buchberger(gens or [Polynomial.zero(ctx)], order, budget)
            nf = normal_form(f, gb, budget)
        except BudgetExceededError as exc:
            rep.emit("member.ideal", "undetermined", {}, {"detail": str(exc)})
            return
        member = nf.is_zero()
        rep.emit("member.ideal", "pass" if member else "fail", {
            "member": member,
            "normal_form": format_polynomial(nf),
        })
    else:
        result = subalgebra_member(f, gens, invert=args.invert, budget=budget)
        if result.status == "undetermined":
            rep.emit("member.subalgebra", "undetermined", {}, {"detail": result.detail})
            return
        member = result.status == "member"
        witnesses = {"member": member}
        if member:
            witnesses["witness"] = format_polynomial(result.witness)
            witnesses["tags"] = {t: format_polynomial(g)
                                 for t, g in zip(result.tag_names, gens)}
            witnesses["validated"] = True
        rep.emit("member.subalgebra", "pass" if member else "fail", witnesses)


def _load_derivation(args) -> Derivation:
    try:
        with open(args.derivation, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read --derivation %r: %s" % (args.derivation, exc.strerror))
    except UnicodeDecodeError:
        raise InputError("--derivation %r is not UTF-8 text" % args.derivation)
    return parse_derivation(text)


def _cmd_lnd(args, rep: Reporter):
    D = _load_derivation(args)
    ctx = D.ctx
    if args.action == "apply":
        f = parse_polynomial(args.f, ctx)
        rep.emit("lnd.apply", "pass", {"image": format_polynomial(D(f))})
        return
    if args.action == "nilpotent":
        cert = D.certify_nilpotent(_budget(args))
        rep.emit("lnd.nilpotent",
                 "pass" if cert.certified else "undetermined",
                 {"status": cert.status, "indices": cert.indices},
                 {"cap": cert.cap})
        return
    if args.action == "exp":
        t = parse_polynomial(args.t, ctx)
        m = exp_automorphism(D, t, _budget(args))
        rep.emit("lnd.exp", "pass", {
            "images": {n: format_polynomial(g) for n, g in m.images.items()}})
        return
    s = parse_polynomial(args.slice, ctx)
    if args.action == "dixmier":
        f = parse_polynomial(args.f, ctx)
        rep.emit("lnd.dixmier", "pass",
                 {"projection": format_polynomial(dixmier_projection(D, s, f, _budget(args)))})
        return
    # kernel
    budget = _budget(args)
    result = kernel_from_slice(D, s, budget)
    result = certify_polynomial_ring(result, budget)
    result = check_stably_free_shadow(result)
    payload = result.to_dict()
    worst = vn.worst_verdict(result.generation_verdict, result.pair_verdict,
                             result.stably_free_verdict)
    rep.emit("lnd.kernel", worst, payload)


def _make_spec(args) -> vn.VenereauSpec:
    if args.family:
        return vn.family(args.family, n=args.n, Q=args.Q, Q2=args.Q2, r=args.r, s=args.s)
    if args.Q is None:
        raise InputError("either --family or --Q is required")
    if args.Q2 is not None:
        raise InputError("--Q2 is taken by --family lewis only")
    if args.n is not None:
        raise InputError("--n is taken by a named --family only")
    return vn.build(0 if args.r is None else args.r, 0 if args.s is None else args.s, args.Q,
                    label="custom")


def _cmd_venereau(args, rep: Reporter):
    spec = _make_spec(args)
    if args.action == "build":
        rep.emit("venereau.build", "pass", {
            "label": spec.label,
            "h": format_polynomial(spec.h),
            "v": format_polynomial(spec.v),
            "w": format_polynomial(spec.w),
            "p": format_polynomial(spec.p),
            "lambda": format_polynomial(spec.lam),
        })
        return
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        raise InputError("--checks names no check")
    twice = next((c for i, c in enumerate(checks) if c in checks[:i]), None)
    if twice is not None:
        raise InputError("check %r named twice in --checks" % twice)
    for report in vn.run_checks(spec, checks, _budget(args)):
        rep.emit_report(report)


# ---------------------------------------------------------------------------
# argument wiring

def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="venlab", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--json", action="store_true", help="emit JSON-lines reports")
    sub = top.add_subparsers(dest="command", required=True)

    def budget_options(p, *caps):
        for cap in caps:
            p.add_argument("--budget-" + cap, dest="max_" + cap, type=int,
                           default=getattr(DEFAULT_BUDGET, "max_" + cap))

    def common(p, coeff=False, budget=True, order=True):
        p.add_argument("--vars", required=True, help="comma-separated variable names")
        if coeff:
            p.add_argument("--coeff-vars", default="",
                           help="prefix of --vars forming the coefficient block")
        if order:
            p.add_argument("--order", default="grevlex",
                           help="monomial order: lex, grevlex or elim:<k>")
        if budget:
            budget_options(p, "degree", "basis")

    poly = sub.add_parser("poly", help="polynomial arithmetic").add_subparsers(
        dest="action", required=True)
    for action in ("print", "diff", "eval", "compose"):
        p = poly.add_parser(action)
        common(p, budget=False, order=(action == "print"))
        p.add_argument("expr", help="polynomial expression")
        if action == "diff":
            p.add_argument("--wrt", required=True, help="variable to differentiate by")
        if action == "eval":
            p.add_argument("--at", required=True, help="point, e.g. x=1,y=2/3")
        if action == "compose":
            p.add_argument("--map", action="append", default=[],
                           help="substitution var=expr (repeatable)")
        p.set_defaults(func=_cmd_poly)

    gro = sub.add_parser("groebner").add_subparsers(dest="action", required=True)
    basis = gro.add_parser("basis")
    common(basis)
    basis.add_argument("--emit-basis", action="store_true",
                       help="include the serialized basis in the report")
    basis.add_argument("gens", nargs="+", help="ideal generators")
    basis.set_defaults(func=_cmd_groebner)

    mem = sub.add_parser("member").add_subparsers(dest="kind", required=True)
    for kind in ("ideal", "subalgebra"):
        p = mem.add_parser(kind)
        common(p, coeff=(kind == "subalgebra"), order=(kind == "ideal"))
        p.add_argument("--f", required=True, help="polynomial to test")
        p.add_argument("--gens", required=True, help="comma-separated generators")
        if kind == "subalgebra":
            p.add_argument("--invert", default=None,
                           help="coefficient variable to invert")
        p.set_defaults(func=_cmd_member)

    lnd = sub.add_parser("lnd").add_subparsers(dest="action", required=True)
    for action in ("apply", "nilpotent", "exp", "dixmier", "kernel"):
        p = lnd.add_parser(action)
        p.add_argument("--derivation", required=True,
                       help="file with 'D(var) = poly' lines")
        if action == "apply":
            p.add_argument("--f", required=True)
        if action == "exp":
            p.add_argument("--t", required=True, help="kernel parameter")
        if action in ("dixmier", "kernel"):
            p.add_argument("--slice", required=True)
        if action == "dixmier":
            p.add_argument("--f", required=True)
        if action == "kernel":
            budget_options(p, "degree", "basis")
        if action != "apply":
            budget_options(p, "nilpotency")
        p.set_defaults(func=_cmd_lnd)

    ven = sub.add_parser("venereau").add_subparsers(dest="action", required=True)
    for action in ("build", "verify"):
        p = ven.add_parser(action)
        p.add_argument("--family", choices=vn.FAMILY_NAMES, default=None)
        p.add_argument("--n", type=int, default=None, help="family parameter (default 1)")
        p.add_argument("--r", default=None, help="polynomial in x")
        p.add_argument("--s", default=None, help="polynomial in x")
        p.add_argument("--Q", default=None, help="polynomial in x, V, W")
        p.add_argument("--Q2", default=None, help="lewis family only")
        if action == "verify":
            p.add_argument("--checks", default="residual,localized,jacobian,fibers")
            budget_options(p, "degree", "basis")
        p.set_defaults(func=_cmd_venereau)

    return top


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    # Integers are exact at any size, so CPython's cap on converting long
    # ones to and from decimal strings (3.10.7 on) is lifted for the call.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _run(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    rep = Reporter(args.json)
    try:
        args.func(args, rep)
    except InputError as exc:
        print("venlab: error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except (BudgetExceededError, MemoryError) as exc:
        print("venlab: resource budget exceeded: %s" % (str(exc) or "out of memory"),
              file=sys.stderr)
        return 2
    return rep.exit_code()


if __name__ == "__main__":
    sys.exit(main())
