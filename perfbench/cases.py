"""Seeded inputs for the three workloads, each case with its known answer.

A case is one call into venlab: normally ``venlab.cli.main(argv)``, and for
the corrupted-spec control a direct ``venereau.run_checks`` call whose
reports go through the CLI's own ``Reporter``.  Every case carries a check
that compares its exit code and stdout with the answer known by
construction (or pinned in ``tests/data/schema1``); a check returns an
error message, or None when the output is right.

Module attributes are looked up at call time (``cli.main``, ``vn.run_checks``)
so that the traced run sees its wrappers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from venlab import cli
from venlab import venereau as vn
from venlab.derivation import Derivation, format_derivation
from venlab.parse import parse_polynomial
from venlab.poly import PolyMap, Polynomial, VarContext

CHECKS = ("residual", "localized", "jacobian", "fibers")

#: (r, s) for daigle-freudenburg, degree <= 2 in x.  Each costs 1.4-1.6 s
#: per verify on a 2-core x86 box (Python 3.11), so the seed changes the
#: inputs without changing the size of a pass.
DF_POOL = (("1", "x"), ("2", "x"), ("x", "x"), ("2*x", "2"), ("x^2", "1"), ("x^2", "2"))

#: (Q, Q2) for lewis; each costs 0.4-0.55 s per verify on the same box,
#: measured after the fixed cases.  Shapes such as Q = x*W or V + x cost
#: 0.7-1.0 s, so they are left out to keep passes the same size.
LEWIS_POOL = (("V", "1"), ("V", "x"), ("V", "2"), ("2*V", "1"), ("2*V", "2"))

#: Golden reports pinned by tests/test_golden.py, by family and n.
GOLDEN = {("venereau", 1): "v1", ("venereau", 2): "v2", ("venereau", 3): "v3",
          ("bhatwadekar-dutta", 1): "b1"}

LND_CTX = VarContext(["a", "b", "x", "y", "z"], coeff_block=["a", "b"])
LND_FIBER = ("x", "y", "z")

#: LND instance templates.  Each gives D = phi^-1 D0 phi with
#: D0 = (0, f(a,b,x), 1) and phi = e1 e2 e3, where step (v, support) adds a
#: polynomial with that support, in the other variables, to v.  The
#: supports are fixed and only the coefficients are drawn from the seed:
#: random supports give a cost from 1 ms to over 6 s per instance, and a
#: pass of such instances varies too much from seed to seed to be held to a
#: bound.  The last entry is the support of the Dixmier input.
LND_TEMPLATES = {
    "B": ((("y", ("x^2", "a*x")), ("z", ("x*y", "b")), ("x", ("a*y", "1"))), ("b", "x^2"), ("x*z", "y^2", "a*z")),
    "D": ((("y", ("x^2", "a")), ("z", ("x*y", "b")), ("x", ("a*y", "1"))), ("b", "x"), ("x*z", "y^2", "a*z")),
    "F": ((("z", ("x^2", "a*y")), ("y", ("x*z", "1")), ("x", ("a", "b"))), ("a*b", "x"), ("y*z", "x^2", "a")),
    "I": ((("y", ("x^2", "a*x")), ("z", ("y", "b*x")), ("x", ("a*y", "1"))), ("b", "x^2"), ("x*z", "y^2", "a*z")),
    "J": ((("x", ("z", "a")), ("y", ("x^2", "b")), ("z", ("x", "a*y"))), ("a*x", "b"), ("y*z", "x*y", "b*x")),
    "K": ((("y", ("z^2", "a")), ("x", ("y", "b*z")), ("z", ("a", "b"))), ("b", "x"), ("x*z", "y^2", "a*x")),
}

#: One pass: k = 3 steps of degree <= 2 per instance, eight instances, four
#: CLI calls each (about 2.7 s on a 2-core x86 box).  F's kernel pair search
#: ends undetermined (exit 2), which is a correct answer.
LND_INSTANCES = ("B", "D", "F", "I", "J", "K", "B", "I")


@dataclass
class Case:
    name: str
    argv: Optional[list]                    # CLI arguments, or None for `call`
    check: Callable[[int, list], Optional[str]]
    call: Optional[Callable[[], int]] = None

    def run(self) -> int:
        if self.argv is not None:
            return cli.main(self.argv)
        return self.call()


@dataclass
class Workload:
    cases: list
    files: dict     # name -> content of every input file written


def build(name: str, seed: int, root: Path, inputs: Path) -> Workload:
    """Generate the workload's cases from `seed`, writing input files to `inputs`."""
    if name == "families":
        return Workload(_families(random.Random(seed), root), {})
    if name == "generic":
        return Workload([_verify_case("generic", ["--r", "x", "--s", "1", "--Q", "V + W"])], {})
    if name == "lnd":
        return _lnd(random.Random(seed), inputs)
    raise ValueError("unknown workload %r" % name)


# ---------------------------------------------------------------------------
# families and generic

def _verify_case(name: str, spec_args: list, extra: list = (), check=None) -> Case:
    argv = ["--json", "venereau", "verify"] + list(spec_args) + list(extra)
    return Case(name, argv, check or _expect_verdicts(0, dict.fromkeys(CHECKS, "pass")))


def _families(rng: random.Random, root: Path) -> list:
    data = root / "tests" / "data" / "schema1"
    cases = []
    for family, top in (("venereau", 4), ("bhatwadekar-dutta", 3)):
        for n in range(1, top + 1):
            label = GOLDEN.get((family, n))
            check = None
            if label:
                golden = json.loads((data / ("%s.json" % label)).read_text())
                check = _expect_lines([json.dumps(o, sort_keys=True) for o in golden])
            cases.append(_verify_case("%s-%d" % (family, n),
                                      ["--family", family, "--n", str(n)], check=check))
    for r, s in rng.sample(DF_POOL, 2):
        cases.append(_verify_case("df r=%s s=%s" % (r, s),
                                  ["--family", "daigle-freudenburg", "--n", "1", "--r", r, "--s", s]))
    for q, q2 in rng.sample(LEWIS_POOL, 2):
        cases.append(_verify_case("lewis Q=%s Q2=%s" % (q, q2),
                                  ["--family", "lewis", "--Q", q, "--Q2", q2]))
    cases.append(_verify_case("custom Q=W", ["--Q", "W"]))
    cases.append(_verify_case(
        "budget-starved", ["--family", "venereau", "--n", "1"], ["--budget-degree", "4"],
        _expect_verdicts(2, {"residual": "pass", "localized": "undetermined",
                             "jacobian": "pass", "fibers": "undetermined"})))
    spec = vn.family("venereau", 1)
    x = Polynomial.variable(spec.ctx, "x")
    z = Polynomial.variable(spec.ctx, "z")
    corrupted = spec.corrupted(h=spec.h + x * z ** 2)
    cases.append(Case("corrupted", None,
                      _expect_verdicts(1, {"residual": "pass", "localized": "fail",
                                           "jacobian": "fail", "fibers": "fail"}),
                      call=lambda: _report(vn.run_checks(corrupted))))
    return cases


def _report(reports) -> int:
    rep = cli.Reporter(True)
    for report in reports:
        rep.emit_report(report)
    return rep.exit_code()


def _expect_lines(expected: list):
    def check(code, lines):
        if code != 0:
            return "exit code %d, expected 0" % code
        if lines != expected:
            return "report bytes differ from the golden file"
        return None
    return check


def _expect_verdicts(code_expected: int, verdicts: dict):
    def check(code, lines):
        if code != code_expected:
            return "exit code %d, expected %d" % (code, code_expected)
        got = {}
        for line in lines:
            obj = json.loads(line)
            got[obj["check"]] = obj["verdict"]
        if got != verdicts:
            return "verdicts %s, expected %s" % (got, verdicts)
        return None
    return check


# ---------------------------------------------------------------------------
# lnd

def _seeded(rng: random.Random, support) -> Polynomial:
    total = Polynomial.zero(LND_CTX)
    for mono in support:
        total = total + rng.choice((-2, -1, 1, 2)) * parse_polynomial(mono, LND_CTX)
    return total


def _elementary(var: str, p: Polynomial) -> PolyMap:
    return PolyMap(LND_CTX, LND_CTX, {n: Polynomial.variable(LND_CTX, n) + (p if n == var else 0)
                                      for n in LND_CTX.names})


def _lnd(rng: random.Random, inputs: Path) -> Workload:
    cases = []
    files = {}
    one = Polynomial.one(LND_CTX)
    a = Polynomial.variable(LND_CTX, "a")
    for i, label in enumerate(LND_INSTANCES):
        steps, f_support, g_support = LND_TEMPLATES[label]
        phi = PolyMap.identity(LND_CTX)
        phi_inv = PolyMap.identity(LND_CTX)
        for var, support in steps:
            p = _seeded(rng, support)
            phi = phi.compose(_elementary(var, p))
            phi_inv = _elementary(var, -p).compose(phi_inv)
        d0 = Derivation(LND_CTX, {"x": Polynomial.zero(LND_CTX),
                                  "y": _seeded(rng, f_support), "z": one})
        D = Derivation(LND_CTX, {n: phi_inv(d0(phi.images[n])) for n in LND_FIBER})
        s = phi_inv(Polynomial.variable(LND_CTX, "z"))
        if D(s) != one:
            raise AssertionError("generated slice of instance %d is not a slice" % i)
        g = _seeded(rng, g_support)
        fname = "lnd%d.der" % i
        files[fname] = format_derivation(D)
        (inputs / fname).write_text(files[fname])
        head = ["--json", "lnd"]
        der = ["--derivation", str(inputs / fname)]
        cases += [
            Case("lnd%d nilpotent" % i, head + ["nilpotent"] + der, _expect_nilpotent),
            Case("lnd%d exp" % i, head + ["exp"] + der + ["--t", "a"], _expect_exp(D, s, s + a)),
            Case("lnd%d dixmier" % i, head + ["dixmier"] + der + ["--slice", str(s), "--f", str(g)],
                 _expect_dixmier(D)),
            Case("lnd%d kernel" % i, head + ["kernel"] + der + ["--slice", str(s)], _expect_kernel(D)),
        ]
    return Workload(cases, files)


def _one_report(code: int, lines: list, codes=(0,)):
    if code not in codes:
        return None, "exit code %d, expected one of %s" % (code, list(codes))
    if len(lines) != 1:
        return None, "%d report lines, expected 1" % len(lines)
    return json.loads(lines[0]), None


def _expect_nilpotent(code, lines):
    obj, err = _one_report(code, lines)
    if err:
        return err
    if obj["verdict"] != "pass" or obj["witnesses"]["status"] != "certified":
        return "nilpotency not certified"
    return None


def _expect_exp(D: Derivation, s: Polynomial, shifted: Polynomial):
    def check(code, lines):
        obj, err = _one_report(code, lines)
        if err:
            return err
        images = {n: parse_polynomial(t, D.ctx) for n, t in obj["witnesses"]["images"].items()}
        if obj["verdict"] != "pass" or s.substitute(images) != shifted:
            return "exp(a D) does not send the slice s to s + a"
        return None
    return check


def _expect_dixmier(D: Derivation):
    def check(code, lines):
        obj, err = _one_report(code, lines)
        if err:
            return err
        proj = parse_polynomial(obj["witnesses"]["projection"], D.ctx)
        if obj["verdict"] != "pass" or not D(proj).is_zero():
            return "Dixmier projection is not annihilated by D"
        return None
    return check


def _expect_kernel(D: Derivation):
    def check(code, lines):
        obj, err = _one_report(code, lines, codes=(0, 2))
        if err:
            return err
        if _has_fail(obj):
            return "a kernel verdict is fail"
        if obj["witnesses"]["generation"]["verdict"] != "pass":
            return "kernel generation is not pass"
        for name, text in obj["witnesses"]["kernel_generators"].items():
            if not D(parse_polynomial(text, D.ctx)).is_zero():
                return "pi(%s) is not annihilated by D" % name
        return None
    return check


def _has_fail(obj) -> bool:
    if isinstance(obj, dict):
        return obj.get("verdict") == "fail" or any(_has_fail(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_fail(v) for v in obj)
    return False
