"""Property test of the command line: every argv ends in a verdict or a named rejection.

Hypothesis generates argv over every subcommand and the grammar of
`parse.py`, with malformed and non-ASCII text, bad option values, derivation
files that cannot be read, and budgets from -1 to 6.  Whatever the input,
`main` returns 0, 1, 2 or 3 and raises nothing; 0 and 1 write nothing to
stderr; 2 writes at most one budget line; and 3, unless argparse rejected
the argv, writes exactly one ``venlab: error:`` line that carries no
builtin's text.

Literal exponents stay at 4 or below.  Two inputs still run unbounded, a
small lex basis and `poly eval` of an exponent near 2^62 (ROADMAP item 3,
the work meter); this test checks exit codes and messages, not run time.
"""

import contextlib
import functools
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from venlab.cli import main
from venlab.venereau import FAMILY_NAMES

#: Text of builtin exceptions that a named input check never prints.
BUILTIN_TEXT = ("invalid literal", "Invalid literal", "Errno", "Traceback")

NAMES = ["x", "y", "z", "a", "q", "_t0", "é", "1x", ""]


@st.composite
def _mostly(draw, good, bad, weight=4):
    """`good` about `weight` times as often as `bad`."""
    return draw(bad if draw(st.integers(0, weight)) == weight else good)


VAR_LISTS = _mostly(st.sampled_from(["x", "x,y", "x,y,z", "a,x,y", "x, y"]),
                    st.lists(st.sampled_from(NAMES), max_size=4).map(",".join))


def _names(var_list):
    return tuple(n.strip() for n in var_list.split(",") if n.strip()) or ("x",)


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from([" + ", " - ", "*", " "]), children).map("".join),
        children.map("(%s)".__mod__),
        children.map("-(%s)".__mod__),
    )


@functools.lru_cache(maxsize=None)
def exprs(names):
    """Mostly grammatical text over `names`; sometimes a bad name or zero
    denominator in it, malformed text, or raw text with non-ASCII characters."""
    atoms = st.one_of(
        st.sampled_from(["0", "1", "2", "-1", "1/2", "2/3"]),
        st.sampled_from(names),
        st.tuples(st.sampled_from(names), st.integers(0, 4)).map("%s^%d".__mod__),
    )
    bad_atoms = st.one_of(atoms, st.sampled_from(["1/0", "q", "_t0"]))
    return _mostly(st.recursive(atoms, _extend, max_leaves=5), st.one_of(
        st.recursive(bad_atoms, _extend, max_leaves=5),
        st.sampled_from(["", " ", "x^", "^2", "x^-1", "x^²", "2/0 x", "(x", "x)", "x +",
                         "x**2", "1.5", "x,y", "--x"]),
        st.text(alphabet="xyz_q +-*/()0123é²٣", max_size=8),
    ))


ORDERS = _mostly(st.sampled_from(["lex", "grevlex", "elim:1", "elim:2"]),
                 st.sampled_from(["elim:0", "elim:x", "elim:²", "elim:", "elim: 1", "elim:-1",
                                  "revlex"]))
ITEMS = st.sampled_from(["x=1", "y=2/3", "x=-3", "z=0", "a=1", "x=1/0", "x=abc", "x=²",
                         "x=1.5", "z", "q=1", "x=", "=1", "_t0=1", "x=1,x=2", ""])
MAPS = st.sampled_from(["x=y + 1", "y=x^4", "z=x y", "a=2", "x=1/0", "q=x", "x", "x=_t0",
                        "x=é"])

#: Derivation files by name, with the variables of each.  `not-utf8` holds
#: the bytes ff fe; `directory` and `missing` name paths that are no file.
DERIVATIONS = {
    "triangular": ("# constants: a\nD(x) = 0\nD(y) = a x\nD(z) = 1\n", ("a", "x", "y", "z")),
    "d-five": ("D(x) = 1\nD(y) = x^4\n", ("x", "y")),
    "unicode-comment": ("# Vénéreau\nD(x) = 0\nD(y) = x\nD(z) = 1\n", ("x", "y", "z")),
    "not-nilpotent": ("D(x) = x\nD(y) = 1\n", ("x", "y")),
    "bad-line": ("D(x) = 1\nE(y) = 2\n", ("x",)),
    "reserved": ("D(_t0) = 1\n", ("x",)),
    "unknown-name": ("D(x) = q\n", ("x",)),
    "constant-image": ("# constants: a\nD(a) = 1\n", ("a",)),
    "empty": ("", ("x",)),
    "not-utf8": (b"\xff\xfe", ("x",)),
    "directory": (None, ("x",)),
    "missing": (None, ("x",)),
}

#: The spec options each --family takes (None: a custom spec; "nope" is no family).
SPEC_OPTIONS = {None: ("r", "s", "Q"), "venereau": ("n",), "bhatwadekar-dutta": ("n",),
                "daigle-freudenburg": ("n", "r", "s"), "lewis": ("Q", "Q2"), "nope": ("n",)}


@pytest.fixture(scope="module")
def derivation_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("derivations")
    paths = {"directory": root, "missing": root / "missing.der"}
    for name, (content, _) in DERIVATIONS.items():
        if content is not None:
            paths[name] = root / (name + ".der")
            paths[name].write_bytes(content if isinstance(content, bytes) else content.encode())
    return {name: str(path) for name, path in paths.items()}


def _budgets(draw, *caps):
    """Each cap from 1 to 6; now and then one of them at 0 or -1."""
    values = [str(draw(st.integers(1, 6))) for _ in caps]
    if draw(st.integers(0, 5)) == 5:
        values[draw(st.integers(0, len(caps) - 1))] = draw(st.sampled_from(["0", "-1"]))
    return [arg for cap, value in zip(caps, values) for arg in ("--budget-" + cap, value)]


@st.composite
def poly_argv(draw):
    action = draw(st.sampled_from(["print", "diff", "eval", "compose"]))
    var_list = draw(VAR_LISTS)
    names = _names(var_list)
    argv = ["poly", action, "--vars=" + var_list]
    if action == "print" and draw(st.booleans()):
        argv += ["--order", draw(ORDERS)]
    if action == "diff":
        argv += ["--wrt=" + draw(st.one_of(st.sampled_from(names), st.sampled_from(NAMES)))]
    if action == "eval":
        items = draw(st.one_of(st.just(["%s=%d" % (n, i) for i, n in enumerate(names)]),
                               st.lists(ITEMS, max_size=3)))
        argv += ["--at=" + ",".join(items)]
    if action == "compose":
        for item in draw(st.lists(MAPS, max_size=2)):
            argv += ["--map=" + item]
    return argv + ["--", draw(exprs(names))]


@st.composite
def groebner_argv(draw):
    var_list = draw(VAR_LISTS)
    argv = ["groebner", "basis", "--vars=" + var_list, "--order", draw(ORDERS)]
    if draw(st.booleans()):
        argv.append("--emit-basis")
    argv += _budgets(draw, "degree", "basis")
    return argv + ["--"] + draw(st.lists(exprs(_names(var_list)), min_size=1, max_size=3))


@st.composite
def member_argv(draw):
    kind = draw(st.sampled_from(["ideal", "subalgebra"]))
    var_list = draw(VAR_LISTS)
    names = _names(var_list)
    argv = ["member", kind, "--vars=" + var_list, "--f=" + draw(exprs(names)),
            "--gens=" + ",".join(draw(st.lists(exprs(names), max_size=2)))]
    if kind == "ideal":
        argv += ["--order", draw(ORDERS)]
    else:
        prefix = ",".join(names[:draw(st.integers(0, len(names)))])
        argv += ["--coeff-vars=" + draw(st.one_of(st.just(prefix), st.sampled_from(["y", "q"])))]
        if draw(st.booleans()):
            argv += ["--invert=" + draw(st.sampled_from(names + ("q",)))]
    return argv + _budgets(draw, "degree", "basis")


@st.composite
def lnd_argv(draw, files):
    action = draw(st.sampled_from(["apply", "nilpotent", "exp", "dixmier", "kernel"]))
    name = draw(_mostly(st.sampled_from(["triangular", "d-five", "unicode-comment"]),
                        st.sampled_from(sorted(files)), weight=2))
    names = DERIVATIONS[name][1]
    argv = ["lnd", action, "--derivation", files[name]]
    if action in ("apply", "dixmier"):
        argv += ["--f=" + draw(exprs(names))]
    if action == "exp":
        argv += ["--t=" + draw(st.one_of(st.sampled_from(["x", "2", "0"]), exprs(names)))]
    if action in ("dixmier", "kernel"):
        argv += ["--slice=" + draw(st.one_of(st.sampled_from(["z", "x", "z^2"]), exprs(names)))]
    if action == "kernel":
        argv += _budgets(draw, "degree", "basis")
    if action != "apply" and draw(st.booleans()):
        argv += _budgets(draw, "nilpotency")
    return argv


@st.composite
def venereau_argv(draw):
    action = draw(st.sampled_from(["build", "verify"]))
    family = draw(st.sampled_from([None, "nope"] + list(FAMILY_NAMES)))
    argv = ["venereau", action] + (["--family", family] if family else [])
    options = [o for o in SPEC_OPTIONS[family]
               if (o == "Q" and family is None) or draw(st.booleans())]
    if draw(st.integers(0, 4)) == 4:
        options.append(draw(st.sampled_from(["n", "r", "s", "Q", "Q2"])))
    for option in options:
        value = (draw(_mostly(st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1", "x"])))
                 if option == "n"
                 else draw(exprs(("x",) if option in ("r", "s") else ("x", "V", "W"))))
        argv += ["--%s=%s" % (option, value)]
    if action == "verify":
        if draw(st.booleans()):
            checks = draw(st.lists(st.sampled_from(
                ["residual", "localized", "jacobian", "fibers", "nope", ""]), max_size=3))
            argv += ["--checks=" + ",".join(checks)]
        argv += _budgets(draw, "degree", "basis")
    return argv


def _argv(files):
    return st.tuples(st.booleans(), st.one_of(
        poly_argv(), groebner_argv(), member_argv(), lnd_argv(files), venereau_argv(),
    )).map(lambda t: (["--json"] if t[0] else []) + t[1])


def test_every_argv_ends_in_an_exit_code_or_one_named_line(derivation_files):
    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(derivation_files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2, 3), (argv, code)
        if code in (0, 1):
            assert lines == [], (argv, lines)
        elif code == 2:
            assert len(lines) <= 1, (argv, lines)
            assert all(line.startswith("venlab: resource budget exceeded: ")
                       for line in lines), (argv, lines)
        elif not any(line.startswith("usage:") for line in lines):
            assert len(lines) == 1 and lines[0].startswith("venlab: error: "), (argv, lines)
            assert not any(text in lines[0] for text in BUILTIN_TEXT), (argv, lines)

    check()
