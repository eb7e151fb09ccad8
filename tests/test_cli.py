"""Command-line interface: subcommands, report format, exit codes."""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from venlab import cli, derivation
from venlab.cli import build_parser, main
from venlab.poly import ContextMismatchError, Polynomial

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# poly

def test_poly_print_canonical(capsys):
    code, out, _ = run(capsys, "--json", "poly", "print",
                       "--vars", "x,y", "x*y + 1/2 + y*x")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["schema"] == 1
    assert rec["verdict"] == "pass"
    assert rec["witnesses"]["canonical"] == "2*x*y + 1/2"


def test_poly_diff(capsys):
    code, out, _ = run(capsys, "--json", "poly", "diff",
                       "--vars", "x,z", "--wrt", "z", "z^2 + x z")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["witnesses"]["derivative"] == "x + 2*z"


def test_poly_eval(capsys):
    code, out, _ = run(capsys, "--json", "poly", "eval",
                       "--vars", "x,y", "--at", "x=2,y=1/2", "x^2 y")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["witnesses"]["value"] == "2"


def test_poly_eval_zero_denominator_is_usage_error():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "venlab.cli", "poly", "eval", "--vars", "x",
         "--at", "x=1/0", "x"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("venlab: error:")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("expr", ["x^99999999999999999999", "(" * 3000 + "x" + ")" * 3000],
                         ids=["huge-exponent", "deep-nesting"])
def test_poly_parse_limits_are_usage_errors(expr):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "venlab.cli", "poly", "print", "--vars", "x", expr],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("venlab: error:")
    assert len(proc.stderr.splitlines()) == 1


def _run_module(module, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("argv", [
    ["print", "--vars", "x", "x^4611686018427387904 * x"],
    ["compose", "--vars", "x", "--map", "x=x^4611686018427387904", "x^2"],
    ["compose", "--vars", "x,y", "--map", "x=2*y^2", "x^4611686018427387904"],
], ids=["product", "compose", "compose-scaled-image"])
def test_exponent_overflow_in_arithmetic_is_usage_error(argv):
    proc = _run_module("venlab.cli", "poly", *argv)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("venlab: error:")
    assert len(proc.stderr.splitlines()) == 1


#: (expression over x, y; exit code; stdout; stderr) of `poly print`.  A
#: variable whose exponents in one term sum above 2^62 overflows, the first
#: such variable in --vars order is named, and a zero factor before the
#: overflowing one makes the term zero without a check.
OVERFLOW_ACROSS_ATOMS = [
    ("x^4611686018427387904 * x", 3, "",
     "venlab: error: exponent 4611686018427387905 exceeds limit\n"),
    ("x^2305843009213693952 * x^2305843009213693952", 0,
     "poly.print: pass  x^4611686018427387904\n", ""),
    ("x^4611686018427387904 (x + 1)", 3, "",
     "venlab: error: exponent 4611686018427387905 exceeds limit\n"),
    ("0 x^4611686018427387904 x", 0, "poly.print: pass  0\n", ""),
    ("x^4611686018427387904 * 0 * x", 0, "poly.print: pass  0\n", ""),
    ("x^4611686018427387904 x * 0", 3, "",
     "venlab: error: exponent 4611686018427387905 exceeds limit\n"),
    ("(y^3) x^4611686018427387903 y^4611686018427387904 y", 3, "",
     "venlab: error: exponent 4611686018427387907 exceeds limit\n"),
    ("(x - x) x^4611686018427387904 x", 0, "poly.print: pass  0\n", ""),
    ("x^4611686018427387904 (y + 1) x", 3, "",
     "venlab: error: exponent 4611686018427387905 exceeds limit\n"),
    ("2/3 x^2305843009213693952 (x^2305843009213693952 + y^4611686018427387904) y", 3, "",
     "venlab: error: exponent 4611686018427387905 exceeds limit\n"),
    ("y^4611686018427387904 x^4611686018427387899 (y^3 + x^9)", 3, "",
     "venlab: error: exponent 4611686018427387908 exceeds limit\n"),
    ("x^4611686018427387904 (y^2305843009213693957) (x y^2305843009213693952)", 3, "",
     "venlab: error: exponent 4611686018427387905 exceeds limit\n"),
    ("-x^4611686018427387904 x + y", 3, "",
     "venlab: error: exponent 4611686018427387905 exceeds limit\n"),
    ("y + (x^4611686018427387904 x)", 3, "",
     "venlab: error: exponent 4611686018427387905 exceeds limit\n"),
]


@pytest.mark.parametrize("expr, code, out, err", OVERFLOW_ACROSS_ATOMS,
                         ids=[e[:32] for e, _, _, _ in OVERFLOW_ACROSS_ATOMS])
def test_exponent_overflow_across_atoms(capsys, expr, code, out, err):
    assert run(capsys, "poly", "print", "--vars", "x,y", expr) == (code, out, err)


@pytest.mark.parametrize("argv, line", [
    (["eval", "--vars", "x,y", "--at", "y=1", "x y"],
     "venlab: error: no value for variable 'x'"),
    (["diff", "--vars", "x,y", "--wrt", "q", "x y"],
     "venlab: error: unknown variable 'q' in context ('x', 'y')"),
    (["eval", "--vars", "x", "--at", "", "x"], "venlab: error: no value for variable 'x'"),
], ids=["eval-missing-coordinate", "diff-unknown-variable", "eval-empty-point"])
def test_key_error_prints_its_message(argv, line):
    proc = _run_module("venlab.cli", "poly", *argv)
    assert proc.returncode == 3
    assert proc.stderr == line + "\n"


#: Inputs whose rejection printed a builtin's own text (`invalid literal for
#: int() with base 10`, `Invalid literal for Fraction`); each now has its own.
NAMED_INPUT_ERRORS = [
    (["groebner", "basis", "--vars", "x", "--order", "elim:x", "x"],
     "elimination block size 'x' is not an integer"),
    (["member", "ideal", "--vars", "x", "--order", "elim:", "--f", "x", "--gens", "x"],
     "elimination block size '' is not an integer"),
    (["poly", "print", "--vars", "x", "--order", "elim:\u00b2", "x"],
     "elimination block size '\u00b2' is not an integer"),
    (["poly", "eval", "--vars", "x", "--at", "x=abc", "x"],
     "--at value 'abc' is not a rational number"),
]


@pytest.mark.parametrize("argv, line", NAMED_INPUT_ERRORS,
                         ids=["elim-x", "elim-empty", "elim-superscript", "at-abc"])
def test_rejected_values_get_a_named_message(capsys, argv, line):
    assert run(capsys, *argv) == (3, "", "venlab: error: %s\n" % line)


@pytest.mark.parametrize("kind, line", [
    ("missing", "cannot read --derivation '{}': No such file or directory"),
    ("directory", "cannot read --derivation '{}': Is a directory"),
    ("not-utf8", "--derivation '{}' is not UTF-8 text"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_derivation_file_is_usage_error(capsys, tmp_path, kind, line):
    path = tmp_path if kind == "directory" else tmp_path / "D.txt"
    if kind == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    assert run(capsys, "lnd", "nilpotent", "--derivation", str(path)) == (
        3, "", "venlab: error: %s\n" % line.format(path))


def test_derivation_files_are_read_as_utf8_under_any_locale(tmp_path):
    path = tmp_path / "D.txt"
    path.write_text("# V\u00e9n\u00e9reau\nD(x) = 1\n", encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "venlab", "lnd", "nilpotent",
                           "--derivation", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "lnd.nilpotent: pass\n", "")


def _digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_poly_eval_with_a_value_of_thousands_of_digits(capsys):
    limit = _digit_limit()
    code, out, err = run(capsys, "--json", "poly", "eval", "--vars", "x", "--at", "x=2/3",
                         "x^20000")
    assert (code, err) == (0, "")
    num, den = json_lines(out)[0]["witnesses"]["value"].split("/")
    # 2^20000 and 3^20000 have 6021 and 9543 digits; their last nine agree
    assert (len(num), len(den)) == (6021, 9543)
    assert (int(num[-9:]), int(den[-9:])) == (pow(2, 20000, 10**9), pow(3, 20000, 10**9))
    assert _digit_limit() == limit


def test_poly_print_a_coefficient_of_thousands_of_digits(capsys):
    limit = _digit_limit()
    text = "9" * 4400 + "*x"
    code, out, err = run(capsys, "poly", "print", "--vars", "x", text)
    assert (code, out, err) == (0, "poly.print: pass  %s\n" % text, "")
    assert _digit_limit() == limit


def test_venereau_verify_with_a_coefficient_of_thousands_of_digits(capsys):
    # 3^9000 has 4295 digits, so r parses anywhere; its report needs more
    code, out, err = run(capsys, "--json", "venereau", "verify", "--r", "%d*x" % 3**9000,
                         "--s", "1", "--Q", "V + W")
    assert (code, err) == (0, "")
    assert [rec["verdict"] for rec in json_lines(out)] == ["pass"] * 4


def test_poly_eval_repeated_coordinate_is_usage_error(capsys):
    code, out, err = run(capsys, "--json", "poly", "eval",
                         "--vars", "x,y", "--at", "x=1,y=2, x=2", "x y")
    assert code == 3
    assert out == ""
    assert err.startswith("venlab: error:") and "'x'" in err


@pytest.mark.parametrize("argv", [
    ["compose", "--vars", "x,y", "--map", "x=1", "--map", "x=2", "x + y"],
    ["compose", "--vars", "x,y", "--map", "z=1", "x + y"],
    ["eval", "--vars", "x", "--at", "x=1,z=2", "x"],
], ids=["compose-repeated", "compose-unknown", "eval-unknown"])
def test_poly_bad_variable_names_are_usage_errors(argv):
    proc = _run_module("venlab.cli", "poly", *argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("venlab: error:")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv, line", [
    (["eval", "--vars", "x", "--at", "x", "x"], "--at item 'x' is not name=value"),
    (["eval", "--vars", "x", "--at", "x=1,", "x"], "--at item '' is not name=value"),
    (["compose", "--vars", "x", "--map", "x", "x"], "--map item 'x' is not name=value"),
    (["eval", "--vars", "x", "--at", "x=1,z=2", "x"], "coordinate 'z' in --at is not in --vars"),
    (["eval", "--vars", "x", "--at", "x=1, x=2", "x"], "coordinate 'x' given twice in --at"),
    (["eval", "--vars", "x", "--at", "x=1/0,z=2", "x"], "zero denominator in --at value '1/0'"),
    (["compose", "--vars", "x", "--map", "z=1", "x"], "variable 'z' in --map is not in --vars"),
    (["compose", "--vars", "x", "--map", "x=1", "--map", "x=2", "x"],
     "variable 'x' mapped twice in --map"),
], ids=["at-no-equals", "at-empty-item", "map-no-equals", "at-unknown", "at-repeated",
        "at-zero-denominator-first", "map-unknown", "map-repeated"])
def test_name_value_items_are_checked_in_order(capsys, argv, line):
    assert run(capsys, "poly", *argv) == (3, "", "venlab: error: %s\n" % line)


@pytest.mark.parametrize("argv, line", [
    (["poly", "print", "--vars", "", "1"], "poly.print: pass  1"),
    (["groebner", "basis", "--vars", "", "2"], "groebner.basis: pass  1"),
    (["member", "ideal", "--vars", "", "--f", "3", "--gens", "2"], "member.ideal: pass"),
    (["poly", "eval", "--vars", "", "--at", "", "1"], "poly.eval: pass  1"),
], ids=["poly-print", "groebner-basis", "member-ideal", "poly-eval-empty-point"])
def test_constants_over_no_variables(capsys, argv, line):
    assert run(capsys, *argv) == (0, line + "\n", "")


def test_python_m_venlab_runs_the_cli():
    proc = _run_module("venlab", "--json", "poly", "print", "--vars", "x,y", "y*x + 1/2")
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_lines(proc.stdout)
    assert rec["witnesses"]["canonical"] == "x*y + 1/2"


def test_poly_compose(capsys):
    code, out, _ = run(capsys, "--json", "poly", "compose",
                       "--vars", "x,y", "--map", "y=y + x", "y^2")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["witnesses"]["image"] == "x^2 + 2*x*y + y^2"


@pytest.mark.parametrize("message, line", [
    ("", "out of memory"),
    ("no room for the image", "no room for the image"),
])
def test_out_of_memory_is_undetermined(capsys, monkeypatch, message, line):
    """Running out of memory is running out of a resource: exit 2, one line."""
    def exhausted(args, rep):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(cli, "_cmd_poly", exhausted)
    monkeypatch.setattr(cli, "_PARSER", None)
    code, out, err = run(capsys, "--json", "poly", "compose", "--vars", "x,y",
                         "--map", "x=y + 1/2", "x^4")
    assert (code, out, err) == (2, "", "venlab: resource budget exceeded: %s\n" % line)


@pytest.mark.parametrize("error", [ValueError, KeyError, OSError, ContextMismatchError])
def test_internal_errors_are_not_usage_errors(capsys, monkeypatch, error):
    """Exit 3 is for rejected input; an error inside the program propagates."""
    def broken(self, name):
        raise error("an internal fault")

    monkeypatch.setattr(Polynomial, "partial", broken)
    with pytest.raises(error, match="an internal fault"):
        main(["poly", "diff", "--vars", "x", "--wrt", "x", "x^2"])
    assert capsys.readouterr().err == ""


#: `main` calls that share one parser.  `--map` appends to a list default,
#: so a call without it must not see the images of the calls before it, and
#: a usage error must not leave state behind for the next call.
SHARED_PARSER_CALLS = [
    ["--json", "poly", "compose", "--vars", "x,y", "--map", "y=x", "x + y"],
    ["--json", "poly", "compose", "--vars", "x,y", "--map", "x=y^2", "--map", "y=2", "x y"],
    ["--json", "poly", "compose", "--vars", "x,y", "x + y"],
    ["--json", "poly", "compose", "--vars", "x,y", "--bogus", "1", "x"],
    ["--json", "poly", "compose", "--vars", "x,y", "--map", "x=1", "x + y"],
    ["--json", "poly", "compose", "--map", "x=1", "x"],
    ["--json", "poly", "compose", "--vars", "x,y", "x y"],
]


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    builds = []

    def counted():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    shared = [run(capsys, *argv) for argv in SHARED_PARSER_CALLS]
    assert len(builds) == 1
    fresh = []
    for argv in SHARED_PARSER_CALLS:
        monkeypatch.setattr(cli, "_PARSER", build_parser())
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 3, 0, 3, 0]
    images = [json_lines(out)[0]["witnesses"]["image"] for code, out, _ in shared if code == 0]
    assert images == ["2*x", "2*y^2", "x + y", "y + 1", "x*y"]


# ---------------------------------------------------------------------------
# groebner / member

def test_groebner_basis_emit(capsys):
    code, out, _ = run(capsys, "--json", "groebner", "basis",
                       "--vars", "x,y", "--order", "lex", "--emit-basis",
                       "x y - 1", "y^2 - 1")
    assert code == 0
    (rec,) = json_lines(out)
    assert sorted(rec["witnesses"]["basis"]["basis"]) == ["x - y", "y^2 - 1"]


def test_member_ideal_pass_and_fail(capsys):
    code, out, _ = run(capsys, "--json", "member", "ideal",
                       "--vars", "x", "--f", "x^2 - 1", "--gens", "x - 1")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["witnesses"]["member"] is True

    code, out, _ = run(capsys, "--json", "member", "ideal",
                       "--vars", "x,y", "--f", "1", "--gens", "x,y")
    assert code == 1
    (rec,) = json_lines(out)
    assert rec["witnesses"]["member"] is False
    assert rec["witnesses"]["normal_form"] == "1"


def test_reduced_inputs_alone_can_exceed_the_basis_cap(capsys):
    argv = ["--json", "groebner", "basis", "--vars", "x,y", "x^2 - y", "y^2 - x"]
    assert run(capsys, *argv, "--budget-basis", "1") == (
        2, '{"check": "groebner.basis", "schema": 1, "stats": {"detail": '
           '"basis size cap exceeded"}, "verdict": "undetermined", "witnesses": {}}\n', "")
    code, out, _ = run(capsys, *argv, "--budget-basis", "2")
    assert code == 0
    assert json_lines(out)[0]["witnesses"] == {"size": 2}


def test_member_subalgebra_with_inversion(capsys):
    code, out, _ = run(capsys, "--json", "member", "subalgebra",
                       "--vars", "x,z", "--coeff-vars", "x",
                       "--invert", "x", "--f", "z", "--gens", "x z")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["witnesses"]["member"] is True
    assert rec["witnesses"]["validated"] is True


def test_member_ideal_degree_cap_bounds_normal_form(capsys):
    code, out, _ = run(capsys, "--json", "member", "ideal", "--vars", "x,y",
                       "--budget-degree", "3", "--f", "x^5 y^3",
                       "--gens", "x y - 1,y^2 - 1")
    assert code == 2
    (rec,) = json_lines(out)
    assert rec["verdict"] == "undetermined"
    assert rec["stats"]["detail"] == "degree cap exceeded during reduction"


def test_member_subalgebra_failed_witness_exit_2(capsys, monkeypatch):
    from venlab.groebner import MembershipResult
    monkeypatch.setattr(MembershipResult, "witness_identity_holds",
                        lambda self, f, gens: False)
    code, out, _ = run(capsys, "--json", "member", "subalgebra",
                       "--vars", "x,z", "--coeff-vars", "x",
                       "--invert", "x", "--f", "z", "--gens", "x z")
    assert code == 2
    (rec,) = json_lines(out)
    assert rec["verdict"] == "undetermined"
    assert rec["stats"]["detail"] == "witness failed re-substitution"


def test_member_subalgebra_inverting_a_fiber_variable_is_usage_error():
    proc = _run_module("venlab.cli", "--json", "member", "subalgebra", "--vars", "x,z",
                       "--invert", "z", "--f", "z", "--gens", "x z")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("venlab: error:")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv, code, witnesses", [
    (["subalgebra", "--vars", "x,y", "--coeff-vars", "x", "--f", "y"], 1, {"member": False}),
    (["subalgebra", "--vars", "x,y", "--coeff-vars", "x", "--f", "x^2+1"], 0,
     {"member": True, "witness": "x^2 + 1", "tags": {}, "validated": True}),
    (["ideal", "--vars", "x", "--f", "0"], 0, {"member": True, "normal_form": "0"}),
    (["ideal", "--vars", "x", "--f", "x"], 1, {"member": False, "normal_form": "x"}),
], ids=["subalgebra-nonmember", "subalgebra-member", "ideal-member", "ideal-nonmember"])
def test_empty_generator_list(capsys, argv, code, witnesses):
    # R[] = R, and no generators make the zero ideal
    got, out, err = run(capsys, "--json", "member", *argv, "--gens", "")
    assert (got, err) == (code, "")
    (rec,) = json_lines(out)
    assert rec["witnesses"] == witnesses


@pytest.mark.parametrize("argv, witnesses", [
    (["--vars", "x", "--coeff-vars", "x", "--f", "x", "--gens", "x"],
     {"member": True, "witness": "_t0", "tags": {"_t0": "x"}, "validated": True}),
    (["--vars", "x,y", "--coeff-vars", "x,y", "--f", "x y", "--gens", ""],
     {"member": True, "witness": "x*y", "tags": {}, "validated": True}),
    (["--vars", "x", "--coeff-vars", "x", "--invert", "x", "--f", "x", "--gens", ""],
     {"member": True, "witness": "x", "tags": {}, "validated": True}),
    (["--vars", "x", "--coeff-vars", "x", "--f", "1", "--gens", "1,1", "--budget-basis", "1"],
     {"member": True, "witness": "1", "tags": {"_t0": "1", "_t1": "1"}, "validated": True}),
    (["--vars", "x,y", "--coeff-vars", "x,y", "--f", "x y", "--gens", "x,y", "--budget-basis", "1"],
     {"member": True, "witness": "x*y", "tags": {"_t0": "x", "_t1": "y"}, "validated": True}),
    (["--vars", "x", "--coeff-vars", "x", "--f", "x^50", "--gens", "x"],
     {"member": True, "witness": "x^50", "tags": {"_t0": "x"}, "validated": True}),
], ids=["one-generator", "no-generator", "inverted", "basis-cap-constant", "basis-cap-product",
        "degree-cap-normal-form"])
def test_member_subalgebra_with_no_eliminated_variable(capsys, argv, witnesses):
    # every variable is in the coefficient block, so f is in R[gens], and f
    # is its own witness where a cap runs out
    code, out, err = run(capsys, "--json", "member", "subalgebra", *argv)
    assert (code, err) == (0, "")
    (rec,) = json_lines(out)
    assert rec["witnesses"] == witnesses


def test_member_subalgebra_nonmember(capsys):
    code, out, _ = run(capsys, "--json", "member", "subalgebra",
                       "--vars", "z", "--f", "z", "--gens", "z^2,z^3")
    assert code == 1


# ---------------------------------------------------------------------------
# lnd (derivation file based)

DERIVATION = "# constants: a\nD(x) = 0\nD(y) = a x\nD(z) = 1\n"


@pytest.fixture
def dfile(tmp_path):
    path = tmp_path / "D.txt"
    path.write_text(DERIVATION)
    return str(path)


def test_lnd_apply(capsys, dfile):
    code, out, _ = run(capsys, "--json", "lnd", "apply",
                       "--derivation", dfile, "--f", "y z")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["witnesses"]["image"] == "a*x*z + y"


def test_lnd_nilpotent(capsys, dfile):
    code, out, _ = run(capsys, "--json", "lnd", "nilpotent", "--derivation", dfile)
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["witnesses"]["indices"] == {"x": 1, "y": 2, "z": 2}


def test_lnd_nilpotent_undetermined_exit_2(capsys, tmp_path):
    path = tmp_path / "euler.txt"
    path.write_text("D(z) = z\n")
    code, out, _ = run(capsys, "--json", "lnd", "nilpotent",
                       "--derivation", str(path), "--budget-nilpotency", "5")
    assert code == 2
    (rec,) = json_lines(out)
    assert rec["verdict"] == "undetermined"


@pytest.fixture
def d66file(tmp_path):
    """D(y) = x^64, which dies after 66 applications: two more than the default cap."""
    path = tmp_path / "D66.txt"
    path.write_text("D(x) = 1\nD(y) = x^64\n")
    return str(path)


def test_lnd_nilpotency_cap(capsys, d66file):
    argv = ["--json", "lnd", "nilpotent", "--derivation", d66file]
    code, out, _ = run(capsys, *argv)
    assert (code, json_lines(out)[0]["witnesses"]["status"]) == (2, "undetermined")
    code, out, _ = run(capsys, *argv, "--budget-nilpotency", "70")
    assert code == 0
    assert json_lines(out)[0]["witnesses"]["indices"] == {"x": 2, "y": 66}


#: Each certifying lnd command on the index-66 file; what it reports once
#: --budget-nilpotency 70 certifies D: exit code, a witness path and its value.
RAISED_NILPOTENCY_CAP = [
    (["exp", "--t", "1"], 0, ("images", "x"), "x + 1"),
    (["dixmier", "--slice", "x", "--f", "y"], 0, ("projection",), "-1/65*x^65 + y"),
    # generation reads its witnesses off the certificate and passes at the
    # default degree cap, though y's witness has degree 65; with two fiber
    # variables no projected generator pair is certified, so the report
    # stays undetermined
    (["kernel", "--slice", "x"], 2, ("generation", "verdict"), "pass"),
]


@pytest.mark.parametrize("extra, code, path, value", RAISED_NILPOTENCY_CAP,
                         ids=["exp", "dixmier", "kernel"])
def test_lnd_nilpotency_cap_running_out_is_a_budget(capsys, d66file, extra, code, path, value):
    argv = ["--json", "lnd", extra[0], "--derivation", d66file, *extra[1:]]
    assert run(capsys, *argv) == (2, "", "venlab: resource budget exceeded: derivation "
                                         "is not certified locally nilpotent (cap 64)\n")
    got_code, out, _ = run(capsys, *argv, "--budget-nilpotency", "70")
    witness = json_lines(out)[0]["witnesses"]
    for key in path:
        witness = witness[key]
    assert (got_code, witness) == (code, value)


@pytest.mark.parametrize("argv, derivation, name", [
    (["lnd", "exp", "--t", "1"], "D(y) = 1\nD(_e_y) = 1\n", "_e_y"),
    (["lnd", "kernel", "--slice", "x"], "# constants: _t0\nD(x) = 1\n", "_t0"),
    (["member", "subalgebra", "--vars", "_t0,x", "--f", "x", "--gens", "x^2"], None, "_t0"),
    (["poly", "print", "--vars", "_a,x", "x"], None, "_a"),
], ids=["derivation-variable", "derivation-constant", "vars-tag", "vars-print"])
def test_reserved_names_are_usage_errors(capsys, tmp_path, argv, derivation, name):
    if derivation is not None:
        path = tmp_path / "D.txt"
        path.write_text(derivation)
        argv = argv[:2] + ["--derivation", str(path)] + argv[2:]
    assert run(capsys, "--json", *argv) == (
        3, "", "venlab: error: identifier %r uses the reserved prefix '_'\n" % name)


def test_lnd_dixmier(capsys, dfile):
    code, out, _ = run(capsys, "--json", "lnd", "dixmier",
                       "--derivation", dfile, "--slice", "z", "--f", "y")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["witnesses"]["projection"] == "-a*x*z + y"


def test_lnd_series_term_cap_is_a_budget(capsys, dfile, monkeypatch):
    # under D(z) = 1, z^k has k + 1 iterates; more than MAX_SERIES_TERMS exits 2
    argv = ["--json", "lnd", "dixmier", "--derivation", dfile, "--slice", "z", "--f"]
    line = "venlab: resource budget exceeded: series term cap exceeded (%d terms)\n"
    code, out, err = run(capsys, *argv, "z^10001")
    assert (code, out, err) == (2, "", line % 10_000)
    monkeypatch.setattr(derivation, "MAX_SERIES_TERMS", 5)
    code, out, _ = run(capsys, *argv, "z^4")
    assert code == 0
    assert json_lines(out)[0]["witnesses"]["projection"] == "0"
    assert run(capsys, *argv, "z^5") == (2, "", line % 5)


def test_lnd_kernel_full_pipeline(capsys, dfile):
    code, out, _ = run(capsys, "--json", "lnd", "kernel",
                       "--derivation", dfile, "--slice", "z")
    assert code == 0
    (rec,) = json_lines(out)
    payload = rec["witnesses"]
    assert payload["generation"]["verdict"] == "pass"
    assert payload["polynomial_ring_pair"]["verdict"] == "pass"
    assert payload["stably_free_shadow"]["verdict"] == "pass"


#: A fixed instance of the benchmark's template B: D = phi^-1 D0 phi with
#: D0 = (0, 2*b - x^2, 1) and phi adding x^2 - 2*a*x to y, -x*y + 2*b to z
#: and 2*a*y - 1 to x; s = phi^-1(z) is a slice.
TEMPLATE_B = """# constants: a b
D(x) = -8*a^3*y^2 + 8*a^2*x*y - 2*a*x^2 + 8*a^2*y + 4*a*b - 4*a*x - 2*a
D(y) = -4*a^2*y^2 + 4*a*x*y - x^2 + 4*a*y + 2*b - 2*x - 1
D(z) = -8*a^3*y^3 + 12*a^2*x*y^2 - 6*a*x^2*y + 12*a^2*y^2 + x^3 + 4*a*b*y - 12*a*x*y \
- 2*b*x + 3*x^2 - 6*a*y - 2*b + 3*x + 2
"""
TEMPLATE_B_SLICE = "-2*a*y^2 + x*y - 2*b + y + z"

#: (extra arguments, exit code, sha256 of stdout) per `lnd` subcommand.
LND_STDOUT_SHA256 = {
    "nilpotent": ([], 0, "8ac7e398699d56fde70f0714d0126640f744fcaa9bea45503e2102e497ca16eb"),
    "exp": (["--t", "1/2*a"], 0, "cb7234bfdb831f97f4b3d38ac0e5dc476de848ef139bd55a3a033c6129f80102"),
    "dixmier": (["--slice", TEMPLATE_B_SLICE, "--f", "x*z - 1/2*y^2 + 2/3*a*z"], 0,
                "bfedf57c149d80c37da8f84c2eb169856c50ab637390963eba2d55eb32dfaa8b"),
    "kernel": (["--slice", TEMPLATE_B_SLICE], 0,
               "3e7f271ff94542849a4bf935686531e5e1a7e2a5a7ec12d3eebe55682a60c0b7"),
}


@pytest.mark.parametrize("command", sorted(LND_STDOUT_SHA256))
def test_lnd_stdout_bytes_are_pinned(capsys, tmp_path, command):
    extra, code_expected, digest = LND_STDOUT_SHA256[command]
    path = tmp_path / "B.der"
    path.write_text(TEMPLATE_B)
    code, out, _ = run(capsys, "--json", "lnd", command, "--derivation", str(path), *extra)
    assert code == code_expected
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("venereau", "verify", "--family", "venereau", "--n", "1"),
    ("venereau", "verify", "--r", "x", "--s", "1", "--Q", "V + W"),
    ("lnd", "kernel", "--derivation", "B.der", "--slice", TEMPLATE_B_SLICE),
], ids=["v1", "generic", "lnd-kernel"])
def test_cli_hot_paths_read_no_fraction_view(capsys, monkeypatch, tmp_path, argv):
    """The commands the benchmark times run on the integer state alone: no
    `Polynomial.terms` view is read, so none is built."""
    (tmp_path / "B.der").write_text(TEMPLATE_B)
    monkeypatch.chdir(tmp_path)
    reads = []
    view = Polynomial.terms
    monkeypatch.setattr(Polynomial, "terms", property(lambda f: reads.append(f) or view.fget(f)))
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0 and out
    assert reads == []


def test_lnd_bad_slice_is_usage_error(capsys, dfile):
    code, _, err = run(capsys, "lnd", "dixmier",
                       "--derivation", dfile, "--slice", "z^2", "--f", "y")
    assert code == 3
    assert "error" in err


# ---------------------------------------------------------------------------
# venereau

def test_venereau_family_build(capsys):
    code, out, _ = run(capsys, "--json", "venereau", "build",
                       "--family", "venereau", "--n", "1")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["check"] == "venereau.build"
    assert rec["witnesses"]["label"] == "v1"
    assert rec["witnesses"]["lambda"] == "z^2"


def test_venereau_verify_all_pass(capsys):
    code, out, _ = run(capsys, "--json", "venereau", "verify",
                       "--family", "venereau", "--n", "1",
                       "--checks", "residual,jacobian")
    assert code == 0
    recs = json_lines(out)
    assert [r["check"] for r in recs] == ["residual", "jacobian"]
    assert all(r["verdict"] == "pass" for r in recs)


def test_venereau_verify_custom_spec(capsys):
    code, out, _ = run(capsys, "--json", "venereau", "verify",
                       "--r", "x", "--s", "1", "--Q", "V + W",
                       "--checks", "residual,localized,jacobian")
    assert code == 0
    recs = json_lines(out)
    assert all(r["verdict"] == "pass" for r in recs)


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_venereau_empty_check_list_is_usage_error(capsys, checks):
    code, out, err = run(capsys, "venereau", "verify", "--family", "venereau",
                         "--n", "1", "--checks", checks)
    assert code == 3
    assert out == ""
    assert "no check" in err


#: Spec options that the chosen family does not take, and checks named twice.
SPEC_USAGE_ERRORS = [
    (["build", "--family", "venereau", "--r", "x"], "the venereau family does not take r"),
    (["build", "--family", "venereau", "--s", "1"], "the venereau family does not take s"),
    (["verify", "--family", "venereau", "--Q", "W"], "the venereau family does not take Q"),
    (["build", "--family", "venereau", "--Q2", "W"], "the venereau family does not take Q2"),
    (["build", "--family", "bhatwadekar-dutta", "--r", "x"],
     "the bhatwadekar-dutta family does not take r"),
    (["verify", "--family", "bhatwadekar-dutta", "--s", "1"],
     "the bhatwadekar-dutta family does not take s"),
    (["build", "--family", "bhatwadekar-dutta", "--Q", "W"],
     "the bhatwadekar-dutta family does not take Q"),
    (["build", "--family", "bhatwadekar-dutta", "--Q2", "W"],
     "the bhatwadekar-dutta family does not take Q2"),
    (["verify", "--family", "daigle-freudenburg", "--Q", "W", "--checks", "residual"],
     "the daigle-freudenburg family does not take Q"),
    (["build", "--family", "daigle-freudenburg", "--r", "x", "--Q2", "W"],
     "the daigle-freudenburg family does not take Q2"),
    (["build", "--family", "lewis", "--Q", "V", "--r", "x"], "the lewis family does not take r"),
    (["verify", "--family", "lewis", "--Q", "V", "--s", "1"], "the lewis family does not take s"),
    (["build", "--r", "x", "--Q", "V", "--Q2", "W"], "--Q2 is taken by --family lewis only"),
    (["build", "--family", "lewis", "--Q", "V", "--n", "7"], "the lewis family does not take n"),
    (["build", "--family", "lewis", "--Q", "V", "--n", "1"], "the lewis family does not take n"),
    (["verify", "--family", "lewis", "--Q", "V", "--n", "2", "--checks", "residual"],
     "the lewis family does not take n"),
    (["build", "--r", "x", "--Q", "V", "--n", "9"], "--n is taken by a named --family only"),
    (["build", "--Q", "V", "--n", "1"], "--n is taken by a named --family only"),
    (["verify", "--Q", "W", "--n", "2", "--checks", "residual"],
     "--n is taken by a named --family only"),
    (["verify", "--family", "venereau", "--checks", "residual,residual"],
     "check 'residual' named twice in --checks"),
    (["verify", "--family", "venereau", "--checks", "jacobian, residual ,jacobian"],
     "check 'jacobian' named twice in --checks"),
]


@pytest.mark.parametrize("argv, line", SPEC_USAGE_ERRORS,
                         ids=[" ".join(argv[1:]) for argv, _ in SPEC_USAGE_ERRORS])
def test_venereau_options_the_spec_does_not_take_are_usage_errors(capsys, argv, line):
    code, out, err = run(capsys, "--json", "venereau", *argv)
    assert (code, out, err) == (3, "", "venlab: error: %s\n" % line)


@pytest.mark.parametrize("argv", [
    ["build", "--r", "x", "--Q", ""],
    ["build", "--r", "", "--Q", "V"],
    ["build", "--r", "x", "--s", "", "--Q", "V"],
    ["verify", "--family", "daigle-freudenburg", "--r", "", "--s", "1"],
    ["build", "--family", "daigle-freudenburg", "--r", "1", "--s", ""],
], ids=["custom-Q", "custom-r", "custom-s", "df-r", "df-s"])
def test_empty_spec_polynomial_is_a_parse_error(capsys, argv):
    line = "venlab: error: expected a coefficient, variable or '(' (line 1, column 1)\n"
    assert run(capsys, "venereau", *argv) == (3, "", line)


#: Byte-pinned reports of the budget-starved v1 verify (--budget-degree 4).
STARVED_V1_JSON = (
    '{"check": "residual", "schema": 1, "stats": {}, "verdict": "pass", '
    '"witnesses": {"quotient_of_h_minus_y_by_x": "y*z^2 + y^2*u + x*z"}}\n'
    '{"check": "localized", "schema": 1, "stats": {"detail": "input generator '
    'exceeds degree cap", "y": {}}, "verdict": "undetermined", "witnesses": {}}\n'
    '{"check": "jacobian", "schema": 1, "stats": {}, "verdict": "pass", '
    '"witnesses": {"c": "1", "determinant": "x^3", "m": 3}}\n'
    '{"check": "fibers", "schema": 1, "stats": {"samples": 8}, "verdict": "undetermined", '
    '"witnesses": {'
    '"(-1,0)": {"detail": "localized identity undetermined", "regime": "localized", '
    '"verdict": "undetermined"}, '
    '"(-1,1)": {"detail": "localized identity undetermined", "regime": "localized", '
    '"verdict": "undetermined"}, '
    '"(0,0)": {"fiber_ring": "Q[z,u] after eliminating y", "regime": "residual", '
    '"verdict": "pass"}, '
    '"(0,1)": {"fiber_ring": "Q[z,u] after eliminating y", "regime": "residual", '
    '"verdict": "pass"}, '
    '"(1,0)": {"detail": "localized identity undetermined", "regime": "localized", '
    '"verdict": "undetermined"}, '
    '"(1,1)": {"detail": "localized identity undetermined", "regime": "localized", '
    '"verdict": "undetermined"}, '
    '"(2,0)": {"detail": "localized identity undetermined", "regime": "localized", '
    '"verdict": "undetermined"}, '
    '"(2,1)": {"detail": "localized identity undetermined", "regime": "localized", '
    '"verdict": "undetermined"}}}\n'
)

STARVED_V1_TEXT = ("residual: pass  y*z^2 + y^2*u + x*z\n"
                   "localized: undetermined\n"
                   "jacobian: pass\n"
                   "fibers: undetermined\n")


@pytest.mark.parametrize("mode,expected", [("--json", STARVED_V1_JSON),
                                           (None, STARVED_V1_TEXT)], ids=["json", "text"])
def test_venereau_verify_budget_starved_bytes(capsys, mode, expected):
    argv = ["venereau", "verify", "--family", "venereau", "--n", "1",
            "--budget-degree", "4"]
    code, out, _ = run(capsys, *([mode] if mode else []), *argv)
    assert code == 2
    assert out == expected


#: Localized stats of v1 when its basis is taken in closed form.
CLOSED_FORM_V1 = dict.fromkeys("uyz", {"basis": "closed-form", "basis_size": 4})


@pytest.mark.parametrize("budget, exit_code, stats", [
    (["--budget-degree", "5"], 0, CLOSED_FORM_V1),
    (["--budget-basis", "4"], 0, CLOSED_FORM_V1),
    (["--budget-basis", "12"], 0, CLOSED_FORM_V1),
    (["--budget-basis", "3"], 2, {"detail": "basis size cap exceeded", "y": {}}),
], ids=["degree-5", "basis-4", "basis-12", "basis-3"])
def test_venereau_verify_closed_form_keeps_only_the_input_caps(capsys, budget, exit_code, stats):
    # v1's relations fit a degree cap of 5 and its basis has 4 elements, so
    # the caps that only Buchberger's own steps ran out of no longer apply
    code, out, err = run(capsys, "--json", "venereau", "verify", "--family", "venereau",
                         "--n", "1", *budget)
    assert (code, err) == (exit_code, "")
    assert json_lines(out)[1]["stats"] == stats


def test_venereau_missing_q_usage_error(capsys):
    code, _, err = run(capsys, "venereau", "build")
    assert code == 3
    assert "either --family or --Q" in err


# ---------------------------------------------------------------------------
# exit codes, determinism, text mode

def test_unknown_subcommand_exit_3(capsys):
    assert run(capsys, "frobnicate")[0] == 3


def test_parse_error_exit_3(capsys):
    code, _, err = run(capsys, "poly", "print", "--vars", "x", "x + + 1")
    assert code == 3
    assert "error" in err


def test_reports_are_byte_identical(capsys):
    argv = ["--json", "venereau", "verify", "--family", "venereau",
            "--n", "1", "--checks", "residual,localized,jacobian"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_text_mode_one_line_per_check(capsys):
    code, out, _ = run(capsys, "venereau", "verify",
                       "--family", "venereau", "--n", "1",
                       "--checks", "residual,jacobian")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("residual: pass")
    assert lines[1].startswith("jacobian: pass")


# ---------------------------------------------------------------------------
# budget options

BUDGET = ["--budget-degree", "--budget-basis"]
NILPOTENCY = ["--budget-nilpotency"]

#: One call per subcommand taking budget options, and those options; <D>
#: is the derivation file.
BUDGET_COMMANDS = {
    "groebner basis": (["groebner", "basis", "--vars", "x,y", "x y - 1"], BUDGET),
    "member ideal": (["member", "ideal", "--vars", "x", "--f", "x", "--gens", "x"], BUDGET),
    "member subalgebra": (["member", "subalgebra", "--vars", "z", "--f", "z^5",
                           "--gens", "z^2,z^3"], BUDGET),
    "lnd nilpotent": (["lnd", "nilpotent", "--derivation", "<D>"], NILPOTENCY),
    "lnd exp": (["lnd", "exp", "--derivation", "<D>", "--t", "a"], NILPOTENCY),
    "lnd dixmier": (["lnd", "dixmier", "--derivation", "<D>", "--slice", "z", "--f", "y"],
                    NILPOTENCY),
    "lnd kernel": (["lnd", "kernel", "--derivation", "<D>", "--slice", "z"],
                   [*BUDGET, *NILPOTENCY]),
    "venereau verify": (["venereau", "verify", "--family", "venereau", "--n", "1"], BUDGET),
}


def _subcommands_with_budget(parser, prefix=()):
    options = [s for action in parser._actions for s in action.option_strings
               if s.startswith("--budget-")]
    if options:
        yield " ".join(prefix), sorted(options)
    for action in parser._actions:
        if action.choices and hasattr(action.choices, "items"):
            for name, sub in action.choices.items():
                yield from _subcommands_with_budget(sub, prefix + (name,))


def test_budget_commands_cover_every_subcommand():
    assert dict(_subcommands_with_budget(build_parser())) == {
        command: sorted(options) for command, (_, options) in BUDGET_COMMANDS.items()}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, (_, options) in sorted(BUDGET_COMMANDS.items())
    for option in options])
def test_zero_budget_is_usage_error(capsys, dfile, command, option):
    argv = [dfile if a == "<D>" else a for a in BUDGET_COMMANDS[command][0]]
    code, out, err = run(capsys, *argv, option, "0")
    assert code == 3
    assert out == ""
    assert "budget caps must be positive" in err


# ---------------------------------------------------------------------------
# option surface: each option is declared where it changes the result

VENEREAU_SPEC = ["--family", "--n", "--r", "--s", "--Q", "--Q2"]

#: Option strings of every command, help aside.
OPTIONS = {
    "": ["--json"],
    "poly print": ["--vars", "--order"],
    "poly diff": ["--vars", "--wrt"],
    "poly eval": ["--vars", "--at"],
    "poly compose": ["--vars", "--map"],
    "groebner basis": ["--vars", "--order", *BUDGET, "--emit-basis"],
    "member ideal": ["--vars", "--order", *BUDGET, "--f", "--gens"],
    "member subalgebra": ["--vars", "--coeff-vars", *BUDGET, "--f", "--gens", "--invert"],
    "lnd apply": ["--derivation", "--f"],
    "lnd nilpotent": ["--derivation", *NILPOTENCY],
    "lnd exp": ["--derivation", "--t", *NILPOTENCY],
    "lnd dixmier": ["--derivation", "--slice", "--f", *NILPOTENCY],
    "lnd kernel": ["--derivation", "--slice", *BUDGET, *NILPOTENCY],
    "venereau build": VENEREAU_SPEC,
    "venereau verify": [*VENEREAU_SPEC, "--checks", *BUDGET],
}


def _option_strings(parser, prefix=()):
    options = [s for action in parser._actions if not isinstance(action, argparse._HelpAction)
               for s in action.option_strings]
    if options:
        yield " ".join(prefix), sorted(options)
    for action in parser._actions:
        if action.choices and hasattr(action.choices, "items"):
            for name, sub in action.choices.items():
                yield from _option_strings(sub, prefix + (name,))


def test_every_option_is_declared_where_it_is_read():
    surface = dict(_option_strings(build_parser()))
    assert surface == {command: sorted(options) for command, options in OPTIONS.items()}
    assert sum(map(len, surface.values())) == 58


@pytest.mark.parametrize("argv", [
    ["poly", "print", "--vars", "x", "--coeff-vars", "x", "x"],
    ["poly", "diff", "--vars", "x", "--coeff-vars", "x", "--wrt", "x", "x"],
    ["poly", "eval", "--vars", "x", "--coeff-vars", "x", "--at", "x=1", "x"],
    ["poly", "compose", "--vars", "x", "--coeff-vars", "x", "--map", "x=1", "x"],
    ["groebner", "basis", "--vars", "x", "--coeff-vars", "x", "x"],
    ["member", "ideal", "--vars", "x", "--coeff-vars", "x", "--f", "x", "--gens", "x"],
    ["member", "subalgebra", "--vars", "x", "--order", "lex", "--f", "x", "--gens", "x"],
    ["lnd", "nilpotent", "--derivation", "D.txt", "--cap", "5"],
    ["venereau", "family", "--family", "venereau", "--n", "1"],
], ids=["poly-print", "poly-diff", "poly-eval", "poly-compose", "groebner-basis",
        "member-ideal", "member-subalgebra-order", "lnd-nilpotent-cap", "venereau-family"])
def test_removed_options_are_usage_errors(argv):
    proc = _run_module("venlab.cli", *argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
