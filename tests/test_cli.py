import json
import pathlib
import time

import jsonschema
import pytest

from equibord.cli import main
from equibord.flags import MAX_FLAG_LENGTH

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMAS = ROOT / "schemas"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc == 0, err
    return json.loads(out)


def validate(doc):
    name = doc["schema"].split("/")[1]
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.validate(doc, schema)


def test_theta_table_matches_golden(capsys):
    rc, out, err = run(capsys, "theta-table", "--group", "Z2", "--flag", "(0),(1),(0),(1)")
    assert rc == 0
    assert out == (GOLDEN / "theta_table_z2.txt").read_text()


def test_theta_table_json_schema(capsys):
    doc = run_json(capsys, "theta-table", "--group", "Z2", "--flag", "(0),(1),(0),(1)")
    validate(doc)
    rows = {r["alpha"]: r["values"] for r in doc["augmentations"]}
    assert rows["(0)"][0] == [{"coeff": 1, "exponents": {}}]
    assert rows["(1)"][1] == [{"coeff": 1, "exponents": {"(1)": 1}}]
    assert rows["(1)"][2] == []
    coaugs = {c["alpha"]: c["class"] for c in doc["coaugmentations"]}
    assert coaugs["(0)"] == [{"index": 0, "coeff": [{"coeff": 1, "exponents": {}}]}]


def test_thetas_text_and_json(capsys):
    rc, out, _ = run(capsys, "thetas", "--group", "Z2", "--truncate", "4")
    assert rc == 0
    assert "theta[(0)] = beta[0]" in out
    assert "theta[(1)] = beta[0] + e[(1)] * beta[1]" in out
    doc = run_json(capsys, "thetas", "--group", "Z2xZ2", "--truncate", "4")
    validate(doc)
    assert len(doc["coaugmentations"]) == 4


def test_truncate_uses_cyclic_flag(capsys):
    rc, out, _ = run(capsys, "thetas", "--group", "Z4", "--truncate", "6")
    assert rc == 0
    assert "flag: (0),(1),(2),(3),(0),(1)" in out


def test_flag_and_truncate_conflict(capsys):
    rc, _, err = run(capsys, "thetas", "--group", "Z2", "--flag", "(0)", "--truncate", "2")
    assert rc == 2
    assert "not both" in err


def test_empty_flag_is_not_the_default_flag(capsys):
    rc, out, err = run(capsys, "thetas", "--group", "Z2", "--flag", "")
    assert (rc, out, err) == (2, "", "error: empty flag\n")
    rc, out, err = run(capsys, "thetas", "--group", "Z2", "--flag", "", "--truncate", "3")
    assert (rc, out, err) == (2, "", "error: pass either --flag or --truncate, not both\n")


OVERLONG_FLAGS = [
    (("eval", "--group", "Z2", "--truncate", "99999999", "--expr", "1"),
     "flag length 99999999 is over the limit of 10000"),
    (("thetas", "--group", "Z100000000"),
     "flag length 100000000 (the group order) is over the limit of 10000"),
    (("thetas", "--group", "Z2", "--truncate", str(MAX_FLAG_LENGTH + 1)),
     "flag length 10001 is over the limit of 10000"),
    (("thetas", "--group", "Z2", "--flag", ",".join(["(1)"] * (MAX_FLAG_LENGTH + 1))),
     "flag length 10001 is over the limit of 10000"),
]


@pytest.mark.parametrize("argv, message", OVERLONG_FLAGS,
                         ids=["truncate", "group-order", "truncate-limit", "flag-entries"])
def test_overlong_flags_exit_3_before_they_are_built(capsys, argv, message):
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 0.05
    assert (rc, out, err) == (3, "", f"error: {message}\n")


def test_a_flag_at_the_length_limit_is_built(capsys):
    rc, out, _ = run(capsys, "thetas", "--group", "1", "--truncate", str(MAX_FLAG_LENGTH))
    assert rc == 0 and f"flag: {','.join(['()'] * MAX_FLAG_LENGTH)}" in out


def test_present_text_and_json(capsys):
    rc, out, _ = run(capsys, "present", "--theory", "mU", "--group", "1", "--truncate", "4")
    assert rc == 0
    for line in ("c[1] (degree 2)", "c[2] (degree 4)", "c[3] (degree 6)", "c[4] (degree 8)"):
        assert line in out
    assert "(none)" in out
    for theory in ("MUP", "mUP", "MU", "mU"):
        doc = run_json(capsys, "present", "--theory", theory, "--group", "Z2", "--truncate", "4")
        validate(doc)
    doc = run_json(capsys, "present", "--theory", "MU", "--group", "Z2", "--truncate", "2")
    assert doc["inverted"] == [
        {"symbol": "btheta[(1)]", "degree": 0, "expansion": "e[(1)] * b[1] + 1"}
    ]


def test_present_incomplete_flag_is_precondition_error(capsys):
    rc, _, err = run(capsys, "present", "--theory", "MUP", "--group", "Z4", "--truncate", "2")
    assert rc == 3
    assert "missing" in err


def test_rewrite_pinned_example(capsys):
    rc, out, _ = run(
        capsys,
        "rewrite", "--theory", "MU", "--group", "Z2",
        "--flag", "(0),(1)",
        "--expr", "beta[1]*beta[2]/theta[(1)]^2",
    )
    assert rc == 0
    assert out.strip() == "b[1] * b[2] / btheta[(1)]^2"


def test_rewrite_json_schema(capsys):
    doc = run_json(
        capsys,
        "rewrite", "--theory", "MU", "--group", "Z2",
        "--flag", "(0),(1)",
        "--expr", "beta[1]*beta[2]/theta[(1)]^2",
    )
    validate(doc)
    assert doc["result"]["family"] == "b"
    assert doc["result"]["denominator"] == [{"alpha": "(1)", "power": 2}]


def test_rewrite_specialized_json_schema(capsys, tmp_path):
    sp = tmp_path / "sp.txt"
    sp.write_text("e[(1)] = 0\n")
    doc = run_json(
        capsys,
        "rewrite", "--theory", "MU", "--group", "Z2",
        "--flag", "(0),(1)", "--specialize", str(sp),
        "--expr", "(beta[1]*beta[2] + e[(1)]*beta[0]*beta[1])/theta[(1)]^2",
    )
    validate(doc)
    assert doc["result"]["text"] == "(b[1] * b[2] + e[(1)] * b[1]) / btheta[(1)]^2"
    assert doc["specialized"] == {
        "text": "b[1] * b[2] / btheta[(1)]^2",
        "family": "b",
        "numerator": [{"coeff": 1, "euler": {}, "generators": {"1": 1, "2": 1}}],
        "denominator": [{"alpha": "(1)", "power": 2}],
    }


def test_rewrite_of_zero(capsys):
    # the zero fraction rewrites to the zero expression of the shift's family
    for theory, shift, family in (("MU", "-2", "b"), ("MU", "2", "c"), ("mU", "2", "c")):
        argv = ("rewrite", "--theory", theory, "--group", "Z2", "--truncate", "2",
                "--shift", shift, "--expr", "0")
        assert run(capsys, *argv) == (0, "0\n", "")
        doc = run_json(capsys, *argv)
        validate(doc)
        assert doc["result"] == {"text": "0", "family": family, "numerator": [], "denominator": []}


def test_rewrite_mu_connective_route(capsys):
    rc, out, _ = run(
        capsys,
        "rewrite", "--theory", "mU", "--group", "Z2", "--truncate", "4",
        "--expr", "beta[0]*beta[2]/theta[(0)]^2",
    )
    assert rc == 0
    assert out.strip() == "c[2]"


def test_rewrite_rejects_nonzero_dimension(capsys):
    rc, _, err = run(
        capsys,
        "rewrite", "--theory", "MU", "--group", "Z2", "--truncate", "2",
        "--expr", "beta[1]/theta[(1)]^2",
    )
    assert rc == 3
    assert "dimension" in err


def test_eval_value_and_comparison(capsys):
    doc = run_json(
        capsys, "eval", "--group", "Z2", "--truncate", "4",
        "--expr", "beta[1]*theta[(1)]/theta[(1)]^2",
    )
    validate(doc)
    assert doc["kind"] == "value"
    assert doc["value"]["text"] == "beta[1] / theta[(1)]"
    doc = run_json(
        capsys, "eval", "--group", "Z2", "--truncate", "4",
        "--expr", "theta[(1)] == beta[0] + e[(1)]*beta[1]",
    )
    validate(doc)
    assert doc["kind"] == "comparison"
    assert doc["equal"] is True
    rc, out, _ = run(
        capsys, "eval", "--group", "Z2", "--truncate", "4",
        "--expr", "beta[1] == beta[2]",
    )
    assert rc == 0  # a decided comparison is a success either way
    assert "verdict: not equal" in out


def test_eval_generator_side(capsys):
    doc = run_json(
        capsys, "eval", "--group", "Z2", "--truncate", "4", "--theory", "MU",
        "--expr", "btheta[(1)] == 1 + e[(1)]*b[1]",
    )
    validate(doc)
    assert doc["equal"] is True
    doc = run_json(
        capsys, "eval", "--group", "Z2", "--truncate", "4", "--theory", "mUP",
        "--expr", "c[2]",
    )
    validate(doc)
    assert doc["mode"] == "mUP"
    assert doc["value"]["kind"] == "generators"


def test_eval_exit_codes(capsys):
    rc, _, err = run(capsys, "eval", "--group", "Z2", "--truncate", "2", "--expr", "beta[0]/beta[1]")
    assert rc == 2
    assert "inverted classes" in err
    rc, _, err = run(capsys, "eval", "--group", "Z2", "--truncate", "1", "--expr", "theta[(1)]")
    assert rc == 3
    assert "(1)" in err
    rc, _, err = run(capsys, "eval", "--group", "Zx", "--truncate", "1", "--expr", "1")
    assert rc == 2
    nested = "(" * 1000 + "beta[0]" + ")" * 1000
    rc, _, err = run(capsys, "eval", "--group", "Z2", "--truncate", "4", "--expr", nested)
    assert rc == 2
    assert "nest" in err


@pytest.mark.parametrize("argv, expr", [
    (("eval", "--group", "Z2", "--truncate", "2"), "-beta[1]"),
    (("eval", "--group", "Z2", "--truncate", "2", "--format", "json"), "-beta[1] == -1 * beta[1]"),
    (("rewrite", "--theory", "MU", "--group", "Z2", "--flag", "(0),(1)"),
     "-beta[1]*beta[2]/theta[(1)]^2"),
    (("rewrite", "--theory", "MU", "--group", "Z2", "--flag", "(0),(1)", "--format", "json"),
     "-beta[1]*beta[2]/theta[(1)]^2"),
])
def test_an_expression_that_begins_with_a_minus_reads_the_same_either_way(capsys, argv, expr):
    glued = run(capsys, *argv, f"--expr={expr}")
    assert glued[0] == 0 and "-" in glued[1] and glued[2] == ""
    assert run(capsys, *argv, "--expr", expr) == glued
    # the value may come first, too
    assert run(capsys, argv[0], "--expr", expr, *argv[1:]) == glued


@pytest.mark.parametrize("option", ["--e", "--ex", "--exp"])
def test_an_abbreviated_expr_takes_a_value_that_begins_with_a_minus(capsys, option):
    argv = ("eval", "--group", "Z2", "--truncate", "2")
    got = run(capsys, *argv, option, "-beta[1]")
    assert got == (0, "kind: polynomial\nvalue: -beta[1]\n", "")
    assert run(capsys, *argv, "--expr=-beta[1]") == got
    assert run(capsys, *argv, option, "beta[1]")[1] == "kind: polynomial\nvalue: beta[1]\n"


def test_a_bare_trailing_expr_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--group", "Z2", "--truncate", "2", "--expr"])
    assert exc.value.code == 2
    assert "argument --expr: expected one argument" in capsys.readouterr().err


def test_end_of_expression_is_named(capsys):
    for expr, at in (("beta[1] +", 9), ("", 0)):
        rc, out, err = run(capsys, "eval", "--group", "Z2", "--truncate", "2", "--expr", expr)
        assert (rc, out) == (2, "")
        assert err == f"error: unexpected end of expression at position {at} in {expr!r}\n"
    # other unexpected tokens keep their repr, at the position of the token
    # itself, not of the whitespace before it
    for expr, token, at in (("beta[1])", "')'", 7), ("1 2", "2", 2), ("1 beta[1]", "('beta', '1')", 2)):
        rc, _, err = run(capsys, "eval", "--group", "Z2", "--truncate", "2", "--expr", expr)
        assert (rc, err) == (2, f"error: unexpected {token} at position {at} in {expr!r}\n")


# (command, theory, --shift) -> exit code on --group Z2 --truncate 2; the
# connective theories take shift +2 only, and every command refuses -2 alike
THEORY_SHIFT_EXITS = {
    (cmd, theory, shift): 2 if theory in ("mUP", "mU") and shift == "-2" else 0
    for cmd, theories in (("present", ("MUP", "mUP", "MU", "mU")),
                          ("eval", ("MUP", "mUP", "MU", "mU")),
                          ("rewrite", ("MU", "mU")))
    for theory in theories
    for shift in (None, "-2", "2")
}
THEORY_SHIFT_EXPRS = {"present": (), "eval": ("--expr", "beta[1]"),
                      "rewrite": ("--expr", "beta[1]/theta[(0)]")}


@pytest.mark.parametrize("cmd, theory, shift", list(THEORY_SHIFT_EXITS))
def test_theory_shift_rules(capsys, cmd, theory, shift):
    argv = [cmd, "--group", "Z2", "--truncate", "2", "--theory", theory, *THEORY_SHIFT_EXPRS[cmd]]
    rc, out, err = run(capsys, *argv, *(("--shift", shift) if shift else ()))
    assert rc == THEORY_SHIFT_EXITS[cmd, theory, shift], err
    if rc:
        assert (out, err) == ("", f"error: theory {theory} fixes shift +2\n")
    else:
        assert out and not err


def test_connective_generator_division_is_refused(capsys):
    for theory in ("mU", "mUP"):
        for expr in ("c[1]/ctheta[(1)]", "c[1]/ctheta[(1)] == c[1]"):
            rc, out, err = run(
                capsys, "eval", "--group", "Z2", "--truncate", "2", "--theory", theory,
                "--expr", expr,
            )
            assert rc == 3, (theory, expr)
            assert out == ""
            assert "mUP mode only inverts the trivial coaugmentation class" in err
    rc, out, _ = run(
        capsys, "eval", "--group", "Z2", "--truncate", "2", "--theory", "mU",
        "--expr", "c[1]/ctheta[(0)]",
    )
    assert rc == 0
    assert "value: c[1]" in out


def test_specialize_applies_to_output_only(capsys, tmp_path):
    sp = tmp_path / "sp.txt"
    sp.write_text("# kill the sign character\ne[(1)] = 0\n")
    rc, out, _ = run(
        capsys, "theta-table", "--group", "Z2", "--flag", "(0),(1),(0),(1)",
        "--specialize", str(sp),
    )
    assert rc == 0
    assert "theta[(1)] = beta[0]" in out
    doc = run_json(
        capsys, "eval", "--group", "Z2", "--truncate", "4",
        "--expr", "theta[(1)]", "--specialize", str(sp),
    )
    validate(doc)
    assert doc["value"]["text"] == "beta[0] + e[(1)] * beta[1]"
    assert doc["value"]["specialized_text"] == "beta[0]"


def test_specialize_accepts_polynomial_values(capsys, tmp_path):
    sp = tmp_path / "sp.txt"
    sp.write_text("e[(1)] = e[(3)]^2 + 2\n")
    doc = run_json(
        capsys, "eval", "--group", "Z4", "--truncate", "4",
        "--expr", "e[(1)]", "--specialize", str(sp),
    )
    assert doc["value"]["specialized_text"] == "e[(3)]^2 + 2"


def test_specialize_takes_the_last_value_of_a_repeated_symbol(capsys, tmp_path):
    # unlike a repeated key of verify --config, which exits 2: assignment
    # files in use assign a symbol twice, the benchmark's "mixed" file on Z2
    # among them, and expect exit 0
    sp = tmp_path / "sp.txt"
    for text, theta in (
        ("e[(1)] = e[(1)]^2 + 2\ne[(1)] = 0\n", "beta[0]"),
        ("e[(1)] = 0\ne[(1)] = e[(1)]^2 + 2\n", "beta[0] + e[(1)]^2 * beta[1] + 2 * beta[1]"),
    ):
        sp.write_text(text)
        rc, out, err = run(capsys, "thetas", "--group", "Z2", "--truncate", "2", "--specialize", str(sp))
        assert (rc, err, out.splitlines()[-1]) == (0, "", f"theta[(1)] = {theta}")


def test_specialize_diagnostics(capsys, tmp_path):
    sp = tmp_path / "sp.txt"
    sp.write_text("e[(0)] = 1\n")
    rc, _, err = run(
        capsys, "thetas", "--group", "Z2", "--truncate", "2", "--specialize", str(sp)
    )
    assert rc == 2
    assert "trivial" in err
    sp.write_text("e[(1)] beta\n")
    rc, _, err = run(
        capsys, "thetas", "--group", "Z2", "--truncate", "2", "--specialize", str(sp)
    )
    assert rc == 2
    sp.write_text("e[(1)] = beta[0]\n")
    rc, _, err = run(
        capsys, "thetas", "--group", "Z2", "--truncate", "2", "--specialize", str(sp)
    )
    assert rc == 2
    assert "coefficient" in err
    rc, _, err = run(
        capsys, "thetas", "--group", "Z2", "--truncate", "2",
        "--specialize", str(tmp_path / "missing.txt"),
    )
    assert rc == 2


# (argv, assignment file text or None, message) of requests that exit 2 with
# one error line; {sp} stands for the assignment file's path
REQUEST_ERRORS = [
    (("thetas", "--group", "Z2", "--truncate", "0"), None, "--truncate must be at least 1"),
    (("thetas", "--group", "Z2", "--truncate", "2", "--specialize", "{sp}"), "beta[1] = 0\n",
     "{sp}:1: left side must be an Euler symbol e[(...)]"),
    (("rewrite", "--theory", "MU", "--group", "Z2", "--truncate", "2", "--expr", "beta[0] == 1"),
     None, "rewrite expects a fraction, not a comparison"),
]


@pytest.mark.parametrize("argv, text, message", REQUEST_ERRORS,
                         ids=["truncate-0", "assignment-lhs", "rewrite-comparison"])
def test_request_errors_exit_2(capsys, tmp_path, argv, text, message):
    sp = tmp_path / "sp.txt"
    if text is not None:
        sp.write_text(text)
    rc, out, err = run(capsys, *(a.replace("{sp}", str(sp)) for a in argv))
    assert (rc, out, err) == (2, "", f"error: {message.replace('{sp}', str(sp))}\n")


def test_unreadable_input_files_exit_2(capsys, tmp_path):
    bad_utf8 = tmp_path / "latin1.txt"
    bad_utf8.write_bytes(b"\xffgroups = Z2\n")
    cases = [
        (("verify", "--config", str(tmp_path / "missing.cfg")), "config"),
        (("verify", "--config", str(tmp_path)), "config"),
        (("verify", "--config", str(bad_utf8)), "config"),
        (("verify", "--config", ""), "config"),
        (("thetas", "--group", "Z2", "--truncate", "2", "--specialize", str(bad_utf8)), "assignment"),
        (("thetas", "--group", "Z2", "--truncate", "2", "--specialize", ""), "assignment"),
    ]
    for argv, what in cases:
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith(f"error: cannot read {what} file: ")
        assert err.count("\n") == 1 and err.endswith("\n")


# integers in specs and expressions are decimal digits: a superscript digit
# or a doubled sign is a parse error, never a traceback
NON_DECIMAL_INPUTS = [
    ("thetas", "--group", "Z\u00b2"),
    ("thetas", "--group", "Z2", "--flag", "(0),(\u00b2)"),
    ("thetas", "--group", "Z2", "--flag", "(0),(--1)"),
    ("eval", "--group", "Z2", "--truncate", "2", "--expr", "beta[\u00b2]"),
    ("verify", "--config", "groups = Z\u00b2\n"),
]


@pytest.mark.parametrize("argv", NON_DECIMAL_INPUTS,
                         ids=["group", "residue", "double-sign", "index", "config-group"])
def test_non_decimal_integers_exit_2(capsys, tmp_path, argv):
    if argv[0] == "verify":  # the last item is the config file's text
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(argv[2], encoding="utf-8")
        argv = (*argv[:2], str(cfg))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_verify_text_and_json(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("groups = Z2, Z3\nmax_flag_len = 3\nrandom_cases = 4\nmax_dimension = 2\n")
    rc, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert rc == 0
    assert out.strip().endswith("suite: pass")
    doc = run_json(capsys, "verify", "--config", str(cfg))
    validate(doc)
    assert doc["status"] == "pass"
    assert {c["check"] for c in doc["checks"]} == {
        "check_coaug_duality",
        "check_mutation_sensitivity",
        "check_periodicity",
        "check_retraction",
        "check_rewrite_roundtrip",
        "check_specialization_collapse",
    }


def test_verify_seed_override(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("groups = Z2\nmax_flag_len = 3\nrandom_cases = 4\nmax_dimension = 2\n")
    doc = run_json(capsys, "verify", "--config", str(cfg), "--seed", "777")
    assert doc["config"]["rng_seed"] == 777


def test_outputs_are_deterministic(capsys):
    argv = ["present", "--theory", "MUP", "--group", "Z2xZ2", "--truncate", "5"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv = ["theta-table", "--group", "Z2xZ3", "--truncate", "6", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_man_page_covers_grammars(capsys):
    rc, out, _ = run(capsys, "man")
    assert rc == 0
    for needle in (
        "EQUIBORD(1)",
        "theta-table",
        "rewrite",
        "verify",
        "EXPRESSION GRAMMAR",
        "comparison := sum",
        "group          :=",
        "EXIT STATUS",
    ):
        assert needle in out


def test_man_tracks_parser_options(capsys):
    # the page is generated from the live argparse objects
    _, out, _ = run(capsys, "man")
    assert "--specialize FILE" in out
    assert "--seed SEED" in out


def test_man_matches_golden(capsys, monkeypatch):
    # the whole page byte for byte: any change to a parser option or to the
    # grammar doc shows here; argparse wraps usage at the terminal width, and
    # the golden page was recorded at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = run(capsys, "man")
    assert (rc, err) == (0, "")
    assert out == (GOLDEN / "man.txt").read_text()


# a text request builds no JSON -----------------------------------------------

TEXT_REQUESTS = {
    "theta-table": ["theta-table", "--group", "Z3", "--truncate", "4"],
    "thetas": ["thetas", "--group", "Z3", "--truncate", "5"],
    "rewrite": ["rewrite", "--theory", "MU", "--group", "Z3", "--truncate", "3", "--expr",
                "beta[1]/theta[(1)] + e[(2)]*beta[1]*beta[2]/(theta[(1)]*theta[(2)])"],
    "eval-value": ["eval", "--group", "Z3", "--truncate", "4", "--expr",
                   "(beta[1] + e[(1)]*beta[2])/theta[(1)] - e[(2)]^2"],
    "eval-comparison": ["eval", "--group", "Z3", "--truncate", "4", "--expr",
                        "beta[1]*theta[(2)]/theta[(1)] == beta[1]*e[(1)]"],
}


@pytest.mark.parametrize("specialize", [False, True], ids=["plain", "specialized"])
@pytest.mark.parametrize("name", list(TEXT_REQUESTS))
def test_a_text_request_builds_no_json(capsys, monkeypatch, tmp_path, name, specialize):
    from equibord.coeff import CoeffPoly
    from equibord.flags import ProjClass
    from equibord.symalg import BExpr, LocFraction, SymPoly

    argv = TEXT_REQUESTS[name]
    if specialize:
        sp = tmp_path / "sp.txt"
        sp.write_text("e[(1)] = e[(2)]^2 + 2\n")
        argv = [*argv, "--specialize", str(sp)]
    want = run(capsys, *argv)
    assert want[0] == 0 and want[2] == ""

    def refuse(self, *args, **kwargs):
        raise RuntimeError(f"{type(self).__name__}.to_json called for a text request")

    for cls in (CoeffPoly, ProjClass, SymPoly, LocFraction, BExpr):
        monkeypatch.setattr(cls, "to_json", refuse)
    assert run(capsys, *argv) == want
