"""Limits on what a command computes and prints, each refused with one
error line and exit status 3, and the exit on a closed output pipe.

An integer power, or a power of a polynomial, is refused before it is
taken when one of its coefficients is sure to be over MAX_INT_DIGITS
digits: the power of the first or last coefficient, or the power of the
coefficient sum, or of the base's value at a point of the unit circle,
spread over the most terms the power can have; any
other integer that long is refused before it is printed.  An
exponent of a beta or Euler symbol is at most MAX_EXP, from a product or
from a power.  theta-table builds each twisted stage's Euler class from
the one before, so it runs in time linear in the flag length.
"""

import hashlib
from math import comb
import os
import pathlib
import subprocess
import sys
import time

import pytest

from equibord import cli
from equibord.errors import PreconditionError
from equibord.sparse import MAX_EXP, MAX_INT_DIGITS, W, check_power

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, *argv) -> tuple:
    t0 = time.perf_counter()
    rc = cli.main(list(argv))
    took = time.perf_counter() - t0
    out, err = capsys.readouterr()
    return rc, out, err, took


def assert_refused(capsys, *argv, budget=0.05):
    rc, out, err, took = run(capsys, *argv)
    assert rc == 3 and out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert took < budget, f"{argv} took {took:.3f} s"
    return err


def evaluate(capsys, expr) -> tuple:
    return run(capsys, "eval", "--group", "Z2", "--truncate", "2", "--expr", expr)


# integers too long to print ------------------------------------------------------


@pytest.mark.parametrize("expr", ["2^20000", "(2^14000)*(2^14000)", "3^100000000", "(2^14000)^2",
                                  "(beta[1]+2)^20000", "(e[(1)]+2)^20000", "(2*beta[1]+1)^20000",
                                  "(beta[1]+beta[2])^20000", "(1+e[(1)])^20000",
                                  "(beta[1]-beta[2])^20000", "(1-e[(1)])^20000",
                                  "(beta[1]^2-beta[2]^2)^20000", "(beta[1]-beta[2]+beta[0])^20000"])
def test_integers_over_the_digit_limit_are_refused(capsys, expr):
    err = assert_refused(capsys, "eval", "--group", "Z2", "--truncate", "2", "--expr", expr)
    assert f"over {MAX_INT_DIGITS} digits" in err


def test_an_assigned_value_over_the_digit_limit_is_refused(capsys, tmp_path):
    asg = tmp_path / "asg.txt"
    asg.write_text("e[(1)] = 2^20000\n")
    assert_refused(capsys, "theta-table", "--group", "Z2", "--truncate", "2", "--specialize", str(asg))


def test_integers_up_to_the_digit_limit_still_print(capsys, tmp_path):
    rc, out, _, _ = evaluate(capsys, "2^14000")
    assert rc == 0 and out.splitlines()[1] == f"value: {2**14000}"  # 4,215 digits
    rc, out, _, _ = evaluate(capsys, "3^9012")  # 4,300 digits exactly
    assert rc == 0 and len(out.splitlines()[1]) == len("value: ") + MAX_INT_DIGITS
    assert_refused(capsys, "eval", "--group", "Z2", "--truncate", "2", "--expr", "3^9013")
    # a specialized value is checked where it is printed
    asg = tmp_path / "asg.txt"
    asg.write_text("e[(1)] = 2^14000\n")
    rc, out, err, _ = run(capsys, "eval", "--group", "Z2", "--truncate", "2", "--specialize",
                          str(asg), "--expr", "e[(1)]^2")
    assert rc == 3 and err.startswith("error: ") and out == ""


def test_a_power_whose_coefficients_sum_to_zero_still_prints_below_the_limit(capsys):
    # the same text as the product of 100 factors, which takes no power
    power = evaluate(capsys, "(beta[1]-beta[2])^100")
    assert power[:3] == evaluate(capsys, "*".join(["(beta[1]-beta[2])"] * 100))[:3]
    rc, out, err, _ = power
    assert rc == 0 and err == "" and f" - {comb(100, 49)} * beta[1]^51 * beta[2]^49 + " in out


def test_the_coefficient_sum_bound_refuses_only_powers_too_long_to_print():
    # (beta[1] + beta[2])^n: every coefficient is 1, so only the sum sees the
    # middle one, C(n, n // 2), which is the largest
    terms = {1: 1, 1 << W: 1}
    for n in (3000, 14200):
        check_power(terms, n)
        assert comb(n, n // 2) < 10**MAX_INT_DIGITS
    for n in (14400, 10**8, 10**4000):
        with pytest.raises(PreconditionError, match=f"power {n} would have over"):
            check_power(terms, n)
    assert comb(14400, 7200) > 10**MAX_INT_DIGITS
    # (beta[0] - beta[1])^n, (beta[0]^2 - beta[1]^2)^n: the coefficients sum
    # to 0, so only a point with beta[0] at -1, or at i, sees C(n, n // 2);
    # (beta[0] + beta[1] - beta[2])^n: they sum to 1, and beta[2] at -1 gives
    # 3.  The points are tried only past the n at which a value of 2 refuses.
    for terms in ({1: 1, 1 << W: -1}, {2: 1, 2 << W: -1}, {1: 1, 1 << W: 1, 1 << 2 * W: -1}):
        check_power(terms, 14200)
        for n in (14400, 10**8, 10**4000):
            with pytest.raises(PreconditionError, match=f"power {n} would have over"):
                check_power(terms, n)
    # a constant is refused once its power has more digits than the limit
    check_power({0: 3}, 9012)
    with pytest.raises(PreconditionError):
        check_power({0: 3}, 9100)
    assert 3**9100 > 10**MAX_INT_DIGITS


# exponents at the field limit ------------------------------------------------------


@pytest.mark.parametrize("symbol", ["beta[2]", "e[(1)]"])
def test_an_exponent_at_the_limit_prints_and_one_past_it_is_refused(capsys, symbol):
    rc, out, _, _ = evaluate(capsys, f"{symbol}^{MAX_EXP}")
    assert rc == 0 and out.splitlines()[1] == f"value: {symbol}^{MAX_EXP}"
    half = (MAX_EXP + 1) // 2
    rc, out, _, _ = evaluate(capsys, f"({symbol}^{half})*({symbol}^{half - 1})")
    assert rc == 0 and out.splitlines()[1] == f"value: {symbol}^{MAX_EXP}"
    for expr in (f"{symbol}^{MAX_EXP + 1}", f"({symbol}^{half})*({symbol}^{half})",
                 f"{symbol}^{10**30}"):
        err = assert_refused(capsys, "eval", "--group", "Z2", "--truncate", "2", "--expr", expr)
        assert f"over the limit of {MAX_EXP}" in err


# a closed output pipe ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [["theta-table", "--group", "Z8", "--truncate", "16"], ["man"]])
def test_a_closed_pipe_ends_with_its_exit_status_and_no_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "equibord.cli", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the command writes anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED_PIPE
    assert err == b""


# theta-table in time linear in the flag length -----------------------------------------


# sha256 of the text and the JSON output, as the quadratic route printed them
LONG_TABLES = {
    ("1", "10000"): ("93590147111faac319cfed012ee4bb3a67cca05eefcce020c96d7cfa2ed320a9",
                     "666bf8dd92b965ec10782ed607a79abcef82856105cb40bb3c10b890e31c9ed9"),
    ("Z2", "9999"): ("500b8c3ec9b8e099015dfa0f2d0770c9ec79f5627e852d467e5bb587c2a359ec",
                     "786277a6ba85092fb4f5ba40993708f4c4b7ef2f7b4d2456f0a6673ae9bf3a12"),
}


@pytest.mark.parametrize("group, length", list(LONG_TABLES))
def test_theta_table_over_a_long_flag_runs_in_linear_time(capsys, group, length):
    for fmt, want in zip(("text", "json"), LONG_TABLES[group, length]):
        rc, out, _, took = run(capsys, "theta-table", "--group", group, "--truncate", length,
                               "--format", fmt)
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == want
        assert took < 3.0, f"{group} at length {length} took {took:.2f} s"
