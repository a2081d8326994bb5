"""One monomial order and one character order, and the limits that keep a
huge group from being listed.

render.grlex, and the order in which render.walk gives the terms of a
value, are checked against the dense graded-lex key grlex replaced.
AbelianGroup.unrank, Flag.cyclic and the missing-character search of
presentation are checked against enumerating the whole group.  Both
references are in tests/reference.py.  Commands on a huge group with a short flag run in time
proportional to the flag; theta-table, verify and every integer in the
input have documented limits, refused with one error line; and output
bytes do not depend on the hash seed.
"""

import itertools
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter
from math import prod

import pytest

from equibord import cli
from equibord.errors import PreconditionError, SpecParseError
from equibord.coeff import CoeffPoly
from equibord.flags import Flag
from equibord.groups import MAX_INT_DIGITS, AbelianGroup, format_residues, parse_group
from equibord.render import beta_part, grlex, walk
from equibord.sparse import W
from equibord.symalg import presentation
from equibord.verify import DEFAULT_GROUPS, MAX_COLLAPSE_PAIRS, SweepConfig
from reference import dense_grlex_key, mono, ranked

ROOT = pathlib.Path(__file__).resolve().parents[1]


def shapes(limit: int) -> list:
    """Every tuple of cyclic orders of at least 2, the factors in every
    order, with product at most limit; the trivial group first."""
    out = [()]

    def extend(prefix, order):
        for n in range(2, limit // order + 1):
            out.append(prefix + (n,))
            extend(prefix + (n,), order * n)

    extend((), 1)
    return out


def monomials(rng: random.Random, variables: list) -> set:
    """Random monomials in variables, every monomial of total degree 3 in
    the first three of them (equal totals), and every leading run of pairs
    of each (proper prefixes)."""
    out = {()}
    for _ in range(40):
        counts = Counter()
        for _ in range(rng.randint(1, 4)):
            counts[rng.choice(variables)] += rng.randint(1, 3)
        out.add(mono(counts))
    for combo in itertools.combinations_with_replacement(variables[:3], 3):
        out.add(mono(Counter(combo)))
    for m in list(out):
        out.update(m[:j] for j in range(1, len(m)))
    return out


def assert_same_order(monos: set, reference) -> list:
    """monos in descending order of the reference key, which grlex keeps."""
    want = sorted(monos, key=reference, reverse=True)
    assert sorted(monos, key=grlex) == want
    assert min(monos, key=grlex) == max(monos, key=reference)
    return want


# the monomial order ------------------------------------------------------------


def test_grlex_sorts_euler_monomials_as_the_dense_key():
    rng = random.Random(22)
    for orders in shapes(64):
        nontrivial = ranked(orders)[1:]
        if not nontrivial:
            assert grlex(()) == [0]
            continue
        reference = dense_grlex_key({rs: i for i, rs in enumerate(nontrivial)})
        monos = monomials(rng, nontrivial)
        want = assert_same_order(monos, reference)
        # the renderer walks the terms of a coefficient in that order
        walked = CoeffPoly(AbelianGroup(orders), {m: 1 for m in monos})._walk(False)
        assert [euler for _, euler, _ in walked] == [
            {format_residues(rs): k for rs, k in m} for m in want
        ]


def test_grlex_sorts_beta_monomials_as_the_dense_key():
    rng = random.Random(23)
    for length in (1, 2, 3, 6, 12, 40):
        variables = list(range(length + 1))
        monos = monomials(rng, variables)
        want = assert_same_order(monos, dense_grlex_key(variables))
        # the renderer walks the beta parts of a value in that order
        split = {sum(k << (W * i) for i, k in m): {0: 1} for m in monos}
        walked = walk(split, AbelianGroup(()), beta_part("beta"))
        assert [" * ".join(b) for _, _, b in walked] == [
            " * ".join(f"beta[{i}]" + (f"^{k}" if k > 1 else "") for i, k in m) for m in want
        ]


def test_grlex_cases_by_hand():
    a, b, c = (0, 1), (1, 0), (1, 1)
    order = [((a, 3),), ((a, 2), (b, 1)), ((a, 1), (b, 2)), ((a, 1), (b, 1), (c, 1)),
             ((b, 3),), ((a, 2),), ((a, 1), (b, 1)), ((a, 1),), ((b, 1),), ()]
    assert sorted(reversed(order), key=grlex) == order


# the character order -----------------------------------------------------------


def test_unrank_is_the_enumerated_order_up_to_order_64():
    for orders in shapes(64):
        group = AbelianGroup(orders)
        want = ranked(orders)
        got = [group.unrank(i) for i in range(group.order)]
        assert [c.residues for c in got] == want
        assert group.characters() == got
        assert all(a is b for a, b in zip(got, group.characters()))
        assert group.unrank(group.order + 1) is got[1 % group.order]
        assert got[0] is group.identity


def test_unrank_matches_place_values_on_every_shape_up_to_order_1000():
    """Residue j of rank i is i // (the product of the later orders) mod
    order j, the place values of the enumerated order."""
    rng = random.Random(1000)
    for orders in shapes(1000):
        group = AbelianGroup(orders)
        n = group.order
        places = [prod(orders[j + 1:]) for j in range(len(orders))]  # once per shape
        for i in {0, 1, orders[-1] if orders else 0, n // 2, n - 1, rng.randrange(n)}:
            want = tuple(i // p % m for p, m in zip(places, orders))
            assert group.unrank(i % n).residues == want


def test_cyclic_flag_is_the_enumerating_flag():
    for orders in shapes(64):
        group = AbelianGroup(orders)
        allc = ranked(orders)
        n = len(allc)
        for length in sorted({1, 2, max(n - 1, 1), n, n + 1, 2 * n + 3}):
            flag = Flag.cyclic(group, length)
            assert [c.residues for c in flag.chars] == [allc[i % n] for i in range(length)]
            assert flag == Flag(group, tuple(group.character(allc[i % n]) for i in range(length)))


def test_missing_character_is_the_first_by_enumeration():
    rng = random.Random(7)
    for orders in shapes(64):
        group = AbelianGroup(orders)
        allc = ranked(orders)
        if len(allc) < 2:
            continue
        for _ in range(3):
            length = rng.randint(1, len(allc) + 2)
            chars = [allc[0]] + [rng.choice(allc) for _ in range(length - 1)]
            if len(set(chars)) == len(allc):
                chars = chars[:-1] if len(chars) > 1 else chars
            if len(set(chars)) == len(allc):
                continue
            flag = Flag(group, tuple(map(group.character, chars)))
            missing = next(rs for rs in allc if rs not in chars)
            with pytest.raises(PreconditionError, match="missing character") as exc:
                presentation("MUP", flag)
            assert f"missing character ({','.join(map(str, missing))});" in str(exc.value)


# huge groups, short flags --------------------------------------------------------

HUGE = ["--group", "Z100000000", "--truncate", "2"]
HEADER = "group: Z100000000\nflag: (0),(1)\ndegree convention: homological\n"


@pytest.mark.parametrize("argv, rc, out, err", [
    (["thetas", *HUGE], 0,
     HEADER + "theta[(0)] = beta[0]\ntheta[(1)] = beta[0] + e[(99999999)] * beta[1]\n", ""),
    (["eval", *HUGE, "--expr", "beta[1]/theta[(1)] + e[(5)]"], 0,
     "kind: fraction\nvalue: (e[(5)] * beta[0] + e[(5)] * e[(99999999)] * beta[1] + beta[1])"
     " / theta[(1)]\n", ""),
    (["rewrite", "--theory", "MU", *HUGE, "--expr", "beta[1]/theta[(1)]"], 0,
     "b[1] / btheta[(1)]\n", ""),
    (["present", "--theory", "mU", *HUGE], 0,
     "theory: mU\ngroup: Z100000000\nflag: (0),(1)\ndegree convention: homological\n"
     "shift: 2\ngenerators:\n  c[1] (degree 2)\n  c[2] (degree 4)\ninverted:\n  (none)\n", ""),
    (["present", "--theory", "MUP", *HUGE], 3, "",
     "error: flag truncation is missing character (2); every coaugmentation class must be "
     "invertible for this theory\n"),
])
def test_huge_group_with_a_short_flag_runs_in_milliseconds(capsys, argv, rc, out, err):
    t0 = time.perf_counter()
    assert cli.main(argv) == rc
    assert time.perf_counter() - t0 < 0.05
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


# the limits ----------------------------------------------------------------------


def test_theta_table_refuses_a_huge_group_before_any_row(capsys):
    t0 = time.perf_counter()
    assert cli.main(["theta-table", *HUGE]) == 3
    assert time.perf_counter() - t0 < 0.05
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: theta-table over Z100000000 at flag length 2 would print 100000000 x 3 "
        "values, over the limit of 20000\n"
    )


def test_theta_table_limit_counts_order_times_stages(capsys, monkeypatch):
    # the cli-session pool's largest table: order 8, flag length 16
    assert 8 * 17 <= cli.MAX_TABLE_ENTRIES
    monkeypatch.setattr(cli, "MAX_TABLE_ENTRIES", 42)  # Z2xZ3 at length 6: 6 x 7
    assert cli.main(["theta-table", "--group", "Z2xZ3", "--truncate", "6"]) == 0
    assert cli.main(["theta-table", "--group", "Z2xZ3", "--truncate", "7"]) == 3
    assert capsys.readouterr().err.endswith("6 x 8 values, over the limit of 42\n")


def test_collapse_budget_in_process(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("groups = Z3000\n")
    t0 = time.perf_counter()
    assert cli.main(["verify", "--config", str(cfg)]) == 3
    assert time.perf_counter() - t0 < 0.05
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {cfg}: the collapse check over groups Z3000 would walk over "
        f"{MAX_COLLAPSE_PAIRS} (character, flag entry) pairs\n"
    )


def test_collapse_budget_at_its_limit():
    assert MAX_COLLAPSE_PAIRS == 400**2
    SweepConfig(groups=("Z400",))
    SweepConfig(groups=("Z20xZ20",))
    SweepConfig(groups=("Z200",) * 4)
    for groups in (("Z401",), ("Z200",) * 4 + ("1",), ("Z100000000",), ("Z10001",)):
        with pytest.raises(PreconditionError, match="collapse check"):
            SweepConfig(groups=groups, random_cases=1)


def test_collapse_budget_keeps_the_default_and_ci_configs():
    assert sum(parse_group(g).order ** 2 for g in DEFAULT_GROUPS) <= MAX_COLLAPSE_PAIRS
    SweepConfig()
    for groups, length in ((("Z7",), 7), (("Z2xZ4",), 8), (("Z8", "Z2xZ4", "Z2xZ2xZ2"), 8),
                           (("Z3xZ3",), 9), (("1",), 1000)):
        SweepConfig(groups=groups, max_flag_len=length)


def test_integer_literals_up_to_the_limit(capsys, tmp_path):
    assert MAX_INT_DIGITS == 4300
    big = "7" * MAX_INT_DIGITS
    assert cli.main(["eval", "--group", "Z2", "--truncate", "2", "--expr", big]) == 0
    assert capsys.readouterr().out == f"kind: coefficient\nvalue: {big}\n"
    over = big + "7"
    asg = tmp_path / "big.txt"
    asg.write_text(f"e[(1)] = {over}\n")
    where = {"the expression": [["eval", "--group", "Z2", "--truncate", "2", "--expr", over],
                                ["eval", "--group", "Z2", "--truncate", "2", "--expr",
                                 f"beta[{over}]"],
                                ["eval", "--group", "Z2", "--truncate", "2", "--expr",
                                 f"beta[1]^{over}"],
                                ["thetas", "--group", "Z2", "--truncate", "2",
                                 "--specialize", str(asg)]],
             "the group": [["thetas", "--group", f"Z{over}", "--truncate", "2"]],
             "a character": [["thetas", "--group", "Z2", "--flag", f"(0),(-{over})"],
                             ["eval", "--group", "Z2", "--truncate", "2", "--expr",
                              f"e[({over})]"]]}
    for what, argvs in where.items():
        for argv in argvs:
            t0 = time.perf_counter()
            assert cli.main(argv) == 2
            assert time.perf_counter() - t0 < 0.05
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: an integer in {what} has 4301 digits, over the limit of 4300\n"
            )


def test_group_orders_count_their_digits_as_written():
    with pytest.raises(SpecParseError, match="has 4301 digits"):
        parse_group("Z" + "1" * 4301)
    assert parse_group("Z" + "0" * 4299 + "2").order == 2


# determinism ---------------------------------------------------------------------

DETERMINISM = [
    ["present", "--theory", "MUP", "--group", "Z2xZ2", "--truncate", "5"],
    ["eval", "--group", "Z3", "--truncate", "4", "--expr",
     "beta[1]/theta[(1)] + e[(2)]*beta[2]/(theta[(2)]*theta[(0)]) - beta[3]/theta[(0)]^2"],
    ["theta-table", "--group", "Z2xZ3", "--truncate", "6", "--format", "json"],
]


@pytest.mark.parametrize("argv", DETERMINISM, ids=lambda a: a[0])
def test_output_bytes_do_not_depend_on_the_hash_seed(argv):
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "equibord.cli", *argv], env=env,
                              capture_output=True, timeout=60, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0]) > 200
