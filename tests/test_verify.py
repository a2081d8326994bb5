import functools
import json
import math
import os
import pathlib
import threading
import time

import jsonschema
import pytest

from equibord import verify
from equibord.errors import PreconditionError, SpecParseError
from equibord.flags import ProjClass, aug
from equibord.verify import (
    ALL_CHECKS,
    MAX_DUALITY_CASES,
    SweepConfig,
    _complete_flags,
    _duality_sweep,
    _mutated_aug,
    check_coaug_duality,
    check_mutation_sensitivity,
    check_periodicity,
    check_retraction,
    check_rewrite_roundtrip,
    check_specialization_collapse,
    complete_flag_count,
    default_config,
    duality_case_count,
    load_config,
    run_suite,
)

SMALL = SweepConfig(
    groups=("1", "Z2", "Z4", "Z2xZ2"),
    max_flag_len=4,
    max_dimension=3,
    max_index=3,
    random_cases=10,
    rng_seed=12345,
)


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda f: f.__name__)
def test_each_check_passes(check):
    result = check(SMALL)
    assert result.status == "pass", result.counterexample
    assert result.cases > 0
    assert result.counterexample is None


def test_run_suite_aggregates():
    report = run_suite(SMALL)
    assert report.status == "pass"
    names = [c.check for c in report.checks]
    assert names == sorted(names)
    assert len(names) == len(ALL_CHECKS)
    doc = report.to_json()
    assert doc["status"] == "pass"
    assert doc["config"]["rng_seed"] == 12345
    json.dumps(doc)  # serializable


def test_reports_are_deterministic_modulo_timing():
    def strip(report):
        doc = report.to_json()
        for c in doc["checks"]:
            c.pop("millis")
        return doc

    assert strip(run_suite(SMALL)) == strip(run_suite(SMALL))


def test_mutated_augmentation_is_caught_on_z4_only():
    cases, cx = _duality_sweep(("Z4",), 4, _mutated_aug)
    assert cx is not None
    assert cx["argv"][0] == "eval"
    cases, cx = _duality_sweep(("Z2",), 4, _mutated_aug)
    assert cx is None


def test_counterexample_replays_through_cli(capsys):
    from equibord.cli import main

    _, cx = _duality_sweep(("Z4",), 4, _mutated_aug)
    assert main(cx["argv"]) == 0
    out = capsys.readouterr().out
    assert "verdict: not equal" in out


def test_default_config():
    cfg = default_config()
    assert len(cfg.groups) == 12
    assert cfg.max_flag_len == 6


def test_config_validation():
    with pytest.raises(SpecParseError):
        SweepConfig(groups=())
    with pytest.raises(SpecParseError):
        SweepConfig(max_flag_len=0)
    with pytest.raises(SpecParseError):
        SweepConfig(random_cases=-1)


def test_load_config(tmp_path):
    p = tmp_path / "sweep.cfg"
    p.write_text(
        "# sweep sizes\n"
        "groups = Z2, Z3\n"
        "max_flag_len = 4   # inline comment\n"
        "random_cases = 7\n"
        "rng_seed = 9\n"
    )
    cfg = load_config(str(p))
    assert cfg.groups == ("Z2", "Z3")
    assert cfg.max_flag_len == 4
    assert cfg.random_cases == 7
    assert cfg.rng_seed == 9
    assert cfg.max_dimension == default_config().max_dimension


def test_load_config_diagnostics(tmp_path, capsys):
    from equibord.cli import main

    p = tmp_path / "bad.cfg"
    p.write_text("max_flag_len: 4\n")
    with pytest.raises(SpecParseError, match="bad.cfg:1"):
        load_config(str(p))
    p.write_text("unknown = 3\n")
    with pytest.raises(SpecParseError, match="unknown"):
        load_config(str(p))
    p.write_text("max_flag_len = four\n")
    with pytest.raises(SpecParseError, match="integer"):
        load_config(str(p))
    # a bad value names its file and line, as every other config error does
    for text, reason in (
        ("groups = Z2, nope\n", "bad cyclic factor 'nope' in group 'nope'"),
        ("max_flag_len = 0\n", "max_flag_len must be at least 1"),
        ("groups =\n", "groups must be nonempty"),
    ):
        p.write_text(text)
        message = f"{p}:1: {reason}"
        with pytest.raises(SpecParseError) as excinfo:
            load_config(str(p))
        assert str(excinfo.value) == message
        assert main(["verify", "--config", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_load_config_rejects_a_repeated_key(tmp_path, capsys):
    from equibord.cli import main

    p = tmp_path / "twice.cfg"
    p.write_text("max_flag_len = 2\n# again\nmax_flag_len = 3\n")
    with pytest.raises(SpecParseError) as excinfo:
        load_config(str(p))
    assert str(excinfo.value) == f"{p}:3: duplicate key 'max_flag_len'"
    assert main(["verify", "--config", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {p}:3: duplicate key 'max_flag_len'\n"


@pytest.mark.parametrize("gspec", ["1", "Z2", "Z3", "Z4", "Z2xZ2"])
def test_complete_flag_count_matches_the_enumeration(gspec):
    group = verify.parse_group(gspec)
    lengths = [f.length for f in _complete_flags(group, 7)]
    assert [complete_flag_count(group.order, n) for n in range(1, 8)] == [
        lengths.count(n) for n in range(1, 8)
    ]


def test_duality_case_count_of_the_ci_configs():
    # the four duality configs of the CI workflow, each under the budget
    for groups, max_flag_len, cases in (
        (("Z7",), 7, 5_040),
        (("Z2xZ4",), 8, 40_320),
        (("Z8", "Z2xZ4", "Z2xZ2xZ2"), 8, 120_960),
        (("Z3xZ3",), 9, 362_880),
    ):
        assert duality_case_count(groups, max_flag_len) == cases
        SweepConfig(groups=groups, max_flag_len=max_flag_len)
    assert duality_case_count(default_config().groups, 6) == 7_860


def test_configs_over_the_budget_are_refused():
    with pytest.raises(PreconditionError, match="would run over 1000000 cases"):
        SweepConfig(groups=("Z4",), max_flag_len=10)  # 1,056,048 cases
    assert duality_case_count(("Z4",), 9) <= MAX_DUALITY_CASES
    with pytest.raises(PreconditionError, match="max_index 10001 is over the limit of 10000"):
        SweepConfig(max_index=10_001)
    # a group larger than the flags has no complete flag, so no case
    assert duality_case_count(("Z100000000",), 10_000) == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("groups = Z2\nmax_flag_len = 40\n",
         "{p}: the duality sweep over groups Z2 at max_flag_len 40 would run over 1000000 cases"),
        ("groups = Z10000\nmax_flag_len = 10000\n",
         "{p}: the duality sweep over groups Z10000 at max_flag_len 10000 "
         "would run over 1000000 cases"),
        ("max_flag_len = 10001\n", "{p}:1: max_flag_len 10001 is over the limit of 10000"),
    ],
    ids=["Z2-40", "Z10000", "length-limit"],
)
def test_oversized_configs_exit_3_before_any_check(tmp_path, capsys, text, message):
    from equibord.cli import main

    p = tmp_path / "big.cfg"
    p.write_text(text)
    t0 = time.perf_counter()
    rc = main(["verify", "--config", str(p)])
    assert time.perf_counter() - t0 < 0.05
    assert (rc, *capsys.readouterr()) == (3, "", f"error: {message.format(p=p)}\n")


def test_duality_cases_per_group_at_default_config(monkeypatch):
    # the sweep is exhaustive, so its per-group case counts depend only on
    # the flag enumeration; stubbing both routes keeps this test cheap
    monkeypatch.setattr(verify, "coaug", lambda flag, alpha: 0)
    monkeypatch.setattr(verify, "coaug_via_duality", lambda flag, alpha, augmentation: 0)
    cfg = default_config()
    counts = [
        sum(1 for _ in verify._duality_cases((g,), cfg.max_flag_len, aug)) for g in cfg.groups
    ]
    # a complete flag is no shorter than the group order, so the four
    # groups of order 7 and 8 yield no case at max_flag_len 6
    assert counts == [6, 114, 732, 1824, 1824, 1920, 720, 720, 0, 0, 0, 0]


def test_case_counts_of_verify_seeds_1_to_4_match_the_bench_record():
    # the benchmark checks the same counts after each verify-sweep run
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data" / "verify_counts.json"
    recorded = json.loads(path.read_text())
    for seed in range(1, 5):
        report = run_suite(SweepConfig(rng_seed=seed))
        assert report.status == "pass"
        assert {c.check: c.cases for c in report.checks} == recorded[str(seed)]


def test_check_budgets_small_config():
    for check in (
        check_coaug_duality,
        check_mutation_sensitivity,
        check_periodicity,
        check_retraction,
        check_rewrite_roundtrip,
        check_specialization_collapse,
    ):
        result = check(SMALL)
        assert result.millis < 30_000


# failure paths --------------------------------------------------------------


def _fault_at(monkeypatch, name, k, fault):
    """Patch verify.<name> so that its k-th call returns fault(result, *args)."""
    real = getattr(verify, name)
    calls = 0

    def patched(*args):
        nonlocal calls
        calls += 1
        out = real(*args)
        return fault(out, *args) if calls == k else out

    monkeypatch.setattr(verify, name, patched)


def _zero_class(out, flag, *rest):
    return ProjClass(flag, {})


def _unequal(out, *args):
    return False


def _echo_input(out, y, n):
    return y


def _vanish(out, flag, alpha, x):
    return x - x


def _shift_rhs(out, *args):
    return (out[0], out[1] + 1, *out[2:])


def _invert_something(out, *args):
    return {**out, "inverted": ["x"]}


def _plus_one(out, *args):
    return out + 1


CASE_KEYS = {
    "duality": ["group", "flag", "alpha", "closed_form", "duality", "argv"],
    "rewrite": ["group", "flag", "mode", "shift", "fraction", "rewritten", "expanded", "argv"],
    "retraction": ["group", "flag", "dimension", "input", "retracted", "argv"],
    "period": ["group", "flag", "mode", "alpha", "fraction", "argv"],
    "injective": ["group", "flag", "mode", "alpha", "input", "argv"],
    "collapse": ["group", "flag", "fraction", "collapsed", "argv"],
    "presentation": ["group", "flag", "theory", "generators", "inverted", "argv"],
    "flagged_on_z2": ["reason", "detail", "argv"],
}

# (check, patched name, failing call, fault, cases counted, counterexample keys)
FAULTS = [
    (check_coaug_duality, "coaug_via_duality", 1, _zero_class, 1, "duality"),
    (check_coaug_duality, "coaug_via_duality", 50, _zero_class, 50, "duality"),
    (check_rewrite_roundtrip, "frac_eq", 1, _unequal, 1, "rewrite"),
    (check_rewrite_roundtrip, "frac_eq", 30, _unequal, 30, "rewrite"),
    (check_retraction, "retract", 1, _echo_input, 1, "retraction"),
    (check_retraction, "retract", 5, _echo_input, 5, "retraction"),
    (check_retraction, "retract", 40, _echo_input, 40, "retraction"),
    (check_periodicity, "theta_mul", 1, _vanish, 1, "period"),
    (check_periodicity, "theta_mul", 78, _vanish, 78, "injective"),
    (check_specialization_collapse, "_specialized_lift", 1, _shift_rhs, 3, "collapse"),
    (check_specialization_collapse, "_specialized_lift", 17, _shift_rhs, 23, "collapse"),
    (check_specialization_collapse, "presentation", 2, _invert_something, 64, "presentation"),
    (check_mutation_sensitivity, "_mutated_aug", 11, _plus_one, 3, "flagged_on_z2"),
]


@pytest.mark.parametrize(
    "check, name, k, fault, cases, keys", FAULTS,
    ids=[f"{f[0].__name__}-{f[1]}-{f[2]}" for f in FAULTS],
)
def test_check_reports_first_counterexample(monkeypatch, check, name, k, fault, cases, keys):
    _fault_at(monkeypatch, name, k, fault)
    result = check(SMALL)
    assert result.check == check.__name__
    assert result.status == "fail"
    assert result.cases == cases
    assert list(result.counterexample) == CASE_KEYS[keys]
    assert result.counterexample["argv"]


def test_retraction_reports_both_branches(monkeypatch):
    # the fifth retraction is of a monomial without beta_0, which must vanish
    _fault_at(monkeypatch, "retract", 5, _echo_input)
    assert check_retraction(SMALL).counterexample["argv"][-1].endswith(") == 0")
    monkeypatch.undo()
    _fault_at(monkeypatch, "retract", 1, _echo_input)
    assert check_retraction(SMALL).counterexample["argv"][-1] == "(beta[0]) == (1)"


def test_undetected_mutation_fails_the_sensitivity_check(monkeypatch):
    monkeypatch.setattr(verify, "_mutated_aug", aug)
    result = check_mutation_sensitivity(SMALL)
    assert result.status == "fail"
    assert result.cases == 316
    assert list(result.counterexample) == ["reason", "argv"]


def test_collapse_check_uses_the_engine_theta(monkeypatch, capsys):
    # spec(theta_alpha) = beta_0 must be computed, not assumed: a theta with
    # a stray beta[1] on every nontrivial class has to fail the check
    from equibord import symalg
    from equibord.cli import main

    real = symalg.theta_sym

    def skewed(flag, shift, alpha):
        t = real(flag, shift, alpha)
        return t if alpha.is_trivial else t + symalg.SymPoly.var(flag, shift, 1)

    monkeypatch.setattr(symalg, "theta_sym", skewed)
    result = check_specialization_collapse(SMALL)
    assert result.status == "fail"
    assert list(result.counterexample) == CASE_KEYS["collapse"]
    monkeypatch.undo()
    assert main(result.counterexample["argv"]) == 0
    assert "verdict: not equal" in capsys.readouterr().out


def test_failing_report_matches_schema(monkeypatch, tmp_path, capsys):
    from equibord.cli import main

    cfg = tmp_path / "small.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in SMALL.to_json().items() if k != "groups")
                   + "groups = " + ", ".join(SMALL.groups) + "\n")
    _fault_at(monkeypatch, "presentation", 1, _invert_something)
    _fault_at(monkeypatch, "_mutated_aug", 11, _plus_one)
    assert main(["verify", "--config", str(cfg), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    schema = json.loads((pathlib.Path(__file__).resolve().parents[1]
                         / "schemas" / "verify.schema.json").read_text())
    jsonschema.validate(doc, schema)
    failed = {c["check"]: c for c in doc["checks"] if c["status"] == "fail"}
    assert sorted(failed) == ["check_mutation_sensitivity", "check_specialization_collapse"]
    assert failed["check_specialization_collapse"]["cases"] == 63
    assert failed["check_mutation_sensitivity"]["counterexample"]["detail"]["group"] == "Z2"
    assert doc["status"] == "fail"


# the complete-flag walk and the remaining budgets ----------------------------


def _recursive_complete_flags(group, max_len: int) -> list:
    """The complete flags by the recursive walk: one call per flag entry."""
    chars = group.characters()
    order = len(chars)
    prefix = [chars[0]]
    uses = [1] + [0] * (order - 1)
    out = []

    def extend(left: int, missing: int):
        if not left:
            out.append(tuple(prefix))
            return
        for i, c in enumerate(chars):
            lacking = missing - (not uses[i])
            if lacking >= left:
                continue
            uses[i] += 1
            prefix.append(c)
            extend(left - 1, lacking)
            prefix.pop()
            uses[i] -= 1

    for length in range(order, max_len + 1):
        extend(length - 1, order - 1)
    return out


@pytest.mark.parametrize("gspec", ["1", "Z2", "Z3", "Z4", "Z2xZ2"])
def test_complete_flags_come_in_the_order_of_the_recursive_walk(gspec):
    group = verify.parse_group(gspec)
    for max_len in range(1, 8):
        flags = _complete_flags(group, max_len)
        assert not isinstance(flags, list)  # a generator, as tests patch it
        assert [f.chars for f in flags] == _recursive_complete_flags(group, max_len)


def test_the_trivial_group_sweeps_flags_of_length_1000():
    cfg = SweepConfig(groups=("1",), max_flag_len=1000)
    flags = list(_complete_flags(verify.parse_group("1"), 1000))
    assert [f.length for f in flags] == list(range(1, 1001))
    result = check_coaug_duality(cfg)
    assert (result.status, result.cases) == ("pass", 1000)


def test_retraction_case_count_equals_the_reported_cases(monkeypatch):
    # a random combination of the basis monomials with coefficients 1 never
    # cancels, so the count is exact
    for seed in (1, 3, 4):
        report = check_retraction(SweepConfig(rng_seed=seed))
        assert report.cases == 12 * verify.retraction_case_count(5, 4) == 5_712
    one = verify.CoeffPoly.one
    monkeypatch.setattr(verify, "_random_coeff", lambda rng, group: one(group))
    for max_index, max_dimension in ((1, 1), (1, 9), (3, 3), (6, 2), (2, 6)):
        cfg = SweepConfig(groups=("1", "Z3"), max_index=max_index, max_dimension=max_dimension)
        count = 2 * verify.retraction_case_count(max_index, max_dimension)
        assert check_retraction(cfg).cases == count
        assert count == 2 * (
            math.comb(max_index + max_dimension + 2, max_dimension + 1) - 1 + 3 * (max_dimension + 1)
        )


def test_the_default_and_ci_configs_are_within_every_budget():
    for groups, max_flag_len in (
        (default_config().groups, 6),
        (("Z7",), 7),
        (("Z2xZ4",), 8),
        (("Z8", "Z2xZ4", "Z2xZ2xZ2"), 8),
        (("Z3xZ3",), 9),
        (("1",), 1000),
    ):
        SweepConfig(groups=groups, max_flag_len=max_flag_len)
    assert verify.duality_sizes(("1",), 1000) == (1000, 501_500)
    assert verify.duality_sizes(("Z3xZ3",), 9) == (362_880, 3_628_800)


@pytest.mark.parametrize(
    "text, message",
    [
        ("groups = 1\nmax_index = 10000\n",
         "{p}: the retraction check over groups 1 at max_index 10000 and max_dimension 4 "
         "would run over 300000 cases"),
        ("groups = 1\nmax_index = 1\nmax_dimension = 1000000000000000000\n",
         "{p}: the retraction check over groups 1 at max_index 1 and max_dimension "
         "1000000000000000000 would run over 300000 cases"),
        ("groups = Z2\nrandom_cases = 100000000\n",
         "{p}: random_cases 100000000 x 1 groups x (max_dimension 4 + 1) is over the budget "
         "of 250000"),
        ("groups = 1\nmax_flag_len = 10000\n",
         "{p}: the duality sweep over groups 1 at max_flag_len 10000 would compare over "
         "10000000 coefficients"),
    ],
    ids=["retraction-index", "retraction-dimension", "random", "duality-coefficients"],
)
def test_configs_over_the_remaining_budgets_exit_3_before_any_check(tmp_path, capsys, text, message):
    from equibord.cli import main

    p = tmp_path / "big.cfg"
    p.write_text(text)
    t0 = time.perf_counter()
    rc = main(["verify", "--config", str(p)])
    assert time.perf_counter() - t0 < 0.05
    assert (rc, *capsys.readouterr()) == (3, "", f"error: {message.format(p=p)}\n")


def test_each_budget_is_refused_one_past_its_limit():
    # random_cases x groups x (max_dimension + 1) at the budget and one past it
    SweepConfig(groups=("Z2",), random_cases=50_000, max_dimension=4)
    with pytest.raises(PreconditionError, match="is over the budget of 250000"):
        SweepConfig(groups=("Z2",), random_cases=50_001, max_dimension=4)
    # the trivial group's duality sweep compares L(L + 3) / 2 coefficients
    SweepConfig(groups=("1",), max_flag_len=4470)  # 9,997,155
    with pytest.raises(PreconditionError, match="would compare over 10000000 coefficients"):
        SweepConfig(groups=("1",), max_flag_len=4471)  # 10,001,627
    # the retraction count of max_index 1 is (D + 2)(D + 3) / 2 - 1 + 3(D + 1)
    SweepConfig(groups=("1",), max_index=1, max_dimension=769, random_cases=1)  # 299,915
    with pytest.raises(PreconditionError, match="would run over 300000 cases"):
        SweepConfig(groups=("1",), max_index=1, max_dimension=770, random_cases=1)  # 300,690


# the checks' work queue -----------------------------------------------------


def _without_millis(report) -> dict:
    doc = report.to_json()
    for c in doc["checks"]:
        c.pop("millis")
    return doc


def _cpus(monkeypatch, n: int) -> list:
    """Make n CPUs usable, whatever the host has; returns the pids forked."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cfg", [SMALL, *(SweepConfig(rng_seed=s) for s in range(1, 5))],
                         ids=["small", *(f"seed{s}" for s in range(1, 5))])
def test_the_queue_reports_what_one_process_reports(monkeypatch, cfg):
    forked = _cpus(monkeypatch, 1)
    serial = run_suite(cfg)
    assert forked == []
    forked = _cpus(monkeypatch, 3)
    parallel = run_suite(cfg)
    assert len(forked) == 2
    _assert_no_child_left()
    assert _without_millis(parallel) == _without_millis(serial)
    assert [c.check for c in parallel.checks] == sorted(f.__name__ for f in ALL_CHECKS)


def test_no_more_processes_than_checks(monkeypatch):
    # more workers than the host has cores, each check reported once
    expected = _without_millis(run_suite(SMALL))
    forked = _cpus(monkeypatch, 64)
    assert _without_millis(run_suite(SMALL)) == expected
    assert len(forked) == len(ALL_CHECKS) - 1
    _assert_no_child_left()


def test_a_failing_check_reports_its_counterexample_from_the_queue(monkeypatch):
    _fault_at(monkeypatch, "retract", 5, _echo_input)
    expected = check_retraction(SMALL)
    monkeypatch.undo()
    _fault_at(monkeypatch, "retract", 5, _echo_input)
    forked = _cpus(monkeypatch, len(ALL_CHECKS))
    report = run_suite(SMALL)
    assert len(forked) == len(ALL_CHECKS) - 1
    _assert_no_child_left()
    assert report.status == "fail"
    got = {c.check: c for c in report.checks}["check_retraction"]
    assert (got.status, got.cases, got.counterexample) == ("fail", expected.cases,
                                                           expected.counterexample)
    assert all(c.status == "pass" for c in report.checks if c is not got)


class _Raised(Exception):
    pass


def test_a_raising_check_raises_from_the_queue(monkeypatch):
    def retract(y, n):
        raise _Raised("retract")

    monkeypatch.setattr(verify, "retract", retract)
    forked = _cpus(monkeypatch, len(ALL_CHECKS))
    with pytest.raises(_Raised):
        run_suite(SMALL)
    assert len(forked) == len(ALL_CHECKS) - 1
    _assert_no_child_left()


def test_a_raise_in_the_parent_kills_the_children(monkeypatch):
    # each child sleeps as it finishes its first check; the parent raises
    parent, real = os.getpid(), verify._finish

    def finish(name, *args):
        if os.getpid() != parent:
            time.sleep(60)
            return real(name, *args)
        raise _Raised(name)

    monkeypatch.setattr(verify, "_finish", finish)
    forked = _cpus(monkeypatch, 3)
    t0 = time.perf_counter()
    with pytest.raises(_Raised):
        run_suite(SMALL)
    assert time.perf_counter() - t0 < 30
    assert len(forked) == 2
    _assert_no_child_left()


def test_the_checks_of_a_child_that_died_run_in_the_parent(monkeypatch):
    # a child dies as it finishes its first check, so the parent finishes
    # every check itself
    parent, real, finished = os.getpid(), verify._finish, []

    def finish(name, *args):
        if os.getpid() != parent:
            os._exit(9)
        finished.append(name)
        return real(name, *args)

    expected = _without_millis(run_suite(SMALL))
    monkeypatch.setattr(verify, "_finish", finish)
    forked = _cpus(monkeypatch, 3)
    assert _without_millis(run_suite(SMALL)) == expected
    assert len(forked) == 2
    assert sorted(finished) == sorted(f.__name__ for f in ALL_CHECKS)
    _assert_no_child_left()


def test_a_refused_fork_leaves_the_queue_to_the_processes_running(monkeypatch):
    expected = _without_millis(run_suite(SMALL))
    forked = _cpus(monkeypatch, 3)
    real_fork = os.fork

    def fork():
        if forked:
            raise BlockingIOError("fork refused")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert _without_millis(run_suite(SMALL)) == expected
    assert len(forked) == 1
    _assert_no_child_left()


def test_wrapped_checks_run_in_this_process(monkeypatch):
    # an instrument that wraps the checks counts their calls where it runs
    seen = []

    def wrapped(check):
        @functools.wraps(check)
        def counted(cfg):
            seen.append((check.__name__, os.getpid()))
            return check(cfg)
        return counted

    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(wrapped(c) for c in ALL_CHECKS))
    forked = _cpus(monkeypatch, len(ALL_CHECKS))
    assert run_suite(SMALL).status == "pass"
    assert forked == []
    assert sorted(seen) == sorted((c.__name__, os.getpid()) for c in ALL_CHECKS)


def test_the_checks_run_in_one_process_while_another_thread_is_alive(monkeypatch):
    forked = _cpus(monkeypatch, len(ALL_CHECKS))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert run_suite(SMALL).status == "pass"
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forked == []
