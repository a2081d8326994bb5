import json
import pathlib
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
