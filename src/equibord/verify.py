"""Brute-force oracles and property sweeps over the algebra layers.

Each check runs an exhaustive or seeded-random sweep of one identity and
returns a CheckResult; run_suite aggregates them.  A sweep yields one
outcome per case, None when the identity holds and the counterexample when
it fails; the check counts the cases up to and including the first
counterexample and stops there.  Reports are fully deterministic for a
fixed SweepConfig (wall-clock millis aside), and every counterexample's
argv member replays the failing comparison through the command line.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

from .coeff import CoeffPoly, euler_class
from .errors import SpecParseError
from .flags import Flag, ProjClass, aug, coaug, coaug_via_duality
from .groups import parse_group, spec_lines
from .sparse import mono
from .symalg import (
    BExpr,
    LocFraction,
    SymPoly,
    btheta_expansion,
    expand_b,
    frac_eq,
    invertible_characters,
    lift_to_common,
    presentation,
    retract,
    theta_mul,
    to_b_generators,
    to_c_generators,
)

DEFAULT_GROUPS = (
    "1",
    "Z2",
    "Z3",
    "Z4",
    "Z2xZ2",
    "Z5",
    "Z6",
    "Z2xZ3",
    "Z7",
    "Z8",
    "Z2xZ4",
    "Z2xZ2xZ2",
)


@dataclass(frozen=True)
class SweepConfig:
    groups: tuple = DEFAULT_GROUPS
    max_flag_len: int = 6
    max_dimension: int = 4
    max_index: int = 5
    random_cases: int = 50
    rng_seed: int = 271828

    def __post_init__(self):
        for f in fields(self):
            if f.name in ("groups", "rng_seed"):
                continue
            if getattr(self, f.name) < 1:
                raise SpecParseError(f"{f.name} must be at least 1")
        if not self.groups:
            raise SpecParseError("groups must be nonempty")

    def to_json(self) -> dict:
        return {**asdict(self), "groups": list(self.groups)}


@dataclass
class CheckResult:
    check: str
    status: str
    cases: int
    millis: int
    counterexample: dict | None = None

    def to_json(self) -> dict:
        out = asdict(self)
        if self.counterexample is None:
            del out["counterexample"]
        return out


@dataclass
class Report:
    status: str
    config: SweepConfig
    checks: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "config": self.config.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }


def _finish(name: str, t0: float, cases: int, cx: dict | None) -> CheckResult:
    millis = int((time.perf_counter() - t0) * 1000)
    return CheckResult(name, "fail" if cx else "pass", cases, millis, cx)


def _first_failure(outcomes) -> tuple:
    """(cases, counterexample or None): the outcomes are counted up to and
    including the first counterexample, and none is drawn after it."""
    cases = 0
    for cx in outcomes:
        cases += 1
        if cx is not None:
            return cases, cx
    return cases, None


def _check(sweep):
    """The timed check of a sweep that yields one outcome per case."""

    @functools.wraps(sweep)
    def check(cfg: SweepConfig) -> CheckResult:
        t0 = time.perf_counter()
        return _finish(sweep.__name__, t0, *_first_failure(sweep(cfg)))

    return check


def _cx(gspec: str, flag: Flag, claim: str, options=(), **fields) -> dict:
    """The counterexample of a failing claim over a flag.  Fields other than
    integers are rendered with str; argv replays the claim through eval,
    with the options placed before --expr."""
    return {
        "group": gspec,
        "flag": str(flag),
        **{k: v if isinstance(v, int) else str(v) for k, v in fields.items()},
        "argv": ["eval", "--group", gspec, "--flag", str(flag), *options, "--expr", claim],
    }


def _complete_flags(group, max_len: int):
    """All flags of length <= max_len whose truncation contains every character;
    none is shorter than the group order."""
    chars = group.characters()
    for length in range(group.order, max_len + 1):
        for tail in itertools.product(chars, repeat=length - 1):
            flag_chars = (chars[0],) + tail
            if len({c.residues for c in flag_chars}) == group.order:
                yield Flag(group, flag_chars)


def _duality_cases(groups, max_flag_len: int, augmentation):
    """Compare the closed coaugmentation formula against the duality route."""
    for gspec in groups:
        group = parse_group(gspec)
        for flag in _complete_flags(group, max_flag_len):
            for alpha in group.characters():
                closed = coaug(flag, alpha)
                dual = coaug_via_duality(flag, alpha, augmentation)
                yield None if closed == dual else _cx(
                    gspec, flag, f"({closed}) == ({dual})",
                    alpha=alpha, closed_form=closed, duality=dual,
                )


def _duality_sweep(groups, max_flag_len: int, augmentation=aug):
    """(cases, counterexample or None) of the duality comparison."""
    return _first_failure(_duality_cases(groups, max_flag_len, augmentation))


@_check
def check_coaug_duality(cfg: SweepConfig):
    yield from _duality_cases(cfg.groups, cfg.max_flag_len, aug)


def _random_coeff(rng: random.Random, group) -> CoeffPoly:
    nontrivial = [c for c in group.characters() if not c.is_trivial]
    if not nontrivial:
        return CoeffPoly.const(group, rng.choice((1, -1)))
    kind = rng.randrange(4)
    if kind == 0:
        return CoeffPoly.const(group, rng.choice((1, -1)))
    if kind == 1:
        return CoeffPoly.const(group, rng.choice((1, -1))) * CoeffPoly.euler(rng.choice(nontrivial))
    if kind == 2:
        return CoeffPoly.euler(rng.choice(nontrivial)) * CoeffPoly.euler(rng.choice(nontrivial))
    return CoeffPoly.const(group, rng.choice((2, -2, 3)))


def _random_numerator(rng: random.Random, flag: Flag, shift: int, dim: int) -> SymPoly:
    """Random nonzero dimension-homogeneous polynomial of the given dimension."""
    while True:
        terms: dict = {}
        for _ in range(rng.randint(1, 3)):
            m = mono(Counter(rng.randint(0, flag.length) for _ in range(dim)))
            c = _random_coeff(rng, flag.group)
            zero = CoeffPoly.zero(flag.group)
            terms[m] = terms.get(m, zero) + c
        x = SymPoly(flag, shift, terms)
        if not x.is_zero:
            return x


def _random_denominator(rng: random.Random, flag: Flag, mode: str, total: int) -> dict:
    alphas = invertible_characters(flag, mode)
    return Counter(rng.choice(alphas) for _ in range(total))


def _random_dim0_fraction(rng, flag, shift, mode, max_dim) -> LocFraction:
    total = rng.randint(0, max_dim)
    denom = _random_denominator(rng, flag, mode, total)
    num = _random_numerator(rng, flag, shift, total)
    return LocFraction(num, denom, mode)


@_check
def check_rewrite_roundtrip(cfg: SweepConfig):
    rng = random.Random(cfg.rng_seed)
    routes = (("MUP", -2, "b"), ("mUP", 2, "c"), ("MUP", 2, "c"))
    for gspec in cfg.groups:
        group = parse_group(gspec)
        flag = Flag.cyclic(group, cfg.max_flag_len)
        for mode, shift, family in routes:
            one = LocFraction(SymPoly.one(flag, shift), {}, mode)
            samples = [one] + [
                _random_dim0_fraction(rng, flag, shift, mode, cfg.max_dimension)
                for _ in range(cfg.random_cases)
            ]
            for x in samples:
                e = to_b_generators(x) if family == "b" else to_c_generators(x)
                y = expand_b(e, x.mode)
                yield None if frac_eq(y, x) else _cx(
                    gspec, flag, f"({x}) == ({y})", ("--shift", str(shift), "--theory", mode),
                    mode=mode, shift=shift, fraction=x, rewritten=e, expanded=y,
                )


@_check
def check_retraction(cfg: SweepConfig):
    shift = -2
    for gspec in cfg.groups:
        group = parse_group(gspec)
        flag = Flag.cyclic(group, cfg.max_index)
        eps = group.identity
        rng = random.Random(cfg.rng_seed)

        def failure(n, x, back, claim):
            return _cx(
                gspec, flag, claim, ("--shift", str(shift)), dimension=n, input=x, retracted=back
            )

        for n in range(0, cfg.max_dimension + 1):
            monos = itertools.combinations_with_replacement(range(flag.length + 1), n)
            xs = [SymPoly(flag, shift, {mono(Counter(combo)): 1}) for combo in monos]
            # a few random coefficient-linear combinations per dimension
            for _ in range(3):
                if xs:
                    pick = rng.sample(xs, k=min(2, len(xs)))
                    acc = SymPoly.zero(flag, shift)
                    for p in pick:
                        acc = acc + _random_coeff(rng, group) * p
                    if not acc.is_zero:
                        xs.append(acc)
            for x in xs:
                back = retract(theta_mul(flag, eps, x), n)
                yield None if back == x else failure(n, x, back, f"({back}) == ({x})")
            # monomials without beta_0 retract to zero
            for combo in itertools.combinations_with_replacement(
                range(1, flag.length + 1), n + 1
            ):
                x = SymPoly(flag, shift, {mono(Counter(combo)): 1})
                back = retract(x, n)
                yield None if back.is_zero else failure(n, x, back, f"({back}) == 0")


@_check
def check_specialization_collapse(cfg: SweepConfig):
    rng = random.Random(cfg.rng_seed)
    for gspec in cfg.groups:
        group = parse_group(gspec)
        flag = Flag.cyclic(group, max(group.order, 2))
        zero_asg = {c: 0 for c in group.characters() if not c.is_trivial}
        beta0 = ProjClass(flag, {0: 1})
        for alpha in group.characters():
            collapsed = coaug(flag, alpha).specialize(zero_asg)
            yield None if collapsed == beta0 else _cx(
                gspec, flag, f"({collapsed}) == beta[0]", alpha=alpha, collapsed=collapsed
            )
            bth = btheta_expansion(flag, "b", alpha).specialize(zero_asg)
            yield None if bth == BExpr.one(flag, "b") else _cx(
                gspec, flag, f"({bth}) == 1", ("--shift", "-2"), alpha=alpha, collapsed=bth
            )
        for _ in range(cfg.random_cases):
            x = _random_dim0_fraction(rng, flag, -2, "MUP", cfg.max_dimension)
            e = to_b_generators(x)
            bare = BExpr(e.flag, e.family, e.terms, {})
            ya = expand_b(e, "MUP")
            yb = expand_b(bare, "MUP")
            lhs, rhs, _ = lift_to_common(ya, yb)
            lhs, rhs = lhs.specialize(zero_asg), rhs.specialize(zero_asg)
            yield None if lhs == rhs else _cx(
                gspec, flag, f"({lhs}) == ({rhs})", ("--shift", "-2"),
                fraction=x, collapsed=e.specialize(zero_asg),
            )
    # trivial-group presentations match the non-equivariant shape
    group = parse_group("1")
    flag = Flag.cyclic(group, 4)
    for theory in ("MU", "mU"):
        pres = presentation(theory, flag)
        degrees = [g["degree"] for g in pres["generators"]]
        yield None if degrees == [2, 4, 6, 8] and not pres["inverted"] else {
            "group": "1",
            "flag": str(flag),
            "theory": theory,
            "generators": pres["generators"],
            "inverted": pres["inverted"],
            "argv": ["present", "--theory", theory, "--group", "1", "--truncate", "4"],
        }


@_check
def check_periodicity(cfg: SweepConfig):
    rng = random.Random(cfg.rng_seed)
    for gspec in cfg.groups:
        group = parse_group(gspec)
        flag = Flag.cyclic(group, cfg.max_flag_len)
        for mode, shift in (("MUP", -2), ("mUP", 2)):
            alphas = invertible_characters(flag, mode)
            for _ in range(cfg.random_cases):
                total = rng.randint(0, cfg.max_dimension)
                extra = rng.randint(0, 2)
                denom = _random_denominator(rng, flag, mode, total)
                num = _random_numerator(rng, flag, shift, total + extra)
                a = LocFraction(num, denom, mode)
                alpha = rng.choice(alphas)
                lifted = dict(a.denom)
                lifted[alpha] = lifted.get(alpha, 0) + 1
                y = LocFraction(a.num, lifted, mode)
                yield None if frac_eq(theta_mul(flag, alpha, y), a) else _cx(
                    gspec, flag, f"theta[{alpha}] * ({y}) == ({a})",
                    ("--shift", str(shift), "--theory", mode), mode=mode, alpha=alpha, fraction=a,
                )
                # injectivity on sampled polynomials
                x = _random_numerator(rng, flag, shift, rng.randint(0, cfg.max_dimension))
                yield None if theta_mul(flag, alpha, x).is_zero == x.is_zero else _cx(
                    gspec, flag, f"theta[{alpha}] * ({x}) == 0", ("--shift", str(shift)),
                    mode=mode, alpha=alpha, input=x,
                )


def _mutated_aug(flag: Flag, alpha, i: int) -> CoeffPoly:
    """Deliberately wrong augmentation: drops the inverse on the twist."""
    if i == 0:
        return CoeffPoly.one(flag.group)
    return euler_class(flag.rep(i).tensor(alpha))


def check_mutation_sensitivity(cfg: SweepConfig) -> CheckResult:
    """The duality sweep must catch the alpha-vs-alpha-inverse mutation on C4
    (where some character is not self-inverse) and stay silent on C2 (where
    every character is).  The sweep depth is pinned so a small configured
    flag length cannot make the detection vacuous."""
    t0 = time.perf_counter()
    cases_c4, cx_c4 = _duality_sweep(("Z4",), 5, _mutated_aug)
    cases_c2, cx_c2 = _duality_sweep(("Z2",), 5, _mutated_aug)
    cx = None
    if cx_c4 is None:
        cx = {"reason": "the mutated augmentation went undetected on Z4", "argv": ["verify"]}
    elif cx_c2 is not None:
        cx = {
            "reason": "the mutated augmentation was flagged on Z2, "
            "where the twist is invisible",
            "detail": cx_c2,
            "argv": ["verify"],
        }
    return _finish("check_mutation_sensitivity", t0, cases_c4 + cases_c2, cx)


ALL_CHECKS = (
    check_coaug_duality,
    check_mutation_sensitivity,
    check_periodicity,
    check_retraction,
    check_rewrite_roundtrip,
    check_specialization_collapse,
)


def run_suite(cfg: SweepConfig | None = None) -> Report:
    """Run every check, sorted by name; overall status fails if any check fails."""
    cfg = cfg or SweepConfig()
    checks = [fn(cfg) for fn in sorted(ALL_CHECKS, key=lambda f: f.__name__)]
    status = "pass" if all(c.status == "pass" for c in checks) else "fail"
    return Report(status, cfg, checks)


def default_config() -> SweepConfig:
    return SweepConfig()


def load_config(path: str) -> SweepConfig:
    """Flat key = value file mirroring SweepConfig; '#' starts a comment and
    each key may be given once."""
    values: dict = {}
    int_keys = {f.name for f in fields(SweepConfig)} - {"groups"}
    for where, key, val in spec_lines(path, "config", "key = value"):
        if key in values:
            raise SpecParseError(f"{where}: duplicate key {key!r}")
        if key == "groups":
            groups = tuple(g.strip() for g in val.split(",") if g.strip())
            try:
                for g in groups:
                    parse_group(g)
            except SpecParseError as exc:
                raise SpecParseError(f"{where}: {exc}") from None
            values["groups"] = groups
        elif key in int_keys:
            try:
                values[key] = int(val)
            except ValueError:
                raise SpecParseError(f"{where}: {key} needs an integer") from None
        else:
            raise SpecParseError(f"{where}: unknown key {key!r}")
    return SweepConfig(**values)
