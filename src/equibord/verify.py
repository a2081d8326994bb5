"""Brute-force oracles and property sweeps over the algebra layers.

Each check runs an exhaustive or seeded-random sweep of one identity and
returns a CheckResult; run_suite runs them on the usable CPUs and
aggregates them.  A sweep yields one outcome per case, None when the
identity holds and the counterexample when it fails; the check counts the
cases up to and including the first counterexample and stops there.
Reports are fully deterministic for a fixed SweepConfig (wall-clock millis
aside), and every counterexample's argv member replays the failing
comparison through the command line.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import pickle
import random
import signal
import threading
import time
from dataclasses import asdict, dataclass, field, fields

from . import symalg
from .coeff import CoeffPoly, euler_class, specializer
from .errors import PreconditionError, SpecParseError
from .flags import MAX_FLAG_LENGTH, Flag, ProjClass, aug, coaug, coaug_via_duality
from .groups import euler_unit, parse_group, spec_lines
from .sparse import W
from .symalg import (
    BExpr,
    LocFraction,
    SymPoly,
    _lift,
    _specialized,
    btheta_expansion,
    expand_b,
    frac_eq,
    invertible_characters,
    presentation,
    retract,
    theta_mul,
    to_b_generators,
    to_c_generators,
)

DEFAULT_GROUPS = (
    "1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z2xZ3", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2",
)


# A config is refused before any check runs when a check would run over
# its budget.  Each budget allows about 5-10 s (2-core Xeon, Python 3.11.7),
# so a config within all of them runs in well under a minute.
# The duality sweep is exhaustive and its case count grows factorially with
# the group order and exponentially with the flag length: 4-6 us a case on
# Z2/17, Z3/11, Z4/9 and Z3xZ3/9.  Each case compares flag length + 1
# coefficients, 0.35-0.55 us each, which the trivial group, with one case
# per length, meets long before the case budget.
MAX_DUALITY_CASES = 1_000_000
MAX_DUALITY_COEFFICIENTS = 10_000_000
# check_retraction's cases (retraction_case_count): 3.5-10 us a case up to
# dimension 150, 32 us at dimension 1,000.
MAX_RETRACTION_CASES = 300_000
# random_cases x groups x (max_dimension + 1): a random case costs the three
# random checks 150-300 us together, and a drawn numerator's dimension goes
# up to max_dimension (+ 2 in the periodicity check).
MAX_RANDOM_DRAWS = 250_000
# check_specialization_collapse walks every character over a cyclic flag as
# long as the group order, order^2 pairs per group: 3-9 s at order 400 (Z400
# and five-factor groups).  So no group too large to list ever gets that far.
MAX_COLLAPSE_PAIRS = 160_000


def _check_field(name: str, value):
    """Raise unless value is allowed for the SweepConfig field name."""
    if name == "groups":
        if not value:
            raise SpecParseError("groups must be nonempty")
    elif name != "rng_seed" and value < 1:
        raise SpecParseError(f"{name} must be at least 1")
    elif name in ("max_flag_len", "max_index") and value > MAX_FLAG_LENGTH:
        raise PreconditionError(f"{name} {value} is over the limit of {MAX_FLAG_LENGTH}")


def complete_flag_count(order: int, length: int) -> int:
    """The number of complete flags of the given length over a group of the
    given order: their length - 1 entries after the trivial one cover the
    order - 1 nontrivial characters, counted by inclusion-exclusion over
    the k of them left out.  At length == order they are the (order - 1)!
    orderings of the nontrivial characters, counted directly: the sum
    would raise order numbers to the power order - 1, and a config may
    name groups of order up to the flag limit."""
    if length == order:
        return math.factorial(order - 1)
    return sum(
        (-1) ** k * math.comb(order - 1, k) * (order - k) ** (length - 1) for k in range(order)
    )


def duality_sizes(groups, max_flag_len: int) -> tuple:
    """(cases, coefficients) of check_coaug_duality: each group's order
    times its complete flags of each length up to max_flag_len, and those
    cases each weighted by the length + 1 coefficients they compare.  Once
    the case count is over MAX_DUALITY_CASES it stops, at some value over it."""
    cases = coefficients = 0
    for gspec in groups:
        order = parse_group(gspec).order
        for length in range(order, max_flag_len + 1):
            if cases > MAX_DUALITY_CASES:
                return cases, coefficients
            n = order * complete_flag_count(order, length)
            cases += n
            coefficients += n * (length + 1)
    return cases, coefficients


def duality_case_count(groups, max_flag_len: int) -> int:
    """The case count of duality_sizes."""
    return duality_sizes(groups, max_flag_len)[0]


def retraction_case_count(max_index: int, max_dimension: int) -> int:
    """The number of cases check_retraction runs per group, or one more per
    random combination that cancels to zero: for each dimension n up to
    max_dimension, the C(max_index + n, n) monomials of dimension n in
    beta_0..beta_max_index, 3 random combinations of them, and the
    C(max_index + n, n + 1) monomials of dimension n + 1 without beta_0.
    Once the count is over MAX_RETRACTION_CASES it stops, at some value
    over it."""
    total = 0
    for n in range(max_dimension + 1):
        if total > MAX_RETRACTION_CASES:
            break
        total += math.comb(max_index + n, n) + 3 + math.comb(max_index + n, n + 1)
    return total


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
            _check_field(f.name, getattr(self, f.name))
        groups = ", ".join(self.groups)
        cases, coefficients = duality_sizes(self.groups, self.max_flag_len)
        sweep = f"the duality sweep over groups {groups} at max_flag_len {self.max_flag_len}"
        if cases > MAX_DUALITY_CASES:
            raise PreconditionError(f"{sweep} would run over {MAX_DUALITY_CASES} cases")
        if coefficients > MAX_DUALITY_COEFFICIENTS:
            raise PreconditionError(
                f"{sweep} would compare over {MAX_DUALITY_COEFFICIENTS} coefficients"
            )
        count = retraction_case_count(self.max_index, self.max_dimension) * len(self.groups)
        if count > MAX_RETRACTION_CASES:
            raise PreconditionError(
                f"the retraction check over groups {groups} at max_index {self.max_index} "
                f"and max_dimension {self.max_dimension} would run over "
                f"{MAX_RETRACTION_CASES} cases"
            )
        if self.random_cases * len(self.groups) * (self.max_dimension + 1) > MAX_RANDOM_DRAWS:
            raise PreconditionError(
                f"random_cases {self.random_cases} x {len(self.groups)} groups x "
                f"(max_dimension {self.max_dimension} + 1) is over the budget of "
                f"{MAX_RANDOM_DRAWS}"
            )
        if sum(parse_group(g).order ** 2 for g in self.groups) > MAX_COLLAPSE_PAIRS:
            raise PreconditionError(
                f"the collapse check over groups {groups} would walk over "
                f"{MAX_COLLAPSE_PAIRS} (character, flag entry) pairs"
            )

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
    """All flags of length <= max_len whose truncation contains every
    character: by length, and within one length in lexicographic order of
    the tail, characters ranked as in group.characters().  None is shorter
    than the group order.

    The tail is extended depth first, on an explicit stack so that no flag
    length nears the recursion limit, and a prefix is dropped as soon as the
    slots left cannot hold the characters it still lacks, so no incomplete
    flag is ever built."""
    chars = group.characters()
    order = len(chars)
    for length in range(order, max_len + 1):
        prefix = [chars[0]]
        uses = [1] + [0] * (order - 1)  # occurrences of each character in prefix
        missing = order - 1  # characters that prefix lacks
        placed = []  # the index in chars of each tail entry of prefix
        i = 0  # the next index to try in the open slot
        while True:
            left = length - len(prefix)  # open slots, this one included
            if not left:
                yield Flag._of(group, tuple(prefix))
                i = order
            while i < order and missing - (not uses[i]) >= left:
                i += 1
            if i < order:
                missing -= not uses[i]
                uses[i] += 1
                prefix.append(chars[i])
                placed.append(i)
                i = 0
                continue
            if not placed:
                break
            i = placed.pop()
            prefix.pop()
            uses[i] -= 1
            missing += not uses[i]
            i += 1


def _duality_cases(groups, max_flag_len: int, augmentation):
    """Compare the closed coaugmentation formula against the duality route.

    The augmentation value at stage i depends only on alpha and the first i
    characters of the flag, and an injected augmentation must keep to that.
    The flags come depth first, so consecutive ones share long prefixes:
    each character keeps its stage values of the previous flag up to the
    shared prefix and computes only the stages past it, in order."""
    for gspec in groups:
        group = parse_group(gspec)
        alphas = group.characters()
        stages = [[] for _ in alphas]  # per character, stage values 0.. of the last flag
        prev = ()
        for flag in _complete_flags(group, max_flag_len):
            p = 0
            for a, b in zip(flag.chars, prev):
                if a is not b:
                    break
                p += 1
            prev = flag.chars
            for alpha, values in zip(alphas, stages):
                del values[p + 1:]
                for i in range(len(values), flag.length + 1):
                    values.append(augmentation(flag, alpha, i))
                closed = coaug(flag, alpha)
                dual = coaug_via_duality(flag, alpha, lambda _flag, _alpha, i: values[i])
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


def _below(bits, n: int) -> int:
    """A uniform int in [0, n), n >= 1, from bits = rng.getrandbits: the
    algorithm of CPython's Random._randbelow_with_getrandbits, so it draws
    the same stream as rng.randrange(n), and rng.choice and rng.randint
    through it."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_term(rng: random.Random, group) -> tuple:
    """(packed Euler monomial, int) of a unit, a signed Euler symbol, a
    product of two Euler symbols or a small constant."""
    bits = rng.getrandbits
    chars = group._characters or group.characters()  # by rank: the trivial one is first
    n = len(chars) - 1
    kind = _below(bits, 4) if n else 0
    if kind == 1:
        sign = (1, -1)[_below(bits, 2)]  # drawn before the character
        return euler_unit(group, chars[1 + _below(bits, n)].residues), sign
    if kind == 2:
        a = euler_unit(group, chars[1 + _below(bits, n)].residues)
        return a + euler_unit(group, chars[1 + _below(bits, n)].residues), 1
    units = (1, -1) if kind == 0 else (2, -2, 3)
    return 0, units[_below(bits, len(units))]


def _random_coeff(rng: random.Random, group) -> CoeffPoly:
    """The one-term CoeffPoly of _random_term."""
    e, c = _random_term(rng, group)
    return CoeffPoly._of(group, {e: c})


def _random_numerator(rng: random.Random, flag: Flag, shift: int, dim: int) -> SymPoly:
    """Random nonzero dimension-homogeneous polynomial of the given dimension."""
    bits = rng.getrandbits
    width = flag.length + 1  # beta indices in 0..N
    k = width.bit_length()
    group, off = flag.group, flag._eoff
    while True:
        terms: dict = {}
        for _ in range(1 + _below(bits, 3)):
            b = 0
            for _ in range(dim):
                i = bits(k)  # _below(bits, width), inlined
                while i >= width:
                    i = bits(k)
                b += 1 << (W * i)
            e, c = _random_term(rng, group)
            m = b | (e << off)
            terms[m] = terms.get(m, 0) + c
        # drawn terms on one monomial can cancel
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            return SymPoly._of(flag, shift, terms)


def _random_denominator(rng: random.Random, flag: Flag, mode: str, total: int) -> dict:
    """{character: positive exponent} over characters that mode inverts."""
    bits = rng.getrandbits
    alphas = invertible_characters(flag, mode)
    counts: dict = {}  # in order of first draw
    for _ in range(total):
        al = alphas[_below(bits, len(alphas))]
        counts[al] = counts.get(al, 0) + 1
    return counts


def _random_dim0_fraction(rng, flag, shift, mode, max_dim) -> LocFraction:
    total = _below(rng.getrandbits, max_dim + 1)
    denom = _random_denominator(rng, flag, mode, total)
    num = _random_numerator(rng, flag, shift, total)
    return LocFraction._of(num, denom, mode)


@_check
def check_rewrite_roundtrip(cfg: SweepConfig):
    rng = random.Random(cfg.rng_seed)
    routes = (("MUP", -2), ("mUP", 2), ("MUP", 2))
    for gspec in cfg.groups:
        group = parse_group(gspec)
        flag = Flag.cyclic(group, cfg.max_flag_len)
        for mode, shift in routes:
            one = LocFraction(SymPoly.one(flag, shift), {}, mode)
            samples = [one] + [
                _random_dim0_fraction(rng, flag, shift, mode, cfg.max_dimension)
                for _ in range(cfg.random_cases)
            ]
            for x in samples:
                e = to_b_generators(x) if shift == -2 else to_c_generators(x)
                y = expand_b(e, x.mode)
                yield None if frac_eq(y, x) else _cx(
                    gspec, flag, f"({x}) == ({y})", ("--shift", str(shift), "--theory", mode),
                    mode=mode, shift=shift, fraction=x, rewritten=e, expanded=y,
                )


def _basis_monomials(flag: Flag, shift: int, low: int, n: int) -> list:
    """Every monomial of dimension n in beta_low..beta_N, with coefficient 1,
    in the order of itertools.combinations_with_replacement."""
    units = [1 << (W * i) for i in range(flag.length + 1)]  # beta_i alone, packed
    return [
        SymPoly._of(flag, shift, {sum(map(units.__getitem__, combo)): 1})
        for combo in itertools.combinations_with_replacement(range(low, flag.length + 1), n)
    ]


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
            xs = _basis_monomials(flag, shift, 0, n)
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
            for x in _basis_monomials(flag, shift, 1, n + 1):
                back = retract(x, n)
                yield None if back.is_zero else failure(n, x, back, f"({back}) == 0")


def _specialized_lift(a: LocFraction, b: LocFraction, spec, thetas: dict) -> tuple:
    """The two numerators of lift_to_common(a, b), each specialized by spec,
    a coeff.specializer of their group.

    Specialization is a ring map, so the numerators and the inverted
    classes are specialized before they are multiplied, not after.  thetas
    maps each character of the two denominators to its inverted class,
    already specialized by spec.
    """
    num_a, num_b = _specialized(a.num, spec), _specialized(b.num, spec)
    lhs, rhs, _ = _lift(num_a, a.denom, num_b, b.denom, thetas.__getitem__)
    return lhs, rhs


@_check
def check_specialization_collapse(cfg: SweepConfig):
    rng = random.Random(cfg.rng_seed)
    for gspec in cfg.groups:
        group = parse_group(gspec)
        alphas = group.characters()
        flag = Flag.cyclic(group, max(group.order, 2))
        zero_asg = {c: 0 for c in alphas if not c.is_trivial}
        spec = specializer(group, zero_asg)
        beta0 = ProjClass(flag, {0: 1})
        for alpha in alphas:
            collapsed = coaug(flag, alpha).specialize(zero_asg)
            yield None if collapsed == beta0 else _cx(
                gspec, flag, f"({collapsed}) == beta[0]", alpha=alpha, collapsed=collapsed
            )
            bth = btheta_expansion(flag, "b", alpha).specialize(zero_asg)
            yield None if bth == BExpr.one(flag, "b") else _cx(
                gspec, flag, f"({bth}) == 1", ("--shift", "-2"), alpha=alpha, collapsed=bth
            )
        # theta_sym is read through its module, so that a patched one is checked
        thetas = {al: _specialized(symalg.theta_sym(flag, -2, al), spec) for al in alphas}
        for _ in range(cfg.random_cases):
            x = _random_dim0_fraction(rng, flag, -2, "MUP", cfg.max_dimension)
            e = to_b_generators(x)
            bare = BExpr._of(e.num, {})
            ya = expand_b(e, "MUP")
            yb = expand_b(bare, "MUP")
            lhs, rhs = _specialized_lift(ya, yb, spec, thetas)
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
                a = LocFraction._of(num, denom, mode)
                alpha = rng.choice(alphas)
                lifted = dict(a.denom)
                lifted[alpha] = lifted.get(alpha, 0) + 1
                y = LocFraction._of(a.num, lifted, mode)
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


# the checks as this module defines them; ALL_CHECKS may be rebound
_ENGINE_CHECKS = frozenset(ALL_CHECKS)


def _workers(checks) -> int:
    """How many processes run the checks: one per usable CPU, at most one
    per check, and 1 (this process alone) where forking is unsafe or would
    hide calls.  Forking is unsafe with other threads alive, and a check
    that is not the engine's own (an instrument wrapping it, say) may count
    its calls in this process, where the children's calls never show."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if not _ENGINE_CHECKS.issuperset(checks):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, len(checks))


def _take(checks, cfg, queue: int) -> dict:
    """{index: CheckResult} of the checks run from the queue, a pipe of
    check indices, one byte each, until it is empty."""
    done = {}
    while byte := os.read(queue, 1):
        done[byte[0]] = checks[byte[0]](cfg)
    return done


def _child(checks, cfg, queue: int, out: int):
    """A forked worker: runs checks from the queue, writes their pickled
    results to out only if every one returned, and leaves without running
    any of the parent's clean-up."""
    code = 1
    try:
        data = pickle.dumps(_take(checks, cfg, queue))
        with open(out, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _run_queue(checks, cfg, workers: int) -> dict:
    """{index: CheckResult} of the checks that this process and up to
    workers - 1 forked children took from one queue; where the system
    refuses a fork, the processes already running share the queue.  A
    child that raised or was killed reports none of its checks.  No child
    outlives the call: on any exception each is killed, and each is reaped."""
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(checks))))
    os.close(feed)
    children = {}  # pid -> read end of the child's result pipe
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _child(checks, cfg, queue, w)
            os.close(w)
            children[pid] = r
        done = _take(checks, cfg, queue)
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            if os.waitstatus_to_exitcode(status) == 0:
                done.update(pickle.loads(data))
        return done
    finally:
        os.close(queue)
        for pid, r in children.items():
            os.close(r)
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_suite(cfg: SweepConfig | None = None) -> Report:
    """Run every check, sorted by name; overall status fails if any check fails.

    The checks share the usable CPUs (_workers): each process takes the
    next check from a queue in name order.  Every check no child reported
    runs here afterwards, so a check that raises raises here.  Each
    check's millis is its own time, in the process that ran it."""
    cfg = cfg or SweepConfig()
    checks = sorted(ALL_CHECKS, key=lambda f: f.__name__)
    workers = _workers(checks)
    done = _run_queue(checks, cfg, workers) if workers > 1 else {}
    results = [done[i] if i in done else fn(cfg) for i, fn in enumerate(checks)]
    status = "pass" if all(c.status == "pass" for c in results) else "fail"
    return Report(status, cfg, results)


def default_config() -> SweepConfig:
    return SweepConfig()


def load_config(path: str) -> SweepConfig:
    """Flat key = value file mirroring SweepConfig; '#' starts a comment and
    each key may be given once."""
    values: dict = {}
    int_keys = {f.name for f in fields(SweepConfig)} - {"groups"}
    for where, key, val in spec_lines(path, "config", "key = value"):
        try:
            if key in values:
                raise SpecParseError(f"duplicate key {key!r}")
            if key == "groups":
                values[key] = tuple(g.strip() for g in val.split(",") if g.strip())
                for g in values[key]:
                    parse_group(g)
            elif key in int_keys:
                try:
                    values[key] = int(val)
                except ValueError:
                    raise SpecParseError(f"{key} needs an integer") from None
            else:
                raise SpecParseError(f"unknown key {key!r}")
            _check_field(key, values[key])
        except (SpecParseError, PreconditionError) as exc:
            raise type(exc)(f"{where}: {exc}") from None
    try:
        return SweepConfig(**values)
    except PreconditionError as exc:
        raise PreconditionError(f"{path}: {exc}") from None
