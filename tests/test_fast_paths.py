"""The fast paths of specialization, character arithmetic and the complete-flag
enumeration, each checked against a plain reference written here."""

import itertools
import random
from collections import Counter

import pytest

from equibord import symalg
from equibord.coeff import CoeffPoly
from equibord.errors import MismatchError, PreconditionError
from equibord.flags import Flag, ProjClass
from equibord.groups import Character, parse_group
from equibord.sparse import mono
from equibord.symalg import BExpr, LocFraction, SymPoly, to_b_generators
from equibord.verify import _complete_flags

GROUPS = ("1", "Z4", "Z2xZ2", "Z2xZ4")


# specialization ---------------------------------------------------------


def _naive_coeff(p: CoeffPoly, assignment: dict) -> CoeffPoly:
    """Term by term with the ring operators, symbols left alone unless assigned."""
    values = {
        ch.residues: v if isinstance(v, CoeffPoly) else CoeffPoly.const(p.group, v)
        for ch, v in assignment.items()
    }
    out = CoeffPoly.zero(p.group)
    for m, c in p.terms.items():
        term = CoeffPoly.const(p.group, c)
        for rs, k in m:
            base = values.get(rs, CoeffPoly(p.group, {((rs, 1),): 1}))
            term = term * base**k
        out = out + term
    return out


def _naive(x, assignment: dict):
    if isinstance(x, CoeffPoly):
        return _naive_coeff(x, assignment)
    if isinstance(x, ProjClass):
        return ProjClass(x.flag, {i: _naive_coeff(c, assignment) for i, c in x.coeffs.items()})
    if isinstance(x, SymPoly):
        return SymPoly(x.flag, x.shift, {m: _naive_coeff(c, assignment) for m, c in x.terms.items()})
    return LocFraction(_naive(x.num, assignment), x.denom, x.mode)


def _random_coeff(rng: random.Random, group) -> CoeffPoly:
    nontrivial = [c.residues for c in group.characters() if not c.is_trivial]
    terms = {}
    for _ in range(rng.randint(0, 4)):
        size = rng.randint(0, 3) if nontrivial else 0
        terms[mono(Counter(rng.choice(nontrivial) for _ in range(size)))] = rng.randint(-3, 3)
    return CoeffPoly(group, terms)


def _random_values(rng: random.Random, flag: Flag) -> list:
    """The all-zero, partial, integer-valued, polynomial-valued and empty assignments."""
    group = flag.group
    nontrivial = [c for c in group.characters() if not c.is_trivial]
    partial = rng.sample(nontrivial, k=len(nontrivial) // 2)
    return [
        {c: 0 for c in nontrivial},
        {c: rng.choice((0, 2, _random_coeff(rng, group))) for c in partial},
        {c: rng.randint(-2, 2) for c in nontrivial},
        {c: _random_coeff(rng, group) for c in nontrivial},
        {},
    ]


def _random_values_of_each_class(rng: random.Random, flag: Flag) -> list:
    shift = rng.choice((-2, 2))
    sym = SymPoly(
        flag, shift,
        {mono(Counter(rng.randint(0, flag.length) for _ in range(rng.randint(0, 3)))):
         _random_coeff(rng, flag.group) for _ in range(rng.randint(0, 4))},
    )
    denom = Counter(rng.choice(flag.chars) for _ in range(rng.randint(0, 3)))
    return [
        _random_coeff(rng, flag.group),
        ProjClass(flag, {i: _random_coeff(rng, flag.group) for i in range(flag.length + 1)}),
        sym,
        LocFraction(sym, denom, "MUP"),
    ]


@pytest.mark.parametrize("spec", GROUPS)
def test_specialize_matches_term_by_term_reference(spec):
    rng = random.Random(f"specialize-{spec}")
    group = parse_group(spec)
    flag = Flag.cyclic(group, group.order + 1)
    for _ in range(40):
        for x in _random_values_of_each_class(rng, flag):
            for assignment in _random_values(rng, flag):
                got = x.specialize(assignment)
                want = _naive(x, assignment)
                assert type(got) is type(want)
                assert got == want
                if isinstance(got, LocFraction):
                    assert got.num == want.num and got.denom == want.denom


def _raised(fn):
    with pytest.raises((MismatchError, PreconditionError)) as info:
        fn()
    return info.type, str(info.value)


def test_specialize_errors_in_assignment_order():
    z4 = parse_group("Z4")
    flag = Flag.cyclic(z4, 4)
    one, two = z4.character((1,)), z4.character((2,))
    foreign = parse_group("Z2").character((1,))
    bad_entries = [
        (z4.identity, 0, PreconditionError, "the trivial character has no Euler symbol"),
        (foreign, 0, MismatchError, f"assignment key {foreign!r} is not a character of Z4"),
        ("e[(1)]", 0, MismatchError, "assignment key 'e[(1)]' is not a character of Z4"),
        (two, "x", PreconditionError, "assignment value 'x' is not a coefficient"),
        (two, CoeffPoly.one(parse_group("Z2")), MismatchError,
         "coefficient polynomials over different groups"),
    ]
    e1 = CoeffPoly.euler(one)
    values = [
        e1 * e1 + 3,
        ProjClass(flag, {0: 1, 2: e1}),
        SymPoly(flag, -2, {((1, 2),): e1}),
        LocFraction(SymPoly(flag, -2, {((0, 1),): e1}), {one: 1}, "MUP"),
    ]
    zeros = [
        CoeffPoly.zero(z4),
        ProjClass(flag, {}),
        SymPoly.zero(flag, -2),
        LocFraction(SymPoly.zero(flag, 2), {z4.identity: 1}, "mUP"),
        BExpr.zero(flag, "b"),
    ]
    for first, second in itertools.permutations(bad_entries, 2):
        assignment = {one: 0}
        for key, val, _, _ in (first, second):
            assignment.setdefault(key, val)
        # the first bad entry in assignment order is the one reported
        expected = next(
            (cls, msg) for key, val, cls, msg in (first, second)
            if assignment[key] is val
        )
        # a zero value checks the assignment too
        for x in values + zeros:
            assert _raised(lambda: x.specialize(assignment)) == expected


# characters ---------------------------------------------------------------


@pytest.mark.parametrize("spec", GROUPS)
def test_character_arithmetic_matches_validated_construction(spec):
    group = parse_group(spec)
    orders = group.cyclic_orders
    chars = group.characters()
    assert chars == [Character(group, rs) for rs in itertools.product(*map(range, orders))]
    assert [hash(c) for c in chars] == [hash(Character(group, c.residues)) for c in chars]
    twin = parse_group(spec)  # an equal group that is a different object
    assert twin == group and twin is not group
    for a in chars:
        inv = Character(group, tuple((-r) % n for r, n in zip(a.residues, orders)))
        assert a.inverse() == inv and hash(a.inverse()) == hash(inv)
        for b in chars:
            ab = Character(group, tuple((x + y) % n for x, y, n in zip(a.residues, b.residues, orders)))
            for got in (a * b, a * Character(twin, b.residues)):
                assert got == ab and hash(got) == hash(ab)
            rep = Flag(group, (group.identity, b, a, b)).rep(4)
            twisted = rep.tensor(a)
            want = sorted((
                Character(group, tuple((x + y) % n for x, y, n in zip(a.residues, c.residues, orders)))
                for c in rep.summands
            ), key=lambda c: c.residues)
            assert twisted.summands == tuple(want)
            assert [hash(c) for c in twisted.summands] == [hash(c) for c in want]


def test_character_arithmetic_still_checks_groups():
    a = parse_group("Z4").character((1,))
    b = parse_group("Z2xZ2").character((1, 0))
    with pytest.raises(MismatchError):
        a * b
    with pytest.raises(MismatchError):
        Flag(b.group, (b.group.identity, b)).rep(2).tensor(a)


# complete flags ---------------------------------------------------------------


@pytest.mark.parametrize("spec", GROUPS)
def test_complete_flags_match_filtering_every_length(spec):
    group = parse_group(spec)
    chars = group.characters()
    want = [
        Flag(group, (chars[0],) + tail)
        for length in range(1, 7)
        for tail in itertools.product(chars, repeat=length - 1)
        if len({c.residues for c in (chars[0],) + tail}) == group.order
    ]
    assert list(_complete_flags(group, 6)) == want


# invariants of the generator rewrite ---------------------------------------


def test_generator_rewrite_reports_colliding_monomials(monkeypatch):
    z2 = parse_group("Z2")
    flag = Flag.cyclic(z2, 2)
    # beta[0] + 1 is mixed in dimension; with the dimension check bypassed
    # both monomials rewrite to the empty generator monomial
    mixed = LocFraction(SymPoly(flag, -2, {((0, 1),): 1, (): 1}), {}, "MUP")
    monkeypatch.setattr(symalg, "dim_degree", lambda a: 0)
    with pytest.raises(RuntimeError, match="one dimension rewrite to"):
        to_b_generators(mixed)
