"""The fast paths of specialization, character arithmetic and interning,
representations and their Euler classes, the flag stage and
first-occurrence tables, the kernel-result constructors, the complete-flag
enumeration, the collapse check's specialize-then-lift, the coaugmentation
class, the duality route's shared stage values, the augmentation values
the group remembers, powers, the sweeps' random draws and their bounded
ints, the generator rewrite, the constructors that skip validation,
monomial and single-term coefficient products and the retraction.  Each
is checked against the engine's own validated path, or against an
independent reference from tests/reference.py."""

import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from equibord import symalg, verify
from equibord.coeff import CoeffPoly, euler_class, specializer
from equibord.errors import MismatchError, PreconditionError
from equibord.flags import Flag, ProjClass, aug, coaug, coaug_via_duality
from equibord.groups import Character, Representation, euler_unit, parse_group
from equibord.sparse import mul_terms
from equibord.symalg import (
    BExpr, LocFraction, SymPoly, expand_b, invertible_characters, lift_to_common, retract,
    to_b_generators, to_c_generators,
)
from equibord.verify import (
    DEFAULT_GROUPS, _basis_monomials, _complete_flags, _duality_sweep, _mutated_aug,
    _random_dim0_fraction, _specialized_lift,
)
import reference

GROUPS = ("1", "Z4", "Z2xZ2", "Z2xZ4")


def _residues(flag: Flag) -> tuple:
    """The flag's characters as residue tuples, the reference's form."""
    return tuple(c.residues for c in flag.chars)


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
        terms[reference.mono(Counter(rng.choice(nontrivial) for _ in range(size)))] = rng.randint(-3, 3)
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
        {reference.mono(Counter(rng.randint(0, flag.length) for _ in range(rng.randint(0, 3)))):
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
    assert chars == [Character(group, rs) for rs in reference.ranked(orders)]
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


@pytest.mark.parametrize("spec", GROUPS)
def test_interning_gives_one_object_per_residue_tuple(spec):
    group = parse_group(spec)
    chars = group.characters()
    assert chars[0] is group.identity
    assert all(c is d for c, d in zip(chars, group.characters()))
    interned = {c.residues: c for c in chars}
    for a in chars:
        assert group.character(a.residues) is a
        assert a.inverse() is interned[a.inverse().residues]
        for b in chars:
            assert a * b is interned[(a * b).residues]
            assert a * b is b * a


def test_validated_construction_equals_the_interned_character():
    group = parse_group("Z2xZ4")
    for a in group.characters():
        fresh = Character(group, a.residues)
        assert fresh == a and hash(fresh) == hash(a)
        assert fresh * group.identity is a
        assert fresh.inverse() is a.inverse()
    for bad in [(2, 0), (0, 4), (0, -1), (1,), (0, 0, 0)]:
        with pytest.raises(PreconditionError, match="out of range"):
            Character(group, bad)


def test_unequal_groups_raise_after_a_product_is_remembered():
    z4, z2 = parse_group("Z4"), parse_group("Z2")
    a = z4.character((1,))
    assert a * z4.character((1,)) == z4.character((2,))
    # the remembered product is keyed by residues; (1,) of Z2 must not hit it
    with pytest.raises(MismatchError, match="^characters of different groups$"):
        a * z2.character((1,))
    with pytest.raises(MismatchError):
        z2.character((1,)) * a


def test_a_huge_group_allocates_no_per_character_table():
    tracemalloc.start()
    try:
        group = parse_group("Z100000000")
        a, b = group.character((99999999,)), group.character((12345,))
        assert (a * b).residues == (12344,)
        assert a.inverse().residues == (1,)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_characters_is_a_new_list_of_the_interned_characters():
    group = parse_group("Z2xZ4")
    first = group.characters()
    first.reverse()
    first.append(None)
    again = group.characters()
    assert again is not first
    assert [c.residues for c in again] == reference.ranked((2, 4))
    assert all(c is d for c, d in zip(again, group.characters()))


# representations ---------------------------------------------------------------


def _multisets(group, rng: random.Random) -> list:
    """The empty multiset, all-trivial ones, and seeded ones with repeats,
    part interned and part validated characters."""
    chars = group.characters()
    out = [[], [group.identity], [group.identity] * 3]
    for size in range(1, 9):
        for _ in range(4):
            picks = [rng.choice(chars) for _ in range(size)]
            out.append([c if rng.random() < 0.5 else Character(group, c.residues) for c in picks])
    return out


@pytest.mark.parametrize("spec", GROUPS)
def test_representations_and_euler_classes_match_the_counting_definition(spec):
    group = parse_group(spec)
    rng = random.Random(f"representations-{spec}")
    for chars in _multisets(group, rng):
        alpha = rng.choice(group.characters())
        for rep in (Representation(group, chars), Representation(group, chars).tensor(alpha)):
            summands = list(rep.summands)
            assert [c.residues for c in summands] == sorted(c.residues for c in summands)
            assert rep.contains_trivial == any(c.is_trivial for c in summands)
            assert euler_class(rep).terms == reference.euler_class([c.residues for c in summands])
        assert Counter(Representation(group, chars).summands) == Counter(chars)


def test_tensor_checks_the_group_even_after_a_product_is_remembered():
    z4, z5 = parse_group("Z4"), parse_group("Z5")
    rep = Representation(z4, [z4.character((1,)), z4.character((3,))])
    alpha = z4.character((1,))
    assert [c.residues for c in rep.tensor(alpha).summands] == [(0,), (2,)]
    twin = parse_group("Z4").character((1,))
    assert rep.tensor(twin).summands == rep.tensor(alpha).summands
    # products of a Z5 character remembered under the residues (1,) and (3,)
    foreign = z5.character((1,))
    assert foreign * z5.character((1,)) is z5.character((2,))
    assert foreign * z5.character((3,)) is z5.character((4,))
    with pytest.raises(MismatchError, match="^characters of different groups$"):
        rep.tensor(foreign)
    with pytest.raises(MismatchError, match="^characters of different groups$"):
        Representation(z5, [z5.character((1,))]).tensor(alpha)


# flag tables -----------------------------------------------------------------


def _repeating_flags(group, rng: random.Random) -> list:
    chars = group.characters()
    return [
        Flag(group, (group.identity,) + tuple(rng.choice(chars) for _ in range(length)))
        for length in range(0, 9)
        for _ in range(3)
    ]


@pytest.mark.parametrize("spec", GROUPS)
def test_flag_stages_are_the_prefixes(spec):
    # each stage's key counts the trivial summands and adds up the Euler
    # units of the others, and two stages share a key exactly when they are
    # one multiset
    group = parse_group(spec)
    multisets = {}
    for flag in _repeating_flags(group, random.Random(f"stages-{spec}")):
        keys = flag._stage_keys()
        assert flag._keys is keys and len(keys) == flag.length + 1
        for i in range(flag.length + 1):
            summands = flag.rep(i).summands
            assert summands == Representation(group, flag.chars[:i]).summands
            assert flag.rep(i) is not flag.rep(i)
            trivial = sum(c.is_trivial for c in summands)
            e = sum(euler_unit(group, c.residues) for c in summands if not c.is_trivial)
            assert keys[i] == (trivial, e)
            assert multisets.setdefault(keys[i], summands) == summands
    assert len(set(multisets.values())) == len(multisets)


@pytest.mark.parametrize("spec", GROUPS)
def test_first_occurrence_table_matches_a_linear_scan(spec):
    group = parse_group(spec)
    twin = parse_group(spec)
    foreign = parse_group("Z3xZ3")
    for flag in _repeating_flags(group, random.Random(f"first-{spec}")):
        for alpha in group.characters():
            scan = next((i for i, c in enumerate(flag.chars, start=1) if c == alpha), None)
            assert flag.first_index(alpha) == scan
            assert flag.first_index(Character(twin, alpha.residues)) == scan
            if scan is None:
                with pytest.raises(PreconditionError, match="does not occur"):
                    flag.occurrence(alpha)
            else:
                assert flag.occurrence(alpha) == scan
        assert flag.is_complete == (len({c.residues for c in flag.chars}) == group.order)
        assert flag.first_index(foreign.identity) is None
        with pytest.raises(MismatchError):
            flag.occurrence(foreign.identity)


@pytest.mark.parametrize("spec", ("Z4", "Z2xZ2"))
def test_unchecked_flags_equal_the_validated_ones(spec):
    group = parse_group(spec)
    flags = list(_complete_flags(group, 6))
    assert len(flags) == 456  # 1,824 duality cases over 4 characters
    for flag in flags:
        unchecked = Flag._of(group, flag.chars)
        copied = Flag(group, [Character(group, c.residues) for c in flag.chars])
        for checked in (Flag(group, flag.chars), copied):
            assert unchecked == checked and hash(unchecked) == hash(checked)
            assert list(unchecked._first.items()) == list(checked._first.items())
            for i in range(flag.length + 1):
                assert unchecked.rep(i).summands == checked.rep(i).summands


# kernel-result constructors ------------------------------------------------------


def test_cancelling_sympoly_sums_and_products_are_zero():
    z4 = parse_group("Z4")
    flag = Flag.cyclic(z4, 4)
    e1 = CoeffPoly.euler(z4.character((1,)))
    x = SymPoly(flag, -2, {((0, 1),): e1, ((2, 1),): 3})
    y = SymPoly(flag, -2, {((0, 1),): -e1, ((2, 1),): -3})
    for zero in (x + y, x - x, -x + x, x * 0, x * CoeffPoly.zero(z4), (x + y) * x):
        assert zero.is_zero and zero.terms == {} and zero == 0
    b0, b1 = SymPoly.var(flag, -2, 0), SymPoly.var(flag, -2, 1)
    square_diff = (b0 + b1) * (b0 - b1)
    assert square_diff.terms == (b0 * b0 - b1 * b1).terms
    assert ((0, 1), (1, 1)) not in square_diff.terms  # the cross terms cancel
    assert all(not c.is_zero for c in square_diff.terms.values())
    half = SymPoly(flag, -2, {((1, 1),): e1})
    assert (half + SymPoly(flag, -2, {((1, 1),): -e1}) + x).terms == x.terms


def test_public_sympoly_construction_keeps_every_check():
    z4 = parse_group("Z4")
    flag = Flag.cyclic(z4, 3)
    with pytest.raises(PreconditionError, match=r"^beta index 4 out of range 0\.\.3$"):
        SymPoly(flag, -2, {((4, 1),): 1})
    with pytest.raises(PreconditionError, match=r"^beta index -1 out of range 0\.\.3$"):
        SymPoly(flag, -2, {((-1, 1),): 1})
    for k in (0, -2):
        with pytest.raises(PreconditionError, match=r"^nonpositive exponent on beta\[1\]$"):
            SymPoly(flag, -2, {((1, k),): 1})
    with pytest.raises(MismatchError, match="^coefficient over a different group$"):
        SymPoly(flag, -2, {((1, 1),): CoeffPoly.one(parse_group("Z2"))})
    with pytest.raises(PreconditionError, match="^shift must be one of"):
        SymPoly(flag, 1, {})
    assert SymPoly(flag, 2, {((1, 1),): 0, (): 2}).terms == {(): CoeffPoly.const(z4, 2)}


def _fields(x: LocFraction) -> tuple:
    return x.num.flag, x.num.shift, x.num.terms, x.denom, x.mode


@pytest.mark.parametrize("spec", GROUPS)
def test_unchecked_fractions_equal_the_validated_ones(spec):
    group = parse_group(spec)
    flag = Flag.cyclic(group, 4)
    zero = {c: 0 for c in group.characters() if not c.is_trivial}
    rng = random.Random(f"fractions-{spec}")
    for shift, mode in ((-2, "MUP"), (2, "MUP"), (2, "mUP")):
        xs = [_random_dim0_fraction(rng, flag, shift, mode, 3) for _ in range(8)]
        results = list(xs)
        for x, y in zip(xs, xs[1:]):
            results += [x * y, x + y, -x, x**2, x**0, x.specialize(zero)]
        if shift == -2:
            results += [expand_b(to_b_generators(x), mode) for x in xs]
        for got in results:
            assert _fields(got) == _fields(LocFraction(got.num, got.denom, mode))
        # zero exponents are dropped, as the validated constructor drops them
        padded = {al: 0 for al in invertible_characters(flag, mode)}
        for x in xs:
            denom = {**padded, **x.denom}
            got = LocFraction._of(x.num, denom, mode)
            assert _fields(got) == _fields(LocFraction(x.num, denom, mode))
            assert 0 not in got.denom.values()


# complete flags ---------------------------------------------------------------


def _assert_complete_flags_are_the_reference(group, max_len: int):
    """For each bound k up to max_len, the complete flags up to length k are
    the reference's filter of every tail, length by length, as flags over
    group: by length, then by the ranks of the characters."""
    for k in range(1, max_len + 1):
        flags = _complete_flags(group, k)
        assert not isinstance(flags, list)  # a generator, as tests patch it
        flags = list(flags)
        assert all(f.group is group for f in flags)
        want = reference.complete_flags(group.cyclic_orders, k)
        assert [_residues(f) for f in flags] == list(want)


@pytest.mark.parametrize("spec", GROUPS)
def test_complete_flags_match_filtering_every_length(spec):
    _assert_complete_flags_are_the_reference(parse_group(spec), 6)


@pytest.mark.parametrize("spec, max_len", [("Z3", 8), ("Z2xZ2", 7), ("Z5", 7), ("1", 7), ("Z2", 7),
                                           ("Z4", 7), ("Z3", 9), ("Z2xZ2", 8)])
def test_complete_flags_match_filtering_past_the_group_order(spec, max_len):
    _assert_complete_flags_are_the_reference(parse_group(spec), max_len)


def test_complete_flags_of_an_order_8_group_at_length_8():
    group = parse_group("Z2xZ4")
    rank = {c: i for i, c in enumerate(group.characters())}
    flags = list(_complete_flags(group, 8))
    assert len(flags) == 5040  # the 7! orders of the nontrivial characters
    assert all(f.is_complete and f.length == 8 for f in flags)
    tails = [[rank[c] for c in f.chars] for f in flags]
    assert tails == sorted(tails) and len({tuple(t) for t in tails}) == len(tails)


# the collapse check's specialize-then-lift ------------------------------------


@pytest.mark.parametrize("spec", DEFAULT_GROUPS)
def test_specialize_then_lift_equals_lift_then_specialize(spec):
    group = parse_group(spec)
    flag = Flag.cyclic(group, max(group.order, 2))
    zero = {c: 0 for c in group.characters() if not c.is_trivial}
    rng = random.Random(f"collapse-{spec}")
    thetas = {al: symalg.theta_sym(flag, -2, al).specialize(zero) for al in group.characters()}
    for _ in range(6):
        x = _random_dim0_fraction(rng, flag, -2, "MUP", 4)
        y = _random_dim0_fraction(rng, flag, -2, "MUP", 4)
        e = to_b_generators(x)
        bare = expand_b(BExpr(e.flag, e.family, e.terms, {}), "MUP")
        for a, b in ((x, y), (expand_b(e, "MUP"), bare)):
            lhs, rhs, _ = lift_to_common(a, b)
            got = _specialized_lift(a, b, specializer(group, zero), thetas)
            assert all(isinstance(p, SymPoly) for p in got)
            assert got == (lhs.specialize(zero), rhs.specialize(zero))


# the coaugmentation class -------------------------------------------------------


_unpacked: dict = {}


def _terms(c: CoeffPoly) -> dict:
    """c.terms, unpacked once per object and packed value: coaug's
    coefficients are shared nodes of the group's table of monomials."""
    seen = _unpacked.get(id(c))
    if seen is None or seen[1] != c.packed:
        seen = _unpacked[id(c)] = (c, dict(c.packed), c.terms)  # c kept, so its id is not reused
    return seen[2]


def _assert_coaug_is_the_reference(got: ProjClass, flag: Flag, alpha: Character):
    """got is the reference class of alpha over flag, a class over flag
    whose coefficients are over its group."""
    want = reference.coaug(flag.group.cyclic_orders, _residues(flag), alpha.residues)
    assert {i: _terms(c) for i, c in got.coeffs.items()} == want, (flag, alpha)
    assert got.flag is flag and all(c.group is flag.group for c in got.coeffs.values())


def _checked_coaug(seen: list):
    """coaug that compares its class with the reference, and counts its
    calls in seen."""

    def closed(flag, alpha):
        got = coaug(flag, alpha)
        _assert_coaug_is_the_reference(got, flag, alpha)
        seen.append(1)
        return got

    return closed


@pytest.mark.parametrize("spec", DEFAULT_GROUPS)
def test_coaug_matches_the_residue_loop(spec):
    # every character over the default flags of every length up to twice the
    # group order and over seeded random ones, some of validated characters;
    # the twists come from the group's residue sums, filled as they go
    group = parse_group(spec)
    twin = parse_group(spec)
    flags = [Flag.cyclic(group, n) for n in range(1, 2 * group.order + 1)]
    flags += _repeating_flags(group, random.Random(f"coaug-{spec}"))
    flags += [Flag(group, [Character(group, c.residues) for c in f.chars]) for f in flags[-6:]]
    for flag in flags:
        for alpha in group.characters() + [Character(twin, group.characters()[-1].residues)]:
            if flag.first_index(alpha) is None:
                with pytest.raises(PreconditionError, match="does not occur"):
                    coaug(flag, alpha)
                continue
            _assert_coaug_is_the_reference(coaug(flag, alpha), flag, alpha)


def test_coaug_over_a_huge_group_allocates_no_per_character_table():
    tracemalloc.start()
    try:
        group = parse_group("Z100000000")
        alpha = group.character((99999999,))
        flag = Flag(group, [group.identity, group.character((12345,)), alpha])
        got = coaug(flag, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    _assert_coaug_is_the_reference(got, flag, alpha)
    assert [c.terms for c in got.coeffs.values()] == [
        {(): 1}, {(((1,), 1),): 1}, {(((1,), 1), ((12346,), 1)): 1}
    ]


# the duality route's shared stage values ----------------------------------------


def _unshared_sweep(groups, max_len: int, augmentation) -> tuple:
    """The duality sweep with every stage value computed afresh in every case."""

    def cases():
        for gspec in groups:
            group = parse_group(gspec)
            for flag in verify._complete_flags(group, max_len):
                for alpha in group.characters():
                    closed = coaug(flag, alpha)
                    dual = coaug_via_duality(flag, alpha, augmentation)
                    yield None if closed == dual else verify._cx(
                        gspec, flag, f"({closed}) == ({dual})",
                        alpha=alpha, closed_form=closed, duality=dual,
                    )

    return verify._first_failure(cases())


def _checked_route(direct, seen: list, share: float = 1.0):
    """coaug_via_duality that compares the class assembled from the stage
    values it is given with the one assembled from direct calls, stage by
    stage, on a fixed seeded sample of about share of its cases, and counts
    every case in seen."""
    rng = random.Random("checked-route")

    def route(flag, alpha, augmentation):
        got = coaug_via_duality(flag, alpha, augmentation)
        if share >= 1 or rng.random() < share:
            assert got == coaug_via_duality(flag, alpha, direct), (flag, alpha)
        seen.append(1)
        return got

    return route


@pytest.mark.parametrize(
    "spec, max_len, cases, share",
    [("Z4", 6, 1824, 1), ("Z2xZ2", 6, 1824, 1), ("Z6", 6, 720, 1), ("Z2xZ4", 8, 40320, 1 / 32)],
)
def test_both_routes_match_their_references(monkeypatch, spec, max_len, cases, share):
    # every character of every complete flag: coaug against the residue
    # loop, and the shared stage values against direct aug calls; on Z2xZ4
    # the latter only on a sample, as its 362,880 direct calls would make up
    # most of tier 1 (CI's Z2xZ4 step compares the two routes on all of it)
    closed, dual = [], []
    monkeypatch.setattr(verify, "coaug", _checked_coaug(closed))
    monkeypatch.setattr(verify, "coaug_via_duality", _checked_route(aug, dual, share))
    assert _duality_sweep((spec,), max_len) == (cases, None)
    assert len(closed) == len(dual) == cases


@pytest.mark.parametrize(
    "groups, max_len",
    [(("Z2",), 5), (("Z4",), 5), (("Z4",), 6), (("Z2xZ2", "Z6"), 6), (("Z3", "Z2", "Z4"), 6)],
)
@pytest.mark.parametrize("augmentation", [aug, _mutated_aug], ids=["aug", "mutated"])
def test_shared_sweep_matches_the_unshared_route(groups, max_len, augmentation):
    got = _duality_sweep(groups, max_len, augmentation)
    assert got == _unshared_sweep(groups, max_len, augmentation)


@st.composite
def _flag_runs(draw):
    """A group and a run of complete flags over it, as residue tuples; each
    flag keeps a prefix of the one before, of any length."""
    spec = draw(st.sampled_from(("Z2", "Z3", "Z4", "Z2xZ2", "Z6")))
    chars = [c.residues for c in parse_group(spec).characters()]
    runs, prev = [], chars[:1]
    for _ in range(draw(st.integers(1, 6))):
        body = prev[: draw(st.integers(1, len(prev)))]
        body += draw(st.lists(st.sampled_from(chars), max_size=4))
        order = draw(st.permutations(chars[1:]))
        prev = body + [c for c in order if c not in body]
        runs.append(prev)
    return spec, runs


@settings(derandomize=True, deadline=None)
@given(_flag_runs(), st.sampled_from((aug, _mutated_aug)))
def test_sharing_holds_over_random_flag_runs(run, augmentation):
    spec, runs = run

    def flags(group, max_len):
        return (Flag(group, [group.character(rs) for rs in chars]) for chars in runs)

    with mock.patch.object(verify, "_complete_flags", flags):
        want = _unshared_sweep((spec,), 0, augmentation)
        seen = []
        with mock.patch.object(verify, "coaug_via_duality", _checked_route(augmentation, seen)):
            assert _duality_sweep((spec,), 0, augmentation) == want
    assert len(seen) == want[0]


# the augmentation values the group remembers -------------------------------------


def _reference_aug(flag: Flag, alpha: Character, i: int) -> dict:
    """The terms of aug(flag, alpha, i) by the reference."""
    return reference.aug(flag.group.cyclic_orders, _residues(flag)[:i], alpha.residues)


@pytest.mark.parametrize("spec", ("Z4", "Z2xZ2"))
def test_aug_matches_an_unremembered_twist(spec):
    # every stage of every complete flag, against every character and every
    # character of a second parse of the group, which share remembered values
    group = parse_group(spec)
    alphas = group.characters() + parse_group(spec).characters()
    for flag in _complete_flags(group, 6):
        for alpha in alphas:
            for i in range(flag.length + 1):
                got = aug(flag, alpha, i)
                assert got.terms == _reference_aug(flag, alpha, i) and got.group is group


@pytest.mark.parametrize("spec", ("Z4", "Z2xZ2"))
@pytest.mark.parametrize("order", ("down", "shuffled"))
def test_aug_asked_out_of_order_matches_an_unremembered_twist(spec, order):
    # on a fresh parse, each stage asked for top down or at random, so most
    # walks start from a stage below the one asked for, or from stage 0
    group = parse_group(spec)
    rng = random.Random(f"{spec}-{order}")
    for flag in _complete_flags(group, 6):
        for alpha in group.characters():
            steps = list(range(flag.length, -1, -1))
            if order == "shuffled":
                rng.shuffle(steps)
            for i in steps:
                assert aug(flag, alpha, i).terms == _reference_aug(flag, alpha, i)


@pytest.mark.parametrize("spec", GROUPS)
def test_stages_of_one_multiset_are_one_object(spec):
    # flags whose i-th stages hold one multiset read one remembered value,
    # the one object in group._augs, while a twin parse of the group keeps
    # a table of its own
    group = parse_group(spec)
    twin = parse_group(spec)
    chars = group.characters()
    rng = random.Random(f"one-stage-{spec}")
    for flag in _repeating_flags(group, rng):
        for i in range(1, flag.length + 1):
            head = list(flag.chars[1:i])
            rng.shuffle(head)
            tail = [rng.choice(chars) for _ in range(rng.randint(0, 3))]
            # a permuted prefix of validated copies, then any tail
            other = Flag(group, [Character(group, c.residues) for c in [group.identity, *head]] + tail)
            key = flag._stage_keys()[i]
            assert other._stage_keys()[i] == key
            twin_flag = Flag(twin, [twin.character(c.residues) for c in flag.chars])
            for alpha in rng.sample(chars, min(3, len(chars))):
                value = aug(flag, alpha, i)
                assert aug(other, alpha, i) is value
                assert group._augs[alpha.residues][key] is value
                twin_value = aug(twin_flag, alpha, i)
                assert twin_value == value and twin_value is not value
                assert twin_value.group is twin
                assert twin._augs[alpha.residues][key] is twin_value
                assert group._augs[alpha.residues][key] is value
    assert twin._augs is not group._augs


def test_an_injected_augmentation_leaves_the_remembered_values_alone(monkeypatch):
    group = parse_group("Z4")
    monkeypatch.setattr(verify, "parse_group", lambda spec: group)
    mutated = _duality_sweep(("Z4",), 5, _mutated_aug)
    assert mutated[1] is not None
    assert not group._augs  # the mutated route writes nothing to the table
    flags = list(_complete_flags(group, 5))
    for flag in flags:
        for alpha in group.characters():
            for i in range(flag.length + 1):
                assert aug(flag, alpha, i).terms == _reference_aug(flag, alpha, i)
    # with every value remembered, the mutated route still reads none of
    # them and writes none
    assert all(
        flag._keys[i] in group._augs[alpha.residues]
        for flag in flags for alpha in group.characters() for i in range(1, flag.length + 1)
    )
    remembered = {a: dict(values) for a, values in group._augs.items()}
    assert _duality_sweep(("Z4",), 5, _mutated_aug) == mutated
    assert group._augs.keys() == remembered.keys()
    for a, values in group._augs.items():
        assert values.keys() == remembered[a].keys()
        assert all(v is remembered[a][k] for k, v in values.items())
    assert _duality_sweep(("Z4",), 5) == (4 * 66, None)  # 66 complete flags


def test_aug_refuses_a_stage_index_out_of_range():
    group = parse_group("Z4")
    flag = Flag.cyclic(group, 4)
    for alpha in group.characters():
        for i in (-1, flag.length + 1):
            with pytest.raises(PreconditionError, match=rf"^stage index {i} out of range 0\.\.4$"):
                aug(flag, alpha, i)
    assert not group._augs and flag._keys is None


def test_a_wrong_value_in_the_table_is_caught_by_the_duality_check(monkeypatch):
    poisoned = parse_group("Z4")
    flag = Flag.cyclic(poisoned, 4)
    alpha = poisoned.character((1,))
    # stage 1, every flag's trivial summand, twisted by alpha^{-1} is e[(3)]
    assert aug(flag, alpha, 1) == CoeffPoly.euler(poisoned.character((3,)))
    poisoned._augs[alpha.residues][flag._keys[1]] = -aug(flag, alpha, 1)
    monkeypatch.setattr(verify, "parse_group", lambda spec: poisoned)
    cases, cx = _duality_sweep(("Z4",), 5)
    assert cx is not None and cx["alpha"] == "(1)"
    monkeypatch.undo()
    assert _duality_sweep(("Z4",), 5) == (4 * 66, None)


def test_aug_over_a_huge_group_allocates_no_per_character_table():
    tracemalloc.start()
    try:
        group = parse_group("Z100000000")
        alpha = group.character((99999999,))
        flag = Flag(group, [group.identity, group.character((12345,)), alpha])
        got = [aug(flag, alpha, i) for i in range(flag.length + 1)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert [c.terms for c in got] == [_reference_aug(flag, alpha, i) for i in range(flag.length + 1)]
    assert [c.terms for c in got] == [{(): 1}, {(((1,), 1),): 1}, {(((1,), 1), ((12346,), 1)): 1}, {}]


# powers -----------------------------------------------------------------------


@pytest.mark.parametrize("spec", GROUPS)
def test_powers_match_repeated_multiplication(spec):
    group = parse_group(spec)
    flag = Flag.cyclic(group, 4)
    rng = random.Random(f"powers-{spec}")
    for _ in range(8):
        _, _, sym, frac = _random_values_of_each_class(rng, flag)
        coeff = _random_coeff(rng, group)
        for x, one in ((coeff, CoeffPoly.one(group)), (sym, SymPoly.one(flag, sym.shift))):
            assert x**0 == one and (x**0).terms == one.terms
            assert x**1 is x
            assert x**3 == x * x * x
        one = LocFraction(SymPoly.one(flag, frac.num.shift), {}, frac.mode)
        assert _fields(frac**0) == _fields(one)
        assert _fields(frac**1) == _fields(frac)
        assert _fields(frac**3) == _fields(frac * frac * frac)


# the sweeps' random draws -------------------------------------------------------


def _arithmetic_random_coeff(rng: random.Random, group) -> CoeffPoly:
    """The sweeps' coefficient draw through the ring operators."""
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


def _arithmetic_random_numerator(rng: random.Random, flag: Flag, shift: int, dim: int) -> SymPoly:
    """The sweeps' numerator draw, summing coefficients onto a zero."""
    while True:
        terms: dict = {}
        for _ in range(rng.randint(1, 3)):
            m = reference.mono(Counter(rng.randint(0, flag.length) for _ in range(dim)))
            c = _arithmetic_random_coeff(rng, flag.group)
            zero = CoeffPoly.zero(flag.group)
            terms[m] = terms.get(m, zero) + c
        x = SymPoly(flag, shift, terms)
        if not x.is_zero:
            return x


def _counted_denominator(rng: random.Random, flag: Flag, mode: str, total: int) -> Counter:
    """The sweeps' denominator draw, counted with a Counter."""
    return Counter(rng.choice(invertible_characters(flag, mode)) for _ in range(total))


def _counted_dim0_fraction(rng, flag, shift, mode, max_dim) -> LocFraction:
    """The sweeps' fraction draw through the validated constructors."""
    total = rng.randint(0, max_dim)
    denom = _counted_denominator(rng, flag, mode, total)
    return LocFraction(_arithmetic_random_numerator(rng, flag, shift, total), denom, mode)


@pytest.mark.parametrize("spec", DEFAULT_GROUPS)
def test_random_draws_match_the_ring_arithmetic(spec):
    group = parse_group(spec)
    flag = Flag.cyclic(group, 6)
    for seed in range(3):
        fast, slow = random.Random(f"draws-{spec}-{seed}"), random.Random(f"draws-{spec}-{seed}")
        for _ in range(200):
            got, want = verify._random_coeff(fast, group), _arithmetic_random_coeff(slow, group)
            assert got == want and got.terms == want.terms
        assert fast.getstate() == slow.getstate()
        for _ in range(20):
            for shift in (-2, 2):
                for dim in range(5):
                    got = verify._random_numerator(fast, flag, shift, dim)
                    assert got == _arithmetic_random_numerator(slow, flag, shift, dim)
        assert fast.getstate() == slow.getstate()
        for mode, shift in (("MUP", -2), ("mUP", 2), ("MUP", 2)):
            for _ in range(4):
                for total in range(5):
                    got = verify._random_denominator(fast, flag, mode, total)
                    assert got == _counted_denominator(slow, flag, mode, total)
            assert fast.getstate() == slow.getstate()
            for _ in range(20):
                got = _random_dim0_fraction(fast, flag, shift, mode, 4)
                want = _counted_dim0_fraction(slow, flag, shift, mode, 4)
                assert _fields(got) == _fields(want)
            assert fast.getstate() == slow.getstate()
    for low in (0, 1):
        for n in range(5):
            want = [
                SymPoly(flag, -2, {reference.mono(Counter(combo)): 1})
                for combo in itertools.combinations_with_replacement(range(low, flag.length + 1), n)
            ]
            got = _basis_monomials(flag, -2, low, n)
            assert got == want and [x.terms for x in got] == [x.terms for x in want]


# invariants of the generator rewrite ---------------------------------------


def _validated_rewrite(a: LocFraction) -> BExpr:
    """The generator rewrite through the validated constructor."""
    terms = {reference.mono({i: k for i, k in m if i}): c for m, c in a.num.terms.items()}
    denom = {al: k for al, k in a.denom.items() if not al.is_trivial}
    return BExpr(a.num.flag, "b" if a.num.shift == -2 else "c", terms, denom)


@pytest.mark.parametrize("spec", GROUPS)
def test_generator_rewrites_equal_the_validated_ones(spec):
    group = parse_group(spec)
    flag = Flag.cyclic(group, 4)
    rng = random.Random(f"rewrites-{spec}")
    for shift, mode in ((-2, "MUP"), (2, "MUP"), (2, "mUP")):
        rewrite = to_b_generators if shift == -2 else to_c_generators
        xs = [LocFraction(SymPoly.zero(flag, shift), {}, mode)]
        xs += [_random_dim0_fraction(rng, flag, shift, mode, 4) for _ in range(30)]
        for x in xs:
            got, want = rewrite(x), _validated_rewrite(x)
            assert got == want and got.family == want.family and got.flag is flag
            assert list(got.terms.items()) == list(want.terms.items())
            assert list(got.denom.items()) == list(want.denom.items())


def test_generator_rewrite_reports_colliding_monomials(monkeypatch):
    z2 = parse_group("Z2")
    flag = Flag.cyclic(z2, 2)
    # beta[0] + 1 is mixed in dimension; with the dimension check bypassed
    # both monomials rewrite to the empty generator monomial
    mixed = LocFraction(SymPoly(flag, -2, {((0, 1),): 1, (): 1}), {}, "MUP")
    monkeypatch.setattr(symalg, "dim_degree", lambda a: 0)
    with pytest.raises(RuntimeError, match="one dimension rewrite to"):
        to_b_generators(mixed)


# monomial products, single-term coefficient products, the retraction ---------


def _monomials(variables, top: int) -> list:
    """Every monomial in variables with exponents up to top, the unit included."""
    return [
        tuple((v, k) for v, k in zip(variables, ks) if k)
        for ks in itertools.product(range(top + 1), repeat=len(variables))
    ]


def _packed_product(variables):
    """The product of two unpacked monomials in variables, taken by adding
    their packed forms: as SymPoly terms for beta indices, as CoeffPoly
    terms for residue tuples."""
    if isinstance(variables[0], int):
        flag = Flag.cyclic(parse_group("1"), 3)
        return lambda m1, m2: next(iter((SymPoly(flag, -2, {m1: 1}) * SymPoly(flag, -2, {m2: 1})).terms))
    group = parse_group("Z2xZ2xZ2")
    return lambda m1, m2: next(iter((CoeffPoly(group, {m1: 1}) * CoeffPoly(group, {m2: 1})).terms))


@pytest.mark.parametrize("variables", [(0, 1, 2, 3), ((0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0))],
                         ids=["beta-indices", "residue-tuples"])
def test_monomial_products_match_counting(variables):
    mono_mul = _packed_product(variables)
    ms = _monomials(variables, 2)
    for m1 in ms:
        for m2 in ms:
            assert mono_mul(m1, m2) == reference.mono_mul(m1, m2)
    a, b, c, d = variables
    cases = {
        "disjoint, first before second": (((a, 2),), ((b, 1), (c, 3))),
        "disjoint, second before first": (((c, 1), (d, 1)), ((a, 1),)),
        "interleaved": (((a, 1), (c, 1)), ((b, 2),)),
        "overlapping": (((a, 1), (b, 1)), ((b, 2), (c, 1))),
        "first empty": ((), ((a, 1), (b, 1))),
        "second empty": (((a, 1),), ()),
        "both empty": ((), ()),
    }
    for m1, m2 in cases.values():
        assert mono_mul(m1, m2) == reference.mono_mul(m1, m2) == mono_mul(m2, m1)


def _coeff_polys(group) -> list:
    """Constants, signed symbols, products of symbols and a few sums."""
    chars = group.characters()[1:]
    out = [CoeffPoly.const(group, n) for n in (1, -1, 3)]
    out += [CoeffPoly.euler(c) * s for c in chars for s in (1, -2)]
    out += [CoeffPoly.euler(c) * CoeffPoly.euler(d) for c in chars for d in chars]
    out += [CoeffPoly.euler(c) + 1 for c in chars]
    return out + [CoeffPoly.zero(group)]


@pytest.mark.parametrize("spec", ["1", "Z3", "Z2xZ2"])
def test_coefficient_products_match_the_kernel(spec):
    group, twin = parse_group(spec), parse_group(spec)
    xs = _coeff_polys(group)
    for x in xs:
        for y in xs + _coeff_polys(twin):
            got = x * y
            assert got.group is group
            want = mul_terms(x.packed, y.packed)
            assert got.packed == {m: c for m, c in want.items() if c}
        for n in (0, 1, -3):
            assert (x * n).terms == (n * x).terms == {m: n * c for m, c in x.terms.items() if n}
    with pytest.raises(MismatchError):
        CoeffPoly.one(group) * CoeffPoly.one(parse_group("Z5"))


def test_retraction_matches_monomial_division():
    z3 = parse_group("Z3")
    flag = Flag.cyclic(z3, 3)
    e1 = CoeffPoly.euler(z3.character((1,)))
    named = [
        SymPoly(flag, -2, {((0, 1), (2, 1)): e1}),  # beta_0 to the power 1
        SymPoly(flag, -2, {((0, 3), (1, 1)): 2, ((0, 4),): e1}),  # beta_0 to higher powers
        SymPoly(flag, -2, {((1, 2), (3, 1)): 1}),  # no beta_0
        SymPoly(flag, -2, {(): e1}),  # the unit monomial
    ]
    for n in range(5):
        named += _basis_monomials(flag, -2, 0, n)
    for x in named:
        got = retract(x)
        assert got.flag is flag and got.shift == -2
        # one beta_0 divided out of each monomial that has one; the others go
        assert got.terms == {
            q: c for m, c in x.terms.items() if (q := reference.mono_div(m, ((0, 1),))) is not None
        }
    with pytest.raises(PreconditionError, match="mixed dimension degrees"):
        retract(SymPoly(flag, -2, {((0, 1),): 1, ((0, 1), (1, 1)): 1}))
    with pytest.raises(PreconditionError, match="trivial character only"):
        retract(named[0], alpha=z3.character((1,)))


# the draws' bounded ints ------------------------------------------------------


def test_below_draws_the_stream_of_randrange():
    ns = set(range(1, 71)) | {(1 << 40) - 12345, (1 << 39) + 7}
    for k in range(1, 41):
        ns |= {(1 << k) - 1, 1 << k, (1 << k) + 1}
    for n in sorted(ns):
        ours, theirs = random.Random(f"below-{n}"), random.Random(f"below-{n}")
        for _ in range(8):
            assert verify._below(ours.getrandbits, n) == theirs.randrange(n)
            assert ours.getstate() == theirs.getstate()


# sha256 prefix of the str() of 100 draws per group and route ("MUP", -2),
# ("mUP", 2), ("MUP", 2); a change means the draws, and so every seeded
# verify report, have changed
DRAW_DIGESTS = {
    "1": ("81d4e9c18356e650", "567f612565b7d1db", "577726134c2b33b3"),
    "Z2": ("02f8d4e828762dfb", "e62bc5c3e3b1ebc0", "2a4d8630c942f90d"),
    "Z3": ("ff3a5479566b5b0e", "0efcd1b956e05842", "320ab6961ed33632"),
    "Z4": ("51412da84203a229", "5405f73a2e5940f8", "74209679828d8f48"),
    "Z2xZ2": ("0859e11f617f02b2", "14bd2df212a0dec9", "e4d58af9279b99f5"),
    "Z5": ("9b7f8c912a32db83", "ab702364cdfc346c", "ac6d883b9b9bd0bb"),
    "Z6": ("5b49c66fd5a85585", "64cc391d6f06547a", "ab01f106bd399932"),
    "Z2xZ3": ("3e0b1076fc94e085", "afdd867f47befdfe", "aab9cb246e059278"),
    "Z7": ("22c783e7ead925cb", "7c7d2c3d7bfeadf1", "1555f9ef90952c5a"),
    "Z8": ("06dbdb059c01ca91", "59e6f9b31e83a6d0", "78fac1bdf04b09a2"),
    "Z2xZ4": ("e7ff2cf3f273d093", "93093be9223169bc", "6b2bdd05e5aa0f54"),
    "Z2xZ2xZ2": ("3120e521aa6acb20", "e2d893a157000227", "d636fe0fc7a17b73"),
}


@pytest.mark.parametrize("spec", DEFAULT_GROUPS)
def test_seeded_draws_are_pinned(spec):
    flag = Flag.cyclic(parse_group(spec), 6)
    digests = []
    for mode, shift in (("MUP", -2), ("mUP", 2), ("MUP", 2)):
        rng = random.Random(f"pin-{spec}-{mode}{shift:+d}")
        text = "\n".join(str(_random_dim0_fraction(rng, flag, shift, mode, 4)) for _ in range(100))
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert tuple(digests) == DRAW_DIGESTS[spec]
