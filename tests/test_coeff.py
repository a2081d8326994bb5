import pytest

from equibord.coeff import CoeffPoly, euler_class
from equibord.errors import MismatchError, PreconditionError
from equibord.flags import parse_flag
from equibord.groups import parse_group

Z4 = parse_group("Z4")
E1 = CoeffPoly.euler(Z4.character((1,)))
E2 = CoeffPoly.euler(Z4.character((2,)))
E3 = CoeffPoly.euler(Z4.character((3,)))


def test_basic_ring_ops():
    p = E1 + E2
    q = E1 - E2
    assert p + q == 2 * E1
    assert p * q == E1 * E1 - E2 * E2
    assert (p - p).is_zero
    assert (E1 * 0).is_zero
    assert CoeffPoly.one(Z4) == 1
    assert E1 * 1 == E1
    assert 3 - CoeffPoly.const(Z4, 1) == CoeffPoly.const(Z4, 2)


def test_no_trivial_euler_symbol():
    with pytest.raises(PreconditionError):
        CoeffPoly.euler(Z4.identity)


def test_group_mismatch():
    other = CoeffPoly.euler(parse_group("Z2").character((1,)))
    with pytest.raises(MismatchError):
        E1 + other


def test_pow():
    assert E1**0 == CoeffPoly.one(Z4)
    assert E1**3 == E1 * E1 * E1
    assert (E1 + 1) ** 2 == E1 * E1 + 2 * E1 + 1
    with pytest.raises(PreconditionError):
        E1 ** (-1)


def test_divexact():
    p = (E1 + E2) * (E3 + 2)
    assert p.divexact(E1 + E2) == E3 + 2
    assert p.divexact(E3 + 2) == E1 + E2
    assert p.divexact(E1) is None
    assert (2 * E1).divexact(CoeffPoly.const(Z4, 2)) == E1
    assert E1.divexact(CoeffPoly.const(Z4, 2)) is None
    assert CoeffPoly.zero(Z4).divexact(E1).is_zero
    with pytest.raises(PreconditionError):
        E1.divexact(CoeffPoly.zero(Z4))


def test_divexact_roundtrip_random():
    import random

    rng = random.Random(7)
    chars = [c for c in Z4.characters() if not c.is_trivial]
    for _ in range(50):
        a = CoeffPoly.const(Z4, rng.choice((1, -2, 3)))
        b = CoeffPoly.const(Z4, rng.choice((1, -1, 2)))
        for _ in range(rng.randrange(3)):
            a = a * CoeffPoly.euler(rng.choice(chars))
            b = b + CoeffPoly.euler(rng.choice(chars))
        assert (a * b).divexact(b) == a


def test_specialize():
    sig = Z4.character((1,))
    p = E1 * E1 + 2 * E2
    assert p.specialize({sig: 0}) == 2 * E2
    assert p.specialize({sig: E3}) == E3 * E3 + 2 * E2
    assert p.specialize({}) == p
    with pytest.raises(PreconditionError):
        p.specialize({Z4.identity: 0})
    with pytest.raises(MismatchError):
        p.specialize({parse_group("Z2").character((1,)): 0})


def test_euler_class():
    sig = Z4.character((1,))
    f = parse_flag(Z4, "(0),(0),(1)")
    assert euler_class(f.rep(3).tensor(sig)) == E1 * E1 * E2
    assert euler_class(f.rep(3)).is_zero  # a trivial summand
    assert euler_class(f.rep(0)) == 1


def test_rendering():
    assert str(CoeffPoly.zero(Z4)) == "0"
    assert str(CoeffPoly.const(Z4, -3)) == "-3"
    assert str(E1) == "e[(1)]"
    assert str(E1 * E1) == "e[(1)]^2"
    assert str(2 * E1 * E2 - E3) == "2 * e[(1)] * e[(2)] - e[(3)]"
    assert str(E1 - 1) == "e[(1)] - 1"
    # descending graded-lex order, stable
    assert str(E2 + E1 + 1) == "e[(1)] + e[(2)] + 1"


def test_to_json():
    p = 2 * E1 * E2 - 1
    assert p.to_json() == [
        {"coeff": 2, "exponents": {"(1)": 1, "(2)": 1}},
        {"coeff": -1, "exponents": {}},
    ]
