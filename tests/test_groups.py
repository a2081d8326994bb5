import pytest

from equibord.errors import MismatchError, PreconditionError, SpecParseError
from equibord.flags import parse_flag
from equibord.groups import Character, parse_character, parse_group


def test_parse_group_specs():
    assert parse_group("1").cyclic_orders == ()
    assert parse_group("Z2").cyclic_orders == (2,)
    assert parse_group("Z2xZ4").cyclic_orders == (2, 4)
    assert parse_group(" Z2 x Z3 ").cyclic_orders == (2, 3)
    assert str(parse_group("Z2xZ2xZ2")) == "Z2xZ2xZ2"
    assert str(parse_group("1")) == "1"


@pytest.mark.parametrize("bad", ["Z", "Z0", "2", "Z2x", "Z2xY3", "Z-2"])
def test_parse_group_rejects(bad):
    with pytest.raises(SpecParseError):
        parse_group(bad)


def test_group_order_and_characters():
    g = parse_group("Z2xZ3")
    assert g.order == 6
    chars = g.characters()
    assert len(chars) == 6
    assert chars[0].is_trivial
    assert [c.residues for c in chars[:3]] == [(0, 0), (0, 1), (0, 2)]
    assert parse_group("1").order == 1
    assert parse_group("1").characters() == [parse_group("1").identity]


def test_character_arithmetic():
    g = parse_group("Z4")
    a = g.character((1,))
    b = g.character((3,))
    assert (a * b).is_trivial
    assert a.inverse() == b
    assert a.inverse().inverse() == a
    assert g.character((5,)) == a  # residues reduce mod the order
    assert str(a) == "(1)"
    assert str(parse_group("Z2xZ2").character((1, 0))) == "(1,0)"


def test_character_validation():
    g = parse_group("Z2")
    with pytest.raises(PreconditionError):
        Character(g, (2,))
    with pytest.raises(PreconditionError):
        Character(g, (0, 0))
    h = parse_group("Z2")
    assert g.character((1,)) == h.character((1,))
    with pytest.raises(MismatchError):
        g.character((1,)) * parse_group("Z3").character((1,))


def test_parse_character():
    g = parse_group("Z2xZ4")
    assert parse_character(g, "(1,3)").residues == (1, 3)
    assert parse_character(parse_group("1"), "()").residues == ()
    with pytest.raises(SpecParseError):
        parse_character(g, "(1)")
    with pytest.raises(SpecParseError):
        parse_character(g, "1,3")
    with pytest.raises(SpecParseError):
        parse_character(g, "(1,4)")
    with pytest.raises(SpecParseError):
        parse_character(g, "(a,0)")


def test_representation_ops():
    g = parse_group("Z2")
    eps = g.identity
    sig = g.character((1,))
    v = parse_flag(g, "(0),(1),(0)").rep(3)
    assert v.contains_trivial
    assert v.summands == (eps, eps, sig)  # sorted
    assert v.tensor(sig).summands == (eps, sig, sig)
    w = parse_flag(g, "(0)").rep(1).tensor(sig)
    assert w.summands == (sig,)
    assert not w.contains_trivial
    assert w.tensor(sig).contains_trivial
    assert not parse_flag(g, "(0)").rep(0).contains_trivial
