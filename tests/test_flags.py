import pytest

from equibord.coeff import CoeffPoly
from equibord.errors import MismatchError, PreconditionError, SpecParseError
from equibord.flags import Flag, ProjClass, aug, coaug, coaug_via_duality, parse_flag
from equibord.groups import parse_group

Z2 = parse_group("Z2")
Z4 = parse_group("Z4")


def test_flag_construction():
    f = parse_flag(Z2, "(0),(1),(0),(1)")
    assert f.length == 4
    assert f.group == Z2
    assert str(f) == "(0),(1),(0),(1)"
    assert f.is_complete
    assert not parse_flag(Z2, "(0),(0)").is_complete
    assert f.first_index(Z2.character((1,))) == 2
    assert parse_flag(Z2, "(0)").first_index(Z2.character((1,))) is None


def test_occurrence_is_the_first_index_or_an_error():
    f = parse_flag(Z4, "(0),(1),(2),(1)")
    assert f.occurrence(Z4.identity) == 1
    assert f.occurrence(Z4.character((1,))) == 2
    assert f.occurrence(Z4.character((2,))) == 3
    with pytest.raises(PreconditionError, match=r"^character \(3\) does not occur in the flag truncation$"):
        f.occurrence(Z4.character((3,)))
    with pytest.raises(MismatchError, match="^character of a different group$"):
        f.occurrence(Z2.character((1,)))


def test_flag_requires_trivial_start():
    with pytest.raises(PreconditionError):
        parse_flag(Z2, "(1),(0)")
    with pytest.raises(PreconditionError):
        Flag(Z2, ())


def test_flag_parse_errors():
    with pytest.raises(SpecParseError):
        parse_flag(Z2, "")
    with pytest.raises(SpecParseError):
        parse_flag(Z2, "(0),(1")
    with pytest.raises(SpecParseError):
        parse_flag(Z2, "(0)),(1)")


def test_cyclic_flag():
    f = Flag.cyclic(Z4, 6)
    assert [c.residues for c in f.chars] == [(0,), (1,), (2,), (3,), (0,), (1,)]
    assert f.is_complete
    assert Flag.cyclic(parse_group("1"), 3).length == 3


def test_stages():
    f = parse_flag(Z4, "(0),(1),(2)")
    assert f.rep(0).summands == ()
    assert len(f.rep(2).summands) == 2
    assert [c.residues for c in f.rep(3).summands] == [(0,), (1,), (2,)]
    with pytest.raises(PreconditionError):
        f.rep(4)


def test_projclass_module_ops():
    f = parse_flag(Z2, "(0),(1)")
    e = CoeffPoly.euler(Z2.character((1,)))
    x = ProjClass(f, {0: 1, 1: e, 2: 0})
    assert x.coeffs == {0: CoeffPoly.one(Z2), 1: e}  # ints coerced, zeros dropped
    assert x == ProjClass(f, {0: CoeffPoly.one(Z2), 1: e})
    assert ProjClass(f, {}).coeffs == {}
    with pytest.raises(PreconditionError):
        ProjClass(f, {3: 1})
    with pytest.raises(MismatchError):
        ProjClass(f, {0: CoeffPoly.one(Z4)})


def test_projclass_degree_and_str():
    f = parse_flag(Z2, "(0),(1)")
    e = CoeffPoly.euler(Z2.character((1,)))
    theta = ProjClass(f, {0: 1, 1: e})
    assert str(theta) == "beta[0] + e[(1)] * beta[1]"
    assert str(ProjClass(f, {})) == "0"


def test_aug_values():
    f = parse_flag(Z2, "(0),(1),(0),(1)")
    eps, sig = Z2.characters()
    e = CoeffPoly.euler(sig)
    assert aug(f, eps, 0) == 1
    assert all(aug(f, eps, i).is_zero for i in range(1, 5))
    assert aug(f, sig, 1) == e
    assert all(aug(f, sig, i).is_zero for i in range(2, 5))
    with pytest.raises(PreconditionError):
        aug(f, sig, 5)
    with pytest.raises(MismatchError):
        aug(f, Z4.character((1,)), 1)


def test_coaug_truncates_at_first_occurrence():
    f = parse_flag(Z4, "(0),(1),(2),(3),(1)")
    sig = Z4.character((1,))
    th = coaug(f, sig)
    # truncation at index 2: only beta_0 and beta_1 appear
    assert sorted(th.coeffs) == [0, 1]
    assert th.coeffs[0] == 1
    assert th.coeffs[1] == CoeffPoly.euler(sig.inverse())
    assert coaug(f, Z4.identity) == ProjClass(f, {0: 1})


def test_coaug_needs_occurrence():
    f = parse_flag(Z4, "(0),(1)")
    with pytest.raises(PreconditionError):
        coaug(f, Z4.character((2,)))


def test_coaug_matches_duality_route():
    for spec, flagspec in [
        ("Z2", "(0),(1),(0),(1)"),
        ("Z4", "(0),(1),(2),(3),(0),(2)"),
        ("Z2xZ2", "(0,0),(0,1),(1,0),(1,1)"),
    ]:
        g = parse_group(spec)
        f = parse_flag(g, flagspec)
        for alpha in g.characters():
            assert coaug(f, alpha) == coaug_via_duality(f, alpha)


def test_duality_route_accepts_injected_augmentation():
    f = parse_flag(Z4, "(0),(1),(2),(3)")
    sig = Z4.character((1,))

    def twisted(flag, alpha, i):
        return aug(flag, alpha.inverse(), i)

    assert coaug_via_duality(f, sig, twisted) == coaug(f, sig.inverse())


def test_projclass_specialize():
    f = parse_flag(Z2, "(0),(1)")
    sig = Z2.character((1,))
    th = coaug(f, sig)
    assert th.specialize({sig: 0}) == ProjClass(f, {0: 1})
