import pytest

from equibord.coeff import CoeffPoly
from equibord.errors import MismatchError, PreconditionError
from equibord.flags import Flag, aug, parse_flag
from equibord.groups import parse_group
from equibord.symalg import (
    BExpr,
    LocFraction,
    SymPoly,
    btheta_expansion,
    dim_degree,
    expand_b,
    frac_eq,
    frac_reduce,
    presentation,
    retract,
    theta_mul,
    theta_sym,
    to_b_generators,
    to_c_generators,
)
from equibord.verify import DEFAULT_GROUPS

Z2 = parse_group("Z2")
F2 = parse_flag(Z2, "(0),(1),(0),(1)")
SIG = Z2.character((1,))
E = CoeffPoly.euler(SIG)


def b0(shift=-2):
    return SymPoly.var(F2, shift, 0)


def b1(shift=-2):
    return SymPoly.var(F2, shift, 1)


def test_sympoly_ring_ops():
    x = b0() + E * b1()
    y = b0() - E * b1()
    assert x * y == b0() ** 2 - E * E * b1() ** 2
    assert (x - x).is_zero
    assert x**2 == x * x
    assert SymPoly.one(F2, -2) == 1
    assert 2 * b0() == b0() + b0()
    with pytest.raises(PreconditionError):
        SymPoly.var(F2, -2, 5)
    with pytest.raises(PreconditionError):
        SymPoly(F2, 4, {})
    with pytest.raises(MismatchError):
        b0() + SymPoly.var(F2, 2, 0)
    with pytest.raises(MismatchError):
        b0() + SymPoly.var(parse_flag(Z2, "(0)"), -2, 0)


def test_sympoly_gradings():
    x = SymPoly.var(F2, -2, 3)
    assert x.dimension_degree() == 1
    assert x.internal_degree() == 6 - (-2)
    assert SymPoly.var(F2, 2, 3).internal_degree() == 4
    assert (E * x).internal_degree() == 6
    assert (x * x).dimension_degree() == 2
    assert SymPoly.zero(F2, -2).dimension_degree() is None
    with pytest.raises(PreconditionError):
        (x + SymPoly.one(F2, -2)).dimension_degree()
    theta = theta_sym(F2, -2, SIG)
    assert theta.dimension_degree() == 1
    assert theta.internal_degree() == 2  # -d


def test_theta_sym_embeds_coaug():
    assert theta_sym(F2, -2, Z2.identity) == b0()
    th = theta_sym(F2, -2, SIG)
    assert th == b0() + E * b1()
    assert theta_sym(F2, -2, SIG) is th  # cached


def test_inverted_classes_are_kept_on_the_flag_they_are_asked_over():
    # a second parse of one group gives an equal flag that gets classes of its own
    g1, g2 = parse_group("Z3"), parse_group("Z3")
    f1, f2 = Flag.cyclic(g1, 3), Flag.cyclic(g2, 3)
    a = g1.character((1,))
    t1, bt1 = theta_sym(f1, -2, a), btheta_expansion(f1, "b", a)
    t2, bt2 = theta_sym(f2, -2, a), btheta_expansion(f2, "b", a)
    assert t2 == t1 and bt2.terms == bt1.terms
    for x, flag, group in ((t1, f1, g1), (bt1, f1, g1), (t2, f2, g2), (bt2, f2, g2)):
        assert x.flag is flag and x.flag.group is group
    assert theta_sym(f2, -2, a) is t2 and btheta_expansion(f2, "b", a) is bt2
    # the shift and the family are part of the key
    assert theta_sym(f2, 2, a).shift == 2 and btheta_expansion(f2, "c", a).family == "c"


def test_theta_mul():
    x = b1() ** 2
    y = theta_mul(F2, SIG, x)
    assert y == (b0() + E * b1()) * x
    assert y.dimension_degree() == x.dimension_degree() + 1
    with pytest.raises(MismatchError):
        theta_mul(parse_flag(Z2, "(0)"), SIG, x)


def test_retract_sections_trivial_multiplication():
    mono = SymPoly(F2, -2, {((1, 2), (3, 1)): 1})
    assert retract(theta_mul(F2, Z2.identity, mono), 3) == mono
    assert retract(mono).is_zero  # no beta_0 factor
    assert retract(SymPoly(F2, -2, {((0, 2), (2, 1)): E})) == SymPoly(
        F2, -2, {((0, 1), (2, 1)): E}
    )
    with pytest.raises(PreconditionError):
        retract(mono, alpha=SIG)
    assert retract(mono, alpha=Z2.identity).is_zero
    with pytest.raises(PreconditionError):
        retract(mono, n=5)
    with pytest.raises(PreconditionError):
        retract(b0() + SymPoly.one(F2, -2))  # mixed dimensions


def test_locfraction_modes():
    one = SymPoly.one(F2, -2)
    LocFraction(one, {SIG: 1}, "MUP")
    with pytest.raises(PreconditionError):
        LocFraction(one, {SIG: 1}, "mUP")
    LocFraction(SymPoly.one(F2, 2), {Z2.identity: 2}, "mUP")
    with pytest.raises(PreconditionError):
        LocFraction(one, {SIG: -1}, "MUP")
    with pytest.raises(PreconditionError):
        LocFraction(SymPoly.one(parse_flag(Z2, "(0)"), -2), {SIG: 1}, "MUP")
    with pytest.raises(PreconditionError):
        LocFraction(one, {SIG: 1}, "MU")


def test_locfraction_arithmetic():
    th = theta_sym(F2, -2, SIG)
    a = LocFraction(b1(), {SIG: 1})
    b = LocFraction(b0(), {})
    s = a + b
    assert s.denom == {SIG: 1}
    assert s.num == b1() + b0() * th
    assert (a * a).denom == {SIG: 2}
    assert (a - a).num.is_zero
    assert (a**3).denom == {SIG: 3}
    p = a * th  # multiplying by the class itself does not cancel structurally
    assert frac_eq(p, LocFraction(b1(), {}))
    assert frac_eq(a + a, 2 * a)
    assert a == LocFraction(b1() * th, {SIG: 2})
    assert not frac_eq(a, b)
    assert 1 - a == LocFraction(th - b1(), {SIG: 1})
    assert b1() - a == LocFraction(b1() * th - b1(), {SIG: 1})
    assert a - 1 == -(1 - a)


def test_frac_reduce():
    th = theta_sym(F2, -2, SIG)
    a = LocFraction(b1() * th**2, {SIG: 3})
    r = frac_reduce(a)
    assert r.num == b1()
    assert r.denom == {SIG: 1}
    assert frac_eq(r, a)
    # mixed denominators reduce character by character
    t0 = theta_sym(F2, -2, Z2.identity)
    m = LocFraction(b0() * t0 * th, {SIG: 1, Z2.identity: 2})
    rm = frac_reduce(m)
    assert rm.denom == {}
    assert rm.num == 1


def test_dim_degree():
    a = LocFraction(b1() ** 2, {SIG: 2})
    assert dim_degree(a) == 0
    assert dim_degree(LocFraction(b1(), {SIG: 2})) == -1
    assert dim_degree(LocFraction(SymPoly.zero(F2, -2), {})) is None


def test_btheta_expansion():
    bt = btheta_expansion(F2, "b", SIG)
    assert bt.terms == {(): CoeffPoly.one(Z2), ((1, 1),): E}
    assert btheta_expansion(F2, "b", Z2.identity) == BExpr.one(F2, "b")
    with pytest.raises(PreconditionError):
        btheta_expansion(parse_flag(Z2, "(0)"), "b", SIG)
    with pytest.raises(MismatchError, match="^character of a different group$"):
        btheta_expansion(F2, "b", parse_group("Z3").character((1,)))


@pytest.mark.parametrize("group", DEFAULT_GROUPS)
def test_btheta_expansion_is_the_augmentation_sum(group):
    # the expansion read off coaug equals 1 + sum_i aug(alpha, i) * b_i
    g = parse_group(group)
    for n in range(1, 9):
        flag = Flag.cyclic(g, n)
        for alpha in dict.fromkeys(flag.chars):
            for family in ("b", "c"):
                want = BExpr.one(flag, family)
                for i in range(1, n + 1):
                    want = want + aug(flag, alpha, i) * BExpr.generator(flag, family, i)
                assert btheta_expansion(flag, family, alpha) == want, (flag, alpha, family)


def test_absent_denominator_character_has_one_message():
    flag = parse_flag(Z2, "(0)")
    msg = r"^character \(1\) does not occur in the flag truncation$"
    for make in (
        lambda: LocFraction(SymPoly.one(flag, -2), {SIG: 1}),
        lambda: BExpr(flag, "b", {(): 1}, {SIG: 1}),
        lambda: theta_sym(flag, -2, SIG),
        lambda: btheta_expansion(flag, "b", SIG),
    ):
        with pytest.raises(PreconditionError, match=msg):
            make()


def test_to_b_generators():
    x = LocFraction(SymPoly(F2, -2, {((0, 1), (1, 1)): 1}), {SIG: 2})
    e = to_b_generators(x)
    assert e.family == "b"
    assert e.terms == {((1, 1),): CoeffPoly.one(Z2)}
    assert e.denom == {SIG: 2}
    assert str(e) == "b[1] / btheta[(1)]^2"
    with pytest.raises(PreconditionError):
        to_b_generators(LocFraction(b1(), {SIG: 2}))  # dimension -1
    with pytest.raises(PreconditionError):
        to_b_generators(LocFraction(SymPoly.one(F2, 2), {}, "MUP"))  # wrong shift


def test_trivial_denominators_drop_in_generators():
    t0 = theta_sym(F2, -2, Z2.identity)
    x = LocFraction(b1() * t0, {SIG: 1, Z2.identity: 1})
    e = to_b_generators(x)
    assert e.denom == {SIG: 1}
    assert frac_eq(expand_b(e, "MUP"), x)


def test_expand_b_roundtrip():
    x = LocFraction(
        SymPoly(F2, -2, {((1, 1), (2, 1)): 1, ((0, 1), (3, 1)): E}), {SIG: 2}
    )
    e = to_b_generators(x)
    assert frac_eq(expand_b(e, "MUP"), x)
    # generator expression whose dimension exceeds its denominator count
    g = BExpr.generator(F2, "b", 2) * BExpr.generator(F2, "b", 1) + 1
    y = expand_b(g, "MUP")
    assert dim_degree(y) == 0
    assert y.denom == {Z2.identity: 2}


def test_bexpr_add_lifts_denominators():
    g1 = BExpr.generator(F2, "b", 1)
    inv = BExpr(F2, "b", {(): 1}, {SIG: 1})
    s = g1 + inv
    assert s.denom == {SIG: 1}
    # b1 * btheta_sig + 1, collected over the common denominator
    assert s.terms[()] == CoeffPoly.one(Z2)
    assert s.terms[((1, 1),)] == CoeffPoly.one(Z2)
    assert s.terms[((1, 2),)] == E
    assert frac_eq(expand_b(s, "MUP"), expand_b(g1, "MUP") + expand_b(inv, "MUP"))
    d = 1 - inv
    assert d.denom == {SIG: 1}
    assert d.terms == {((1, 1),): E}  # btheta - 1 = e * b1
    assert d == -(inv - 1)
    assert frac_eq(expand_b(1 - g1, "MUP"), 1 - expand_b(g1, "MUP"))


def test_mup_normal_form():
    # mUP inverts only the trivial class, which the rewrite absorbs: the
    # c-generator form of an mUP fraction is a polynomial
    f5 = Flag.cyclic(Z2, 5)
    num = SymPoly(f5, 2, {((0, 1), (2, 1)): 1})
    a = LocFraction(num, {Z2.identity: 2}, "mUP")
    nf = to_c_generators(a)
    assert nf.family == "c"
    assert not nf.denom
    assert frac_eq(expand_b(nf, "mUP"), a)


def test_c_generator_route():
    x = LocFraction(SymPoly(F2, 2, {((1, 2),): 1}), {SIG: 1, Z2.identity: 1}, "MUP")
    e = to_c_generators(x)
    assert e.family == "c"
    assert frac_eq(expand_b(e, "MUP"), x)


def test_presentation_shapes():
    pres = presentation("MUP", F2)
    assert pres["shift"] == -2
    assert [g["symbol"] for g in pres["generators"]] == [f"beta[{i}]" for i in range(5)]
    assert [g["degree"] for g in pres["generators"]] == [2, 4, 6, 8, 10]
    assert [inv["symbol"] for inv in pres["inverted"]] == ["theta[(0)]", "theta[(1)]"]
    assert pres["inverted"][1]["expansion"] == "beta[0] + e[(1)] * beta[1]"

    pres = presentation("MU", F2)
    assert [g["symbol"] for g in pres["generators"]] == [f"b[{i}]" for i in range(1, 5)]
    assert [g["degree"] for g in pres["generators"]] == [2, 4, 6, 8]
    assert [inv["symbol"] for inv in pres["inverted"]] == ["btheta[(1)]"]

    pres = presentation("MU", F2, shift=2)
    assert pres["family"] == "c"

    pres = presentation("mUP", F2)
    assert [inv["symbol"] for inv in pres["inverted"]] == ["theta[(0)]"]

    pres = presentation("mU", Flag.cyclic(parse_group("1"), 4))
    assert [g["degree"] for g in pres["generators"]] == [2, 4, 6, 8]
    assert pres["inverted"] == []


def test_presentation_preconditions():
    with pytest.raises(PreconditionError):
        presentation("MUP", parse_flag(Z2, "(0),(0)"))  # incomplete flag
    with pytest.raises(PreconditionError):
        presentation("mU", F2, shift=-2)
    with pytest.raises(PreconditionError):
        presentation("XX", F2)


SHIFT_ERRORS = {
    "MUP": "presentations use shift -2 or +2",
    "MU": "presentations use shift -2 or +2",
    "mUP": "the connective periodic presentation has shift +2",
    "mU": "the connective presentation has shift +2",
}

# (theory, shift) -> (shift, family) of the presentation, or None when the
# shift is refused with the theory's SHIFT_ERRORS message
PRESENTATION_SHIFTS = {
    ("MUP", None): (-2, None), ("MUP", -2): (-2, None), ("MUP", 0): None, ("MUP", 2): (2, None),
    ("mUP", None): (2, None), ("mUP", -2): None, ("mUP", 0): None, ("mUP", 2): (2, None),
    ("MU", None): (-2, "b"), ("MU", -2): (-2, "b"), ("MU", 0): None, ("MU", 2): (2, "c"),
    ("mU", None): (2, "c"), ("mU", -2): None, ("mU", 0): None, ("mU", 2): (2, "c"),
}


@pytest.mark.parametrize("theory, shift", list(PRESENTATION_SHIFTS))
def test_presentation_shift_rules(theory, shift):
    want = PRESENTATION_SHIFTS[theory, shift]
    if want is None:
        with pytest.raises(PreconditionError) as excinfo:
            presentation(theory, F2, shift)
        assert str(excinfo.value) == SHIFT_ERRORS[theory]
    else:
        pres = presentation(theory, F2, shift)
        assert (pres["shift"], pres["family"]) == want


def test_presentation_unknown_theory_message():
    with pytest.raises(PreconditionError) as excinfo:
        presentation("XX", F2, 0)
    assert str(excinfo.value) == "unknown theory 'XX'"


@pytest.mark.parametrize("theory", ["MUP", "mUP", "MU", "mU"])
def test_presentation_incomplete_flag_message(theory):
    flag = parse_flag(Z2, "(0),(0)")
    if theory in ("mUP", "mU"):
        # only the trivial class is inverted, so any flag will do
        assert presentation(theory, flag)["flag"] == ["(0)", "(0)"]
        return
    with pytest.raises(PreconditionError) as excinfo:
        presentation(theory, flag)
    assert str(excinfo.value) == (
        "flag truncation is missing character (1); every "
        "coaugmentation class must be invertible for this theory"
    )
    # a refused shift is reported before the missing character
    with pytest.raises(PreconditionError) as excinfo:
        presentation(theory, flag, 0)
    assert str(excinfo.value) == SHIFT_ERRORS[theory]


def test_fraction_rendering():
    a = LocFraction(b1(), {SIG: 1})
    assert str(a) == "beta[1] / theta[(1)]"
    two = LocFraction(b0() + b1(), {SIG: 2, Z2.identity: 1})
    assert str(two) == "(beta[0] + beta[1]) / (theta[(0)] * theta[(1)]^2)"
    assert str(LocFraction(SymPoly.zero(F2, -2), {SIG: 1})) == "0"


# (left operand, right operand, message) of operands whose contexts differ
F3 = parse_flag(Z2, "(0),(1),(0)")
CONTEXT_MISMATCHES = [
    (LocFraction(b1()), LocFraction(SymPoly.var(F3, -2, 1)), "fractions over different flags"),
    (LocFraction(b1()), LocFraction(b1(2)), "fractions over different shifts"),
    (LocFraction(b1(2)), LocFraction(b1(2), {}, "mUP"), "fractions in different localization modes"),
    (BExpr.generator(F2, "b", 1), BExpr.generator(F3, "b", 1), "operands over different flags"),
    (BExpr.generator(F2, "b", 1), BExpr.generator(F2, "c", 1),
     "operands over different generator families"),
]


@pytest.mark.parametrize("a, b, message", CONTEXT_MISMATCHES,
                         ids=["frac-flags", "frac-shifts", "frac-modes", "gen-flags", "gen-families"])
def test_operands_of_different_contexts_are_refused(a, b, message):
    for op in (lambda x, y: x + y, lambda x, y: x * y):
        with pytest.raises(MismatchError) as excinfo:
            op(a, b)
        assert str(excinfo.value) == message
