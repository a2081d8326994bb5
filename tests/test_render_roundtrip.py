"""The renderer promises text the expression grammar reads back to the same
value: parse(str(x)) == x for every algebra layer."""

import random

from equibord.coeff import CoeffPoly
from equibord.exprs import ExprContext, MAX_NESTING, as_fraction, eval_expression
from equibord.flags import Flag
from equibord.groups import parse_group
from equibord.symalg import BExpr, LocFraction, expand_b, frac_eq, to_b_generators, to_c_generators
from equibord.verify import _random_coeff, _random_dim0_fraction, _random_numerator

GROUPS = ("1", "Z2", "Z3", "Z4", "Z2xZ2", "Z6")
FLAG_LENGTHS = (2, 4, 6)
ROUTES = (("MUP", -2, "b"), ("mUP", 2, "c"), ("MUP", 2, "c"))
SAMPLES = 10


def parse(text, ctx):
    out = eval_expression(text, ctx)
    assert out["kind"] == "value", text
    return out["value"]


def as_bexpr(v, ctx):
    if v.kind == "coeff":
        return BExpr.const(ctx.flag, ctx.family, v.payload)
    assert v.kind == "gen"
    return v.payload


def test_rendered_values_parse_back():
    rng = random.Random(20260117)
    cases = 0
    for gspec in GROUPS:
        group = parse_group(gspec)
        for length in FLAG_LENGTHS:
            flag = Flag.cyclic(group, length)
            for mode, shift, family in ROUTES:
                ctx = ExprContext(flag, shift, mode)
                for _ in range(SAMPLES):
                    c = _random_coeff(rng, group)
                    v = parse(str(c), ctx)
                    assert v.kind == "coeff" and v.payload == c, str(c)

                    p = _random_numerator(rng, flag, shift, rng.randint(0, 3))
                    back = as_fraction(parse(str(p), ctx), ctx)
                    assert frac_eq(back, LocFraction(p, {}, mode)), str(p)

                    x = _random_dim0_fraction(rng, flag, shift, mode, 3)
                    assert frac_eq(as_fraction(parse(str(x), ctx), ctx), x), str(x)

                    e = to_b_generators(x) if family == "b" else to_c_generators(x)
                    back = as_bexpr(parse(str(e), ctx), ctx)
                    assert frac_eq(expand_b(back, mode), expand_b(e, mode)), str(e)
                    cases += 4
    assert cases == len(GROUPS) * len(FLAG_LENGTHS) * len(ROUTES) * SAMPLES * 4


def test_nesting_up_to_the_limit_parses():
    group = parse_group("Z2")
    ctx = ExprContext(Flag.cyclic(group, 4), -2, "MUP")
    text = "(" * MAX_NESTING + "beta[1] + 1" + ")" * MAX_NESTING
    assert str(parse(text, ctx).payload) == "beta[1] + 1"


def test_parse_back_covers_zero_and_constants():
    group = parse_group("Z2")
    flag = Flag.cyclic(group, 2)
    ctx = ExprContext(flag, -2, "MUP")
    for c in (CoeffPoly.zero(group), CoeffPoly.const(group, -3)):
        assert parse(str(c), ctx).payload == c
    zero = BExpr.zero(flag, "b")
    assert frac_eq(expand_b(as_bexpr(parse(str(zero), ctx), ctx)), expand_b(zero))
