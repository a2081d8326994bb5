import pytest

from equibord.coeff import CoeffPoly
from equibord.errors import PreconditionError, SpecParseError
from equibord.exprs import ExprContext, as_fraction, describe_value, eval_expression
from equibord.flags import Flag, parse_flag
from equibord.groups import parse_group
from equibord.symalg import SymPoly, frac_eq, theta_sym

Z2 = parse_group("Z2")
F2 = parse_flag(Z2, "(0),(1),(0),(1)")
CTX = ExprContext(F2, -2, "MUP")
SIG = Z2.character((1,))


def test_expr_context_keeps_the_dataclass_behaviour():
    # the values below were recorded from the dataclass ExprContext
    f3 = Flag.cyclic(Z2, 3)
    default = ExprContext(f3)
    assert repr(default) == "ExprContext(flag=Flag(Z2, (0),(1),(0)), shift=-2, mode='MUP')"
    assert (default.shift, default.mode, default.family) == (-2, "MUP", "b")
    c_side = ExprContext(f3, 2, "mUP")
    assert repr(c_side) == "ExprContext(flag=Flag(Z2, (0),(1),(0)), shift=2, mode='mUP')"
    assert c_side.family == "c" and ExprContext(f3, 0).family is None
    mixed = ExprContext(parse_flag(parse_group("Z2xZ3"), "(0,0),(1,2)"), 0, "mUP")
    assert repr(mixed) == "ExprContext(flag=Flag(Z2xZ3, (0,0),(1,2)), shift=0, mode='mUP')"
    # field-wise equality, by keyword or position, and only with its own class
    assert ExprContext(flag=f3, mode="mUP", shift=2) == c_side
    assert default == ExprContext(Flag.cyclic(parse_group("Z2"), 3))
    assert default != c_side and default != f3
    assert default.__eq__(f3) is NotImplemented
    assert ExprContext.__hash__ is None


def val(text, ctx=CTX):
    out = eval_expression(text, ctx)
    assert out["kind"] == "value"
    return out["value"]


def test_integer_and_coeff_atoms():
    v = val("2 + 3")
    assert v.kind == "coeff"
    assert v.payload == CoeffPoly.const(Z2, 5)
    v = val("e[(1)]^2 - 1")
    assert v.kind == "coeff"
    e = CoeffPoly.euler(SIG)
    assert v.payload == e * e - 1


def test_beta_and_theta_atoms():
    v = val("beta[1] * beta[2]")
    assert v.kind == "sym"
    assert v.payload.dimension_degree() == 2
    v = val("theta[(1)]")
    assert v.kind == "sym"
    assert v.payload == theta_sym(F2, -2, SIG)
    v = val("theta[(0)]")
    assert v.payload == SymPoly.var(F2, -2, 0)


def test_division_builds_fractions():
    v = val("beta[1]*beta[2]/theta[(1)]^2")
    assert v.kind == "frac"
    assert v.payload.denom == {SIG: 2}
    v = val("beta[1] / (theta[(0)] * theta[(1)])")
    assert v.payload.denom == {SIG: 1, Z2.identity: 1}
    v = val("(beta[1] / theta[(1)]) / theta[(1)]")
    assert v.payload.denom == {SIG: 2}


def test_division_requires_inverted_classes():
    for text in ("beta[0]/beta[1]", "1/2", "beta[1]/(theta[(1)] + 1)", "b[1]/b[2]"):
        with pytest.raises(SpecParseError):
            eval_expression(text, CTX)


def test_generator_atoms():
    v = val("b[1]*b[2]/btheta[(1)]^2")
    assert v.kind == "gen"
    assert v.payload.family == "b"
    assert v.payload.denom == {SIG: 2}
    assert val("b[0]").kind == "coeff"  # b_0 is the unit
    cctx = ExprContext(F2, 2, "MUP")
    assert val("c[2]", cctx).payload.family == "c"


def test_family_shift_mismatch():
    with pytest.raises(PreconditionError):
        eval_expression("c[1]", CTX)
    with pytest.raises(PreconditionError):
        eval_expression("b[1]", ExprContext(F2, 2, "MUP"))
    with pytest.raises(PreconditionError):
        eval_expression("ctheta[(1)]", CTX)
    # neither family lives in the shift 0 ring, whose flag side still evaluates
    zero = ExprContext(F2, 0, "MUP")
    for text, family, home in (("c[1] + 1", "c", 2), ("b[1]", "b", -2), ("ctheta[(1)]", "c", 2)):
        with pytest.raises(PreconditionError) as excinfo:
            eval_expression(text, zero)
        assert str(excinfo.value) == (
            f"{family}-generators live in the shift {home} ring, but this context "
            "has shift 0 (pick the other --shift or --theory)"
        )
    assert val("beta[1] + 1", zero).kind == "sym"


def test_no_mixing_sides():
    with pytest.raises(SpecParseError):
        eval_expression("beta[1] + b[1]", CTX)
    with pytest.raises(SpecParseError):
        eval_expression("b[1] * theta[(1)]", CTX)


def test_trivial_euler_rejected():
    with pytest.raises(SpecParseError):
        eval_expression("e[(0)]", CTX)


def test_unary_minus_and_parens():
    v = val("-beta[1] + beta[1]")
    assert v.payload.is_zero
    v = val("(theta[(1)])^2")
    assert v.kind == "sym"
    v = val("beta[2] / (theta[(1)])^2")
    assert v.payload.denom == {SIG: 2}


def test_syntax_errors():
    for text in ("", "beta[1] +", "beta[x]", "beta[1]^", "beta[1]^e[(1)]", "(beta[1]", "beta[1])", "theta[(2)]^^2", "foo[1]"):
        with pytest.raises(SpecParseError):
            eval_expression(text, CTX)


def test_out_of_range_indices():
    with pytest.raises(PreconditionError):
        eval_expression("beta[9]", CTX)
    with pytest.raises(PreconditionError):
        eval_expression("b[9]", CTX)
    with pytest.raises(PreconditionError):
        eval_expression("theta[(1)]", ExprContext(parse_flag(Z2, "(0)"), -2, "MUP"))
    with pytest.raises(SpecParseError):
        eval_expression("theta[(2)]", CTX)  # residue out of range for Z2


def test_comparisons():
    out = eval_expression("theta[(1)] == beta[0] + e[(1)]*beta[1]", CTX)
    assert out["kind"] == "comparison"
    assert out["equal"]
    out = eval_expression("beta[1]/theta[(1)] == beta[1]*theta[(1)]/theta[(1)]^2", CTX)
    assert out["equal"]
    out = eval_expression("beta[1] == beta[2]", CTX)
    assert not out["equal"]
    out = eval_expression("e[(1)]^2 == e[(1)] * e[(1)]", CTX)
    assert out["equal"]


def test_generator_comparisons_are_mathematical():
    # b1/btheta equals b1 * btheta / btheta^2 after expansion
    out = eval_expression("b[1]/btheta[(1)] == b[1]*btheta[(1)]/btheta[(1)]^2", CTX)
    assert out["equal"]
    out = eval_expression("btheta[(1)] == 1 + e[(1)]*b[1]", CTX)
    assert out["equal"]
    out = eval_expression("b[1] == b[2]", CTX)
    assert not out["equal"]


def test_mup_mode_restricts_denominators():
    ctx = ExprContext(F2, 2, "mUP")
    v = val("beta[1]/theta[(0)]", ctx)
    assert v.payload.mode == "mUP"
    with pytest.raises(PreconditionError):
        eval_expression("beta[1]/theta[(1)]", ctx)


def test_as_fraction():
    f = as_fraction(val("beta[1]/theta[(1)]"), CTX)
    assert f.denom == {SIG: 1}
    f = as_fraction(val("beta[1]"), CTX)
    assert f.denom == {}
    f = as_fraction(val("7"), CTX)
    assert f.num == SymPoly.const(F2, -2, 7)
    with pytest.raises(SpecParseError):
        as_fraction(val("b[1]"), CTX)


def test_describe_value_reduces_fractions():
    v = val("beta[1]*theta[(1)]/theta[(1)]^2")
    d = describe_value(v)
    assert d["kind"] == "fraction"
    assert d["text"] == "beta[1] / theta[(1)]"
    d = describe_value(val("theta[(1)]"), {SIG: 0})
    assert d["text"] == "beta[0] + e[(1)] * beta[1]"
    assert d["specialized_text"] == "beta[0]"


def test_whitespace_insensitive():
    a = val("beta[1]*beta[2]/theta[(1)]^2")
    b = val("  beta[1] * beta[2]  /  theta[(1)] ^ 2 ")
    assert frac_eq(a.payload, b.payload)


# The parser's kind matrix: every pair of operand kinds under each binary
# operator, in the three shift/mode contexts.  An operand is
# (text, kind, the inverted class it denotes or None); the expected outcome
# is a value kind, "comparison", or the exception class.
_MATRIX_CTX = {
    "MUP/-2": ExprContext(F2, -2, "MUP"),
    "MUP/+2": ExprContext(F2, 2, "MUP"),
    "mUP/+2": ExprContext(F2, 2, "mUP"),
}


def _matrix_operands(ctx):
    f = ctx.family
    return (
        ("2", "coeff", None),
        ("e[(1)]", "coeff", None),
        ("beta[1]", "sym", None),
        ("theta[(1)]", "sym", "theta"),
        ("(beta[1]/theta[(1)])", "frac", None),
        (f"{f}[1]", "gen", None),
        (f"{f}theta[(1)]", "gen", "btheta"),
    )


_FLAG_SIDE = {"sym", "frac"}
_TOWER = ("coeff", "sym", "frac")


def _expected(ctx, lhs, op, rhs):
    (_, ka, _), (_, kb, inv_b) = lhs, rhs
    for _, kind, _ in (lhs, rhs):
        if kind == "frac" and ctx.mode == "mUP":
            return PreconditionError  # the operand itself divides by theta[(1)]
    if op == "/" and inv_b is None:
        return SpecParseError
    if {ka, kb} & _FLAG_SIDE and "gen" in {ka, kb}:
        return SpecParseError
    if op == "==":
        return "comparison"
    if op == "/":
        if ctx.mode == "mUP":
            return PreconditionError  # mUP inverts no nontrivial class on either side
        return "gen" if inv_b == "btheta" else "frac"
    if "gen" in {ka, kb}:
        return "gen"
    return _TOWER[max(_TOWER.index(ka), _TOWER.index(kb))]


_MATRIX_CASES = [
    (name, f"{a[0]} {op} {b[0]}", _expected(ctx, a, op, b))
    for name, ctx in _MATRIX_CTX.items()
    for op in ("+", "-", "*", "/", "==")
    for a in _matrix_operands(ctx)
    for b in _matrix_operands(ctx)
] + [
    ("mUP/+2", "c[1]/theta[(1)]", SpecParseError),
    ("mUP/+2", "2/theta[(1)]", PreconditionError),
    ("MUP/-2", "beta[1]/(2*theta[(1)])", SpecParseError),
    ("mUP/+2", "c[1]/ctheta[(1)]", PreconditionError),
    ("mUP/+2", "c[1]/ctheta[(0)]", "gen"),
    ("MUP/-2", "2 == b[1]", "comparison"),
]


@pytest.mark.parametrize("ctx_name,text,expected", _MATRIX_CASES)
def test_kind_matrix(ctx_name, text, expected):
    ctx = _MATRIX_CTX[ctx_name]
    if isinstance(expected, type):
        with pytest.raises(expected) as info:
            eval_expression(text, ctx)
        assert info.type is expected
        return
    out = eval_expression(text, ctx)
    got = out["kind"] if out["kind"] == "comparison" else out["value"].kind
    assert got == expected
