"""The packed kernel against the tuple kernel it replaced.

Before the monomials were packed into ints, a monomial was a sorted tuple
of (variable, exponent) pairs, a SymPoly held {beta monomial: CoeffPoly}
and a CoeffPoly {Euler monomial: int}, and exact division took its leading
terms in graded-lex order.  That kernel is the reference, in
tests/reference.py: mono_mul, mul_terms, divexact_terms and the dense
graded-lex key, on nested dicts.  Seeded draws of CoeffPolys and SymPolys are put through both, and
every result of +, *, ^, ==, divexact, specialize, retract, both degrees
and both renderings must be the same, on the default groups, on a huge
group with a short flag, on a flag of length 1,000 and on operands from
two separate parses of one group and flag.
"""

import json
import random

import pytest

from equibord.coeff import CoeffPoly
from equibord.errors import MismatchError, PreconditionError
from equibord.flags import Flag, ProjClass
from equibord.groups import format_residues, parse_group
from equibord.sparse import MAX_EXP, W
from equibord.symalg import BExpr, SymPoly, retract
from equibord.verify import DEFAULT_GROUPS
from reference import Ref, add_terms, divexact_terms, grlex_sorted, mono_div, mul_terms, power

# values in both forms -------------------------------------------------------------


def ref_of_coeff(c: CoeffPoly) -> Ref:
    return Ref(c.terms)


def ref_of_sym(x: SymPoly) -> dict:
    return {b: ref_of_coeff(c) for b, c in x.terms.items()}


def sym_of_ref(flag: Flag, shift: int, ref: dict) -> SymPoly:
    return SymPoly(flag, shift, {b: CoeffPoly(flag.group, c.t) for b, c in ref.items()})


def ref_specialize(a: dict, values: dict) -> dict:
    """Term by term: each symbol with a value is replaced by it."""
    out: dict = {}
    for b, c in a.items():
        acc = Ref({})
        for m, ci in c.t.items():
            term = Ref({(): ci})
            for rs, k in m:
                v = values.get(rs, Ref({((rs, 1),): 1}))
                for _ in range(k):
                    term = term * v
            acc = acc + term
        if acc:
            out[b] = acc
    return out


def ref_degrees(a: dict, shift: int) -> tuple:
    dims = {sum(k for _, k in b) for b in a}
    internal = {
        sum(k * (2 * i - shift) for i, k in b) - 2 * sum(k for _, k in m)
        for b, c in a.items()
        for m in c.t
    }
    return dims, internal


def ref_text(a: dict, name: str = "beta") -> str:
    parts = []
    for b in grlex_sorted(a):
        for m in grlex_sorted(a[b].t):
            c = a[b].t[m]
            syms = [f"e[{format_residues(rs)}]" + (f"^{k}" if k > 1 else "") for rs, k in m]
            syms += [f"{name}[{i}]" + (f"^{k}" if k > 1 else "") for i, k in b]
            body = " * ".join(([str(abs(c))] if abs(c) != 1 or not syms else []) + syms)
            parts.append((c < 0, body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] else "") + parts[0][1]
    return out + "".join((" - " if neg else " + ") + body for neg, body in parts[1:])


def ref_json(a: dict, name: str = "beta") -> list:
    return [
        {
            "coeff": a[b].t[m],
            "euler": {format_residues(rs): k for rs, k in m},
            name: {str(i): k for i, k in b},
        }
        for b in grlex_sorted(a)
        for m in grlex_sorted(a[b].t)
    ]


def ref_coeff_json(c: Ref) -> list:
    return [
        {"coeff": c.t[m], "exponents": {format_residues(rs): k for rs, k in m}}
        for m in grlex_sorted(c.t)
    ]


def ref_quotient(num: dict, denom: dict, family: str) -> tuple:
    """The text and the JSON form of the BExpr num / denom, denom
    {residues: power}."""
    text = ref_text(num, family)
    dens = [f"{family}theta[{format_residues(rs)}]" + (f"^{k}" if k > 1 else "")
            for rs, k in sorted(denom.items())]
    if dens and num:
        if sum(len(c.t) for c in num.values()) > 1:
            text = f"({text})"
        text += " / " + (f"({' * '.join(dens)})" if len(dens) > 1 else dens[0])
    return text, {
        "family": family,
        "numerator": ref_json(num, "generators"),
        "denominator": [{"alpha": format_residues(rs), "power": k} for rs, k in sorted(denom.items())],
    }


# draws ----------------------------------------------------------------------------


def draw_coeff(rng: random.Random, group) -> CoeffPoly:
    n = min(group.order - 1, 40)  # the trivial group has no Euler symbol
    chars = [group.unrank(1 + rng.randrange(n)).residues for _ in range(3)] if n else []
    terms = {}
    for _ in range(rng.randint(1, 3)):
        counts: dict = {}
        for rs in chars:
            if rng.random() < 0.5:
                counts[rs] = rng.randint(1, 3)
        terms[tuple(sorted(counts.items()))] = rng.choice((1, -1, 2, -3))
    return CoeffPoly(group, terms)


def draw_sym(rng: random.Random, flag: Flag, shift: int) -> SymPoly:
    indices = sorted({rng.randint(0, flag.length) for _ in range(3)})
    terms = {}
    for _ in range(rng.randint(1, 4)):
        b = tuple((i, k) for i in indices if (k := rng.randrange(3)))
        terms[b] = draw_coeff(rng, flag.group)
    return SymPoly(flag, shift, terms)


CONTEXTS = [(spec, 4) for spec in DEFAULT_GROUPS] + [("Z100000000", 2), ("Z3", 1000)]


def contexts():
    for spec, length in CONTEXTS:
        group = parse_group(spec)
        yield spec, Flag.cyclic(group, length), Flag.cyclic(group, length)
        # a second parse of the same group and flag: equal, not the same objects
        twin = parse_group(spec)
        yield spec, Flag.cyclic(group, length), Flag.cyclic(twin, length)


# the checks -----------------------------------------------------------------------


def assert_same(got: SymPoly, want: dict):
    assert got.terms == {b: CoeffPoly(got.flag.group, c.t) for b, c in want.items()}
    assert str(got) == ref_text(want)
    assert json.dumps(got.to_json()) == json.dumps(ref_json(want))


@pytest.mark.parametrize("spec, flag, other", list(contexts()),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_sympoly_operations_equal_the_tuple_kernel(spec, flag, other):
    rng = random.Random(f"packed-{spec}-{flag.group is other.group}")
    shift = rng.choice((-2, 2))
    for _ in range(12):
        x, y = draw_sym(rng, flag, shift), draw_sym(rng, other, shift)
        rx, ry = ref_of_sym(x), ref_of_sym(y)
        assert_same(x, rx)
        assert_same(x + y, add_terms(rx, ry))
        assert_same(x - y, add_terms(rx, {b: -c for b, c in ry.items()}))
        assert_same(x * y, mul_terms(rx, ry))
        assert_same(y * x, mul_terms(rx, ry))
        assert_same(x**3, power(rx, 3, {(): Ref({(): 1})}))
        assert (x == y) == (rx == ry) and x == sym_of_ref(other, shift, rx)
        assert (x * y - y * x).is_zero and x * y == y * x
        # exact division: of a product, and of what the reference cannot divide
        q = (x * y).divexact(y)
        assert q is not None and q.flag is flag
        assert_same(q, rx)
        z = x + 1
        want = divexact_terms(ref_of_sym(z), ry, Ref.divexact, Ref({}))
        got = z.divexact(y)
        assert (got is None) == (want is None)
        if got is not None:
            assert_same(got, want)
        # both degrees, and the retraction of a homogeneous part
        dims, internal = ref_degrees(rx, shift)
        if len(dims) == 1:
            assert x.dimension_degree() == dims.pop()
            retracted = {q: c for b, c in rx.items() if (q := mono_div(b, ((0, 1),))) is not None}
            assert_same(retract(x), retracted)
        else:
            with pytest.raises(PreconditionError, match="mixed dimension"):
                x.dimension_degree()
        if len(internal) == 1:
            assert x.internal_degree() == internal.pop()
        # specialization, with values over the other parse of the group
        chars = [c for c in flag.group.characters()[1:6]] if flag.group.order < 100 else []
        values = {c: rng.choice((0, 2, draw_coeff(rng, other.group))) for c in chars[:2]}
        refs = {c.residues: Ref(v.terms) if isinstance(v, CoeffPoly) else Ref({(): v} if v else {})
                for c, v in values.items()}
        assert_same(x.specialize(values), ref_specialize(rx, refs))


@pytest.mark.parametrize("spec, flag, other", list(contexts()),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_coefficient_operations_equal_the_tuple_kernel(spec, flag, other):
    rng = random.Random(f"packed-coeff-{spec}-{flag.group is other.group}")
    for _ in range(20):
        a, b = draw_coeff(rng, flag.group), draw_coeff(rng, other.group)
        ra, rb = ref_of_coeff(a), ref_of_coeff(b)
        assert (a + b).terms == (ra + rb).t and (a * b).terms == (ra * rb).t
        assert (a**2).terms == (ra * ra).t and (a == b) == (ra == rb)
        assert (a * b).divexact(b) == a
        q, want = (a + 1).divexact(b), (ra + Ref({(): 1})).divexact(rb)
        assert (q is None) == (want is None) and (q is None or q.terms == want.t)


def test_operands_over_different_groups_still_refuse():
    z2, z3 = parse_group("Z2"), parse_group("Z3")
    with pytest.raises(MismatchError):
        CoeffPoly.one(z2) + CoeffPoly.one(z3)
    with pytest.raises(MismatchError):
        SymPoly.one(Flag.cyclic(z2, 2), -2) * SymPoly.one(Flag.cyclic(z3, 2), -2)
    assert CoeffPoly.one(z2) != CoeffPoly.one(z3)


def test_slots_are_given_on_first_use_not_by_rank():
    # equal groups share one slot table, which other values may have begun
    group, twin = parse_group("Z100000000"), parse_group("Z100000000")
    first = len(group._euler_symbols)
    e = CoeffPoly.euler(group.character((99999989,))) * CoeffPoly.euler(twin.character((31415927,)))
    assert e.packed == {(1 << W * first) + (1 << W * (first + 1)): 1}
    assert twin._euler_symbols[first:] == [(99999989,), (31415927,)]
    assert e.terms == {(((31415927,), 1), ((99999989,), 1)): 1}


def test_an_exponent_at_the_limit_works_and_one_past_it_is_refused():
    flag = Flag.cyclic(parse_group("Z2"), 2)
    e = CoeffPoly.euler(flag.group.character((1,)))
    b = SymPoly.var(flag, -2, 2)
    for x in (e, b, b * e):
        top = x**MAX_EXP
        assert top == x ** (MAX_EXP - 1) * x
        for past in (lambda: top * x, lambda: x ** (MAX_EXP + 1)):
            with pytest.raises(PreconditionError, match="over the limit"):
                past()
    # a product past the limit that cancels leaves no exponent over it
    half = b ** (MAX_EXP // 2 + 1)
    assert (half * (b - b)).is_zero
    with pytest.raises(PreconditionError, match="over the limit"):
        SymPoly(flag, -2, {((0, MAX_EXP + 1),): 1})
    with pytest.raises(PreconditionError, match="out of range"):
        CoeffPoly(flag.group, {(((1,), MAX_EXP + 1),): 1})


# every value class through the renderer -------------------------------------------


@pytest.mark.parametrize("spec, length", CONTEXTS + [("Z64", 40)])
def test_every_value_class_renders_as_the_tuple_reference(spec, length):
    # zero, constants and draws of CoeffPoly, SymPoly, ProjClass and BExpr;
    # Z3 at length 1,000 and Z64 at 40 give keys over many fields
    flag = Flag.cyclic(parse_group(spec), length)
    group = flag.group
    rng = random.Random(f"render-{spec}")
    for a in [CoeffPoly.zero(group), CoeffPoly.const(group, -7)] + [draw_coeff(rng, group) for _ in range(8)]:
        ra = ref_of_coeff(a)
        assert str(a) == ref_text({(): ra} if ra else {})
        assert json.dumps(a.to_json()) == json.dumps(ref_coeff_json(ra))
    for shift in (-2, 2):
        for x in [SymPoly.zero(flag, shift), SymPoly.const(flag, shift, 3)]:
            assert_same(x, ref_of_sym(x))
    for _ in range(6):
        coeffs = {i: draw_coeff(rng, group) for i in rng.sample(range(length + 1), min(3, length + 1))}
        cls = ProjClass(flag, coeffs)
        assert str(cls) == ref_text({((i, 1),): ref_of_coeff(c) for i, c in coeffs.items()})
        assert json.dumps(cls.to_json()) == json.dumps(
            [{"index": i, "coeff": ref_coeff_json(ref_of_coeff(coeffs[i]))} for i in sorted(coeffs)]
        )
    inverted = sorted({c for c in flag.chars if not c.is_trivial}, key=lambda c: c.residues)
    for family in "bc":
        assert str(BExpr.zero(flag, family)) == "0"
        assert str(BExpr.const(flag, family, -2)) == "-2"
        for _ in range(6):
            indices = sorted({rng.randint(1, length) for _ in range(3)})
            terms = {tuple((i, k) for i in indices if (k := rng.randrange(3))): draw_coeff(rng, group)
                     for _ in range(rng.randint(1, 3))}
            denom = {c: rng.randint(1, 3) for c in rng.sample(inverted, min(len(inverted), rng.randrange(3)))}
            x = BExpr(flag, family, terms, denom)
            text, doc = ref_quotient({b: ref_of_coeff(c) for b, c in terms.items()},
                                     {c.residues: k for c, k in denom.items()}, family)
            assert str(x) == text
            assert json.dumps(x.to_json()) == json.dumps(doc)
