"""The packed kernel against the tuple kernel it replaced.

Before the monomials were packed into ints, a monomial was a sorted tuple
of (variable, exponent) pairs, a SymPoly held {beta monomial: CoeffPoly}
and a CoeffPoly {Euler monomial: int}, and exact division took its leading
terms in graded-lex order.  That kernel is kept here as the reference:
mono_mul, mul_terms, divexact_terms and grlex as they were, on nested
dicts.  Seeded draws of CoeffPolys and SymPolys are put through both, and
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
from equibord.flags import Flag
from equibord.groups import format_residues, parse_group
from equibord.sparse import MAX_EXP, W
from equibord.symalg import SymPoly, retract
from equibord.verify import DEFAULT_GROUPS

# the reference kernel ------------------------------------------------------------


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    acc = dict(m1)
    for v, k in m2:
        acc[v] = acc.get(v, 0) + k
    return tuple(sorted(acc.items()))


def mono_div(m: tuple, d: tuple):
    acc = dict(m)
    for v, k in d:
        have = acc.get(v, 0)
        if have < k:
            return None
        if have == k:
            del acc[v]
        else:
            acc[v] = have - k
    return tuple(sorted(acc.items()))


def grlex(m: tuple) -> list:
    key = [-sum(k for _, k in m)]
    key += [(v, -k) for v, k in m]
    return key


def add_terms(t1: dict, t2: dict) -> dict:
    acc = dict(t1)
    for m, c in t2.items():
        acc[m] = acc[m] + c if m in acc else c
    return {m: c for m, c in acc.items() if c}


def mul_terms(t1: dict, t2: dict) -> dict:
    acc: dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = mono_mul(m1, m2)
            acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return {m: c for m, c in acc.items() if c}


def divexact_terms(num: dict, den: dict, coeff_div, zero):
    lt_m = min(den, key=grlex)
    lt_c = den[lt_m]
    rem = dict(num)
    quot: dict = {}
    while rem:
        m = min(rem, key=grlex)
        qm = mono_div(m, lt_m)
        if qm is None:
            return None
        qc = coeff_div(rem[m], lt_c)
        if qc is None:
            return None
        quot[qm] = qc
        for m2, c2 in den.items():
            mm = mono_mul(qm, m2)
            nc = rem.get(mm, zero) - qc * c2
            if nc:
                rem[mm] = nc
            else:
                rem.pop(mm, None)
    return quot


class Ref:
    """A reference coefficient: {Euler monomial: int} with the ring operators."""

    def __init__(self, terms: dict):
        self.t = {m: c for m, c in terms.items() if c}

    def __add__(self, o):
        return Ref(add_terms(self.t, o.t))

    def __neg__(self):
        return Ref({m: -c for m, c in self.t.items()})

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return Ref(mul_terms(self.t, o.t))

    def __bool__(self):
        return bool(self.t)

    def __eq__(self, o):
        return self.t == o.t

    def divexact(self, o):
        q = divexact_terms(self.t, o.t, lambda a, b: None if a % b else a // b, 0)
        return None if q is None else Ref(q)


# values in both forms -------------------------------------------------------------


def ref_of_coeff(c: CoeffPoly) -> Ref:
    return Ref(c.terms)


def ref_of_sym(x: SymPoly) -> dict:
    return {b: ref_of_coeff(c) for b, c in x.terms.items()}


def sym_of_ref(flag: Flag, shift: int, ref: dict) -> SymPoly:
    return SymPoly(flag, shift, {b: CoeffPoly(flag.group, c.t) for b, c in ref.items()})


def ref_add(a: dict, b: dict) -> dict:
    acc = dict(a)
    for m, c in b.items():
        acc[m] = acc[m] + c if m in acc else c
    return {m: c for m, c in acc.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    acc: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return {m: c for m, c in acc.items() if c}


def ref_pow(a: dict, n: int) -> dict:
    out = {(): Ref({(): 1})}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


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


def ref_retract(a: dict) -> dict:
    out = {}
    for b, c in a.items():
        q = mono_div(b, ((0, 1),))
        if q is not None:
            out[q] = c
    return out


def ref_degrees(a: dict, shift: int) -> tuple:
    dims = {sum(k for _, k in b) for b in a}
    internal = {
        sum(k * (2 * i - shift) for i, k in b) - 2 * sum(k for _, k in m)
        for b, c in a.items()
        for m in c.t
    }
    return dims, internal


def ref_text(a: dict) -> str:
    parts = []
    for b in sorted(a, key=grlex):
        for m in sorted(a[b].t, key=grlex):
            c = a[b].t[m]
            syms = [f"e[{format_residues(rs)}]" + (f"^{k}" if k > 1 else "") for rs, k in m]
            syms += [f"beta[{i}]" + (f"^{k}" if k > 1 else "") for i, k in b]
            body = " * ".join(([str(abs(c))] if abs(c) != 1 or not syms else []) + syms)
            parts.append((c < 0, body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] else "") + parts[0][1]
    return out + "".join((" - " if neg else " + ") + body for neg, body in parts[1:])


def ref_json(a: dict) -> list:
    return [
        {
            "coeff": a[b].t[m],
            "euler": {format_residues(rs): k for rs, k in m},
            "beta": {str(i): k for i, k in b},
        }
        for b in sorted(a, key=grlex)
        for m in sorted(a[b].t, key=grlex)
    ]


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
        assert_same(x + y, ref_add(rx, ry))
        assert_same(x - y, ref_add(rx, {b: -c for b, c in ry.items()}))
        assert_same(x * y, ref_mul(rx, ry))
        assert_same(y * x, ref_mul(rx, ry))
        assert_same(x**3, ref_pow(rx, 3))
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
            assert_same(retract(x), ref_retract(rx))
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
