"""The zero-free kernel results and the coaugmentation class's table of
Euler monomials, each checked against a plain reference written here.

add_terms and mul_terms drop a monomial whose coefficient cancels, so the
classes wrap their results without filtering them again; the references
are the kernel that kept zeros, filtered afterwards, on packed monomials
and on the unpacked monomials that the classes' terms show.  coaug reads its
coefficients from a per-group table of Euler monomials; the reference
counts the twists of each stage afresh."""

import random
from collections import Counter

import pytest

from equibord import verify
from equibord.coeff import CoeffPoly, euler_unit, specializer
from equibord.flags import Flag, ProjClass, coaug
from equibord.groups import parse_group
from equibord.sparse import W, add_terms, mul_terms
from equibord.symalg import SymPoly, _specialized
from equibord.verify import SweepConfig, _complete_flags, _duality_sweep, check_coaug_duality


def _kept_add(t1: dict, t2: dict) -> dict:
    """The sum with zeros kept, then filtered."""
    acc = dict(t1)
    for m, c in t2.items():
        acc[m] = acc[m] + c if m in acc else c
    return {m: c for m, c in acc.items() if c}


def mono(counts) -> tuple:
    """The unpacked monomial of {variable: positive exponent} counts."""
    return tuple(sorted(counts.items()))


def _mono_mul(m1, m2):
    """The product of two packed monomials, or of two unpacked ones by
    counting every variable."""
    if isinstance(m1, int):
        return m1 + m2
    return mono(Counter(dict(m1)) + Counter(dict(m2)))


def _kept_mul(t1: dict, t2: dict) -> dict:
    """The product with zeros kept, then filtered."""
    acc: dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = _mono_mul(m1, m2)
            acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return {m: c for m, c in acc.items() if c}


def _zero_free(terms: dict) -> bool:
    return all(c.terms if isinstance(c, CoeffPoly) else c for c in terms.values())


# packed monomials: x in slot 0, y in slot 1
ONE, X, Y = 0, 1, 1 << W
X2, XY, Y2 = 2 * X, X + Y, 2 * Y

INT_CASES = [
    # (t1, t2, the sum, the product)
    ({X: 1, Y: 2}, {X: -1, Y: -2}, {}, {X2: -1, XY: -4, Y2: -4}),  # the sum cancels whole
    ({X: 1, Y: 1}, {X: 1, Y: -1}, {X: 2}, {X2: 1, Y2: -1}),  # x*y cancels in the product
    ({ONE: 1, X: 1, X2: 1}, {ONE: 1, X: -1, X2: 1}, {ONE: 2, X2: 2}, None),  # x^2: +1, -1, +1
    ({ONE: 3}, {ONE: -3}, {}, {ONE: -9}),
]


@pytest.mark.parametrize("t1, t2, total, product", INT_CASES)
def test_int_kernel_results_are_zero_free(t1, t2, total, product):
    got_sum, got_product = add_terms(t1, t2), mul_terms(t1, t2)
    assert got_sum == _kept_add(t1, t2) == total
    assert got_product == _kept_mul(t1, t2)
    if product is not None:
        assert got_product == product
    assert _zero_free(got_sum) and _zero_free(got_product)


def test_a_cancelled_monomial_comes_back_when_a_later_product_lands_on_it():
    # (1 + x + x^2)(1 - x + x^2): x^2 gets +1, then -1, then +1
    got = mul_terms({ONE: 1, X: 1, X2: 1}, {ONE: 1, X: -1, X2: 1})
    assert got == {ONE: 1, X2: 1, 4 * X: 1}


def _random_ints(rng: random.Random, variables: int, terms: int) -> dict:
    out = {}
    for _ in range(terms):
        m = 0
        for v in range(variables):
            m += rng.randrange(3) << (W * v)
        out[m] = rng.choice((1, -1, 2, -2))
    return out


def test_seeded_int_kernel_results_equal_the_filtered_ones():
    rng = random.Random("zero-free ints")
    cancelled = 0
    for _ in range(400):
        t1 = _random_ints(rng, 2, rng.randrange(1, 6))
        t2 = _random_ints(rng, 2, rng.randrange(1, 6))
        for got, want in ((add_terms(t1, t2), _kept_add(t1, t2)), (mul_terms(t1, t2), _kept_mul(t1, t2))):
            assert got == want and _zero_free(got)
        cancelled += len(t1.keys() | t2.keys()) > len(add_terms(t1, t2))
    assert cancelled > 50  # the draws do cancel


def _euler(group, *residues) -> CoeffPoly:
    return CoeffPoly.euler(group.character(residues))


def test_coefficient_poly_results_are_zero_free():
    z3 = parse_group("Z3")
    a, b = _euler(z3, 1), _euler(z3, 2)
    for x, y in ((a + b, a - b), (a * b + 2, a * b - 2), (a - 1, a + 1), (a, -a)):
        for got, want in ((x + y, _kept_add(x.terms, y.terms)), (x * y, _kept_mul(x.terms, y.terms))):
            assert got.terms == want and _zero_free(got.terms)
        assert (x * y).packed == _kept_mul(x.packed, y.packed)
    assert (a + b) * (a - b) == a * a - b * b and (a * a - b * b).terms == {
        (((1,), 2),): 1, (((2,), 2),): -1
    }
    assert (a + (-a)).terms == {} and (a - a).is_zero


@pytest.mark.parametrize("spec", ["Z2", "Z3", "Z2xZ2"])
def test_sympoly_results_with_cancelling_coefficients_equal_the_filtered_ones(spec):
    # CoeffPoly coefficients on the beta monomials: a product of two nonzero
    # coefficients is nonzero, and a cancelled sum of them is dropped
    group = parse_group(spec)
    flag = Flag.cyclic(group, 3)
    rng = random.Random(f"zero-free sympolys {spec}")
    nontrivial = group.characters()[1:]
    pieces = [CoeffPoly.one(group), CoeffPoly.const(group, 2)] + [
        CoeffPoly.euler(c) for c in nontrivial
    ]

    def draw():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            m = mono({i: 1 for i in range(flag.length + 1) if rng.random() < 0.4})
            c = rng.choice(pieces) * rng.choice((1, -1))
            terms[m] = terms[m] + c if m in terms else c
        return SymPoly(flag, -2, terms)

    cancelled = 0
    for _ in range(150):
        x, y = draw(), draw()
        for got, want in (
            (x + y, _kept_add(x.terms, y.terms)),
            (x - x, {}),
            (x * y, _kept_mul(x.terms, y.terms)),
            (x * (-x), _kept_mul(x.terms, (-x).terms)),
            ((x + y) * (x - y), _kept_mul(_kept_add(x.terms, y.terms), _kept_add(x.terms, (-y).terms))),
        ):
            assert got.terms == want and _zero_free(got.terms)
            assert all(_zero_free(c.terms) for c in got.terms.values())
        cancelled += len(x.terms.keys() | y.terms.keys()) > len((x + y).terms)
    assert cancelled > 2  # the draws do cancel


def test_specialization_drops_the_coefficients_it_sends_to_zero():
    z3 = parse_group("Z3")
    flag = Flag.cyclic(z3, 3)
    a, b = _euler(z3, 1), _euler(z3, 2)
    x = SymPoly(flag, -2, {((0, 1),): a - b, ((1, 1),): a * b, ((2, 1),): 1 + a})
    both = {z3.character((1,)): 1, z3.character((2,)): 1}
    got = x.specialize(both)
    assert got.terms == {((1, 1),): CoeffPoly.one(z3), ((2, 1),): CoeffPoly.const(z3, 2)}
    zero = {z3.character((1,)): 0, z3.character((2,)): 0}
    assert _specialized(x, specializer(z3, zero)).terms == {((2, 1),): CoeffPoly.one(z3)}
    p = ProjClass(flag, {0: a - b, 1: a * b, 3: 1 + a})
    assert p.specialize(both).coeffs == {1: CoeffPoly.one(z3), 3: CoeffPoly.const(z3, 2)}
    assert p.specialize(zero).coeffs == {3: CoeffPoly.one(z3)}


def test_random_numerators_are_zero_free_where_draws_cancel():
    # dimension 0 puts every drawn term on the unit monomial, so some cancel
    group = parse_group("1")
    flag = Flag.cyclic(group, 2)
    rng = random.Random("zero-free draws")
    for dim in (0, 1):
        for _ in range(300):
            x = verify._random_numerator(rng, flag, -2, dim)
            assert x.terms and _zero_free(x.terms)


# the table of Euler monomials -----------------------------------------------------


def _reference_coaug(flag: Flag, alpha) -> ProjClass:
    """The coaugmentation class with each stage's twists counted afresh."""
    group = flag.group
    inv = alpha.inverse().residues
    coeffs = {0: CoeffPoly(group, {(): 1})}
    running: dict = {}
    for i in range(1, flag.first_index(alpha)):
        chi = flag.chars[i - 1].residues
        rs = tuple((a + b) % n for a, b, n in zip(inv, chi, group.cyclic_orders))
        running[rs] = running.get(rs, 0) + 1
        coeffs[i] = CoeffPoly(group, {mono(running): 1})
    return ProjClass(flag, coeffs)


def _flags(group) -> list:
    if group.order <= 6:
        return list(_complete_flags(group, 6))
    return [Flag.cyclic(group, 12)]


def _check_against_reference(group) -> set:
    """Compare coaug with the reference on every character of every flag of
    the group; the monomials reached."""
    reached = set()
    for flag in _flags(group):
        for alpha in group.characters():
            got = coaug(flag, alpha)
            want = _reference_coaug(flag, alpha)
            assert got == want and got.flag is flag, (str(flag), str(alpha))
            assert {i: c.terms for i, c in got.coeffs.items()} == {
                i: c.terms for i, c in want.coeffs.items()
            }
            assert all(c.group is group for c in got.coeffs.values())
            reached |= {m for c in got.coeffs.values() for m in c.terms}
    return reached


@pytest.mark.parametrize("spec", ["1", "Z2", "Z3", "Z4", "Z2xZ2", "Z6", "Z8", "Z3xZ3"])
def test_coaug_matches_the_counted_twists_fresh_warm_and_reparsed(spec):
    group = parse_group(spec)
    assert group._euler_nodes == {}
    reached = _check_against_reference(group)  # fresh
    nodes = dict(group._euler_nodes)
    assert _check_against_reference(group) == reached  # warm: nothing new is built
    assert group._euler_nodes == nodes
    assert all(group._euler_nodes[m] is node for m, node in nodes.items())
    twin = parse_group(spec)  # an equal group has a table of its own
    assert _check_against_reference(twin) == reached
    assert twin._euler_nodes is not group._euler_nodes


@pytest.mark.parametrize("spec", ["Z2", "Z3", "Z4", "Z2xZ2", "Z6", "Z8", "Z3xZ3"])
def test_the_table_has_one_node_per_monomial_reached(spec):
    group = parse_group(spec)
    reached = _check_against_reference(group)
    nodes = group._euler_nodes
    # the nodes reachable from the unit node, each counted once
    seen, todo = {}, [nodes[0]]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node[1].values())
    assert len(seen) == len(nodes) <= len(reached)
    for m, (coeff, nexts) in nodes.items():
        assert coeff.packed == {m: 1} and coeff.group is group
        for rs, (after, _) in nexts.items():
            assert after.packed == {m + euler_unit(group, rs): 1}


def test_twists_in_another_order_share_one_node():
    z4 = parse_group("Z4")
    c = z4.characters()
    one = Flag(z4, [c[0], c[1], c[2], c[3]])
    two = Flag(z4, [c[0], c[2], c[1], c[3]])
    eps = z4.identity
    # eps twists nothing, so both reach e(1)e(2) on beta_2, by two paths
    assert coaug(one, c[3]).coeffs[3] is coaug(two, c[3]).coeffs[3]
    assert coaug(one, eps).coeffs == {0: CoeffPoly.one(z4)}


def test_a_wrong_twist_in_the_residue_sums_is_caught_by_the_duality_check(monkeypatch):
    # chi in place of alpha^{-1} + chi for every nontrivial chi, so that no
    # twist is trivial: the trivial alpha cannot see it, every other can
    cfg = SweepConfig(groups=("Z3",), max_flag_len=4)
    poisoned = parse_group("Z3")
    for alpha in poisoned.characters():
        inv = alpha.inverse()
        poisoned._residue_sums[inv.residues] = {
            c.residues: (c * inv if c.is_trivial else c).residues for c in poisoned.characters()
        }
    monkeypatch.setattr(verify, "parse_group", lambda spec: poisoned)
    result = check_coaug_duality(cfg)
    assert result.status == "fail" and result.counterexample["alpha"] != "(0)"
    monkeypatch.undo()
    assert check_coaug_duality(cfg).status == "pass"


def test_a_wrong_node_in_the_table_is_caught_by_the_duality_check(monkeypatch):
    poisoned = parse_group("Z4")
    flag = Flag.cyclic(poisoned, 4)
    for alpha in poisoned.characters():
        coaug(flag, alpha)
    # send one twist of the unit node to the node of another
    root = poisoned._euler_nodes[0][1]
    first, second = sorted(root)[:2]
    root[first] = root[second]
    monkeypatch.setattr(verify, "parse_group", lambda spec: poisoned)
    cases, cx = _duality_sweep(("Z4",), 5)
    assert cx is not None
