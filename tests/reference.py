"""Independent references for the tests, written from the definitions, on
the stdlib alone and sharing no code with equibord.  A character is its
residue tuple, a group its tuple of cyclic orders, and a monomial a sorted
tuple of (variable, exponent) pairs, as the engine's .terms views show it.
A change of representation in the engine keeps its old code here.  Values
that many cases share are remembered for the session; do not change them.
"""

import functools
import itertools
from collections import Counter

# tuple monomials -------------------------------------------------------------


def mono(counts) -> tuple:
    """The monomial of {variable: positive exponent} counts."""
    return tuple(sorted(counts.items()))


def mono_mul(m1, m2):
    """The product of two monomials: the exponents of each variable add.
    On packed ints, whose fields are the exponents, that is the sum."""
    return m1 + m2 if isinstance(m1, int) else mono(Counter(dict(m1)) + Counter(dict(m2)))


def mono_div(m: tuple, d: tuple):
    """m / d, or None when d does not divide m."""
    acc = Counter(dict(m))
    acc.subtract(dict(d))
    return None if min(acc.values(), default=0) < 0 else mono(+acc)


def dense_grlex_key(slots):
    """The graded-lex key: total degree, then the exponent vector with
    variable v in position slots[v].  Larger keys lead."""

    def key(m):
        vec = [0] * len(slots)
        for v, k in m:
            vec[slots[v]] = k
        return (sum(vec), tuple(vec))

    return key


def grlex_sorted(monos) -> list:
    """monos in descending graded-lex order, the variables they hold taking
    their positions in sorted order: the leading monomial first."""
    variables = sorted({v for m in monos for v, _ in m})
    return sorted(monos, key=dense_grlex_key({v: i for i, v in enumerate(variables)}), reverse=True)


# the zero-keeping kernel: {monomial: coefficient}, zeros dropped at the end ---


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


def power(terms: dict, n: int, one: dict) -> dict:
    """terms to the power n by repeated squaring, one the unit."""
    out = one
    while n:
        if n & 1:
            out = mul_terms(out, terms)
        n >>= 1
        if n:
            terms = mul_terms(terms, terms)
    return out


def divexact_terms(num: dict, den: dict, coeff_div, zero):
    """num / den by leading terms in graded-lex order, or None when den
    does not divide num; coeff_div divides two coefficients the same way."""
    lt_m = grlex_sorted(den)[0]
    lt_c = den[lt_m]
    rem = dict(num)
    quot: dict = {}
    while rem:
        m = grlex_sorted(rem)[0]
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
    """A coefficient {Euler monomial: int} with the ring operators."""

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


# characters and flags ---------------------------------------------------------


def ranked(orders) -> list:
    """The residue tuples of the group in rank order, by enumeration."""
    return list(itertools.product(*(range(n) for n in orders)))


@functools.cache
def complete_flags(orders, max_len: int) -> tuple:
    """The complete flags of length up to max_len, shorter ones first: the
    trivial character, then every tail in the enumerated order that holds
    every character."""
    if max_len < 1:
        return ()
    chars = ranked(orders)
    return complete_flags(orders, max_len - 1) + tuple(
        (chars[0],) + tail
        for tail in itertools.product(chars, repeat=max_len - 1)
        if len({chars[0], *tail}) == len(chars)
    )


# Euler classes, augmentation and coaugmentation ------------------------------


def euler_class(chars) -> dict:
    """The Euler class of the sum of the characters: zero with a trivial
    summand, else one Euler symbol per summand."""
    if any(not any(rs) for rs in chars):
        return {}
    return {mono(Counter(chars)): 1}


@functools.cache
def aug(orders, chars: tuple, alpha: tuple) -> dict:
    """The augmentation value of the stage chars at alpha: the Euler class
    of each chi_j twisted by alpha^-1, so zero once some chi_j is alpha,
    else the product of the e[chi_j - alpha]."""
    return euler_class([tuple((c - a) % n for c, a, n in zip(chi, alpha, orders)) for chi in chars])


_coaugs: dict = {}


def coaug(orders, chars: tuple, alpha: tuple) -> dict:
    """The coaugmentation class of alpha over the flag chars, which holds
    alpha, as {i: terms}: 1 on beta_0, and on beta_i, for each i before the
    first occurrence of alpha, the product of e[alpha^-1 chi_j] over j <= i.
    Remembered by (orders, the flag up to that occurrence, alpha)."""
    prefix = tuple(chars[: chars.index(alpha)])
    key = (orders, prefix, alpha)
    if key not in _coaugs:
        inv = tuple((-a) % n for a, n in zip(alpha, orders))
        running: Counter = Counter()
        out = {0: {(): 1}}
        for i, chi in enumerate(prefix, start=1):
            running[tuple((a + c) % n for a, c, n in zip(inv, chi, orders))] += 1
            out[i] = {mono(running): 1}
        _coaugs[key] = out
    return _coaugs[key]
