"""Sparse polynomial kernel shared by the algebra layers.

A polynomial is stored as a dict {monomial: coefficient}.  A monomial is a
tuple of (variable, exponent) pairs sorted by variable, every exponent
positive; the empty tuple is the unit monomial.  The variables are
character residues in the coefficient ring and beta or generator indices
above it; the coefficients are ints or CoeffPolys.  The functions here work
on term dicts alone: validation, coercion and dropping zero coefficients
stay with the classes that wrap them.  RingOps gives those classes their
subtraction in terms of their addition and negation.
"""

from __future__ import annotations

Mono = tuple  # ((variable, exponent), ...), sorted by variable


def mono(counts: dict) -> Mono:
    """The monomial with the given {variable: positive exponent} counts."""
    return tuple(sorted(counts.items()))


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for v, k in m2:
        acc[v] = acc.get(v, 0) + k
    return tuple(sorted(acc.items()))


def mono_div(m: Mono, d: Mono) -> Mono | None:
    """Divide monomial m by d, or None when not divisible."""
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


def mono_degree(m: Mono) -> int:
    """Total exponent."""
    return sum(k for _, k in m)


def grlex_key(slots):
    """Graded-lex sort key on monomials: total degree, then the exponent
    vector with variable v in position slots[v]."""
    width = len(slots)

    def key(m: Mono):
        vec = [0] * width
        total = 0
        for v, k in m:
            vec[slots[v]] = k
            total += k
        return (total, tuple(vec))

    return key


def sorted_terms(terms: dict, key) -> list:
    """(monomial, coefficient) pairs in descending key order."""
    return sorted(terms.items(), key=lambda kv: key(kv[0]), reverse=True)


def add_terms(t1: dict, t2: dict, zero) -> dict:
    """Sum of two term dicts; zero is the coefficients' zero.  Zero
    coefficients may remain in the result."""
    acc = dict(t1)
    for m, c in t2.items():
        acc[m] = acc.get(m, zero) + c
    return acc


def mul_terms(t1: dict, t2: dict, zero) -> dict:
    """Product of two term dicts; zero is the coefficients' zero.  Zero
    coefficients may remain in the result."""
    acc: dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = mono_mul(m1, m2)
            acc[m] = acc.get(m, zero) + c1 * c2
    return acc


def power(x, n: int, one):
    """x ** n by square-and-multiply, for n >= 0; one is the unit, returned
    for n = 0 only (x ** 1 is x itself)."""
    if not n:
        return one
    while not n & 1:
        x = x * x
        n >>= 1
    out = x
    n >>= 1
    while n:
        x = x * x
        if n & 1:
            out = out * x
        n >>= 1
    return out


def divexact_terms(num: dict, den: dict, key, coeff_div, zero) -> dict | None:
    """Exact quotient of nonzero term dicts num / den, or None when it does
    not exist.

    Leading-term division in the order of key; sound for exact quotients
    over an integral domain.  coeff_div(a, b) is the exact quotient of
    coefficients or None, and zero is the coefficients' zero.
    """
    lt_m = max(den, key=key)
    lt_c = den[lt_m]
    rem = dict(num)
    quot: dict = {}
    while rem:
        m = max(rem, key=key)
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


class RingOps:
    """Subtraction, both ways round, for a class that defines + (returning
    NotImplemented for operands it does not take) and unary -."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other
