"""Sparse polynomial kernel shared by the algebra layers.

A polynomial is stored as a dict {monomial: coefficient}.  A monomial is a
tuple of (variable, exponent) pairs sorted by variable, every exponent
positive; the empty tuple is the unit monomial.  The variables are
character residues in the coefficient ring and beta or generator indices
above it; the coefficients are ints or CoeffPolys.  The functions here work
on term dicts alone: validation and coercion stay with the classes that
wrap them.  RingOps gives those classes their subtraction in terms of their
addition and negation.

Zero-free contract: a term dict holds no zero coefficient.  add_terms and
mul_terms keep it, dropping a monomial the moment its coefficient cancels,
so the classes wrap their results (through _of) without filtering again.
A product of two nonzero coefficients is never zero: plainly so for ints,
and CoeffPolys form an integral domain.  Results may share coefficient
objects with the operands, which is safe as no term dict is ever changed
in place once wrapped.
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
    # variables of one operand all sorting before the other's: the
    # concatenation is already the sorted product
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
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


def grlex(m: Mono) -> list:
    """Sort key of the one monomial order: ascending keys are descending
    graded-lex order.  The total degree is negated and each (v, k) becomes
    (v, -k); a monomial whose pairs begin another's has a lower degree, so
    no end marker is needed.  Variables compare as they are: beta indices
    as ints, characters as residue tuples, in AbelianGroup.unrank's order."""
    key = [0]
    total = 0
    for v, k in m:
        total += k
        key.append((v, -k))
    key[0] = -total
    return key


def sorted_terms(terms: dict) -> list:
    """(monomial, coefficient) pairs in descending graded-lex order."""
    return [(m, terms[m]) for m in sorted(terms, key=grlex)]


def add_terms(t1: dict, t2: dict) -> dict:
    """Sum of two term dicts, zero-free when both are: a monomial whose
    coefficients cancel is dropped.  A coefficient may be shared with an
    operand."""
    acc = dict(t1)
    for m, c in t2.items():
        prev = acc.get(m)
        if prev is None:
            acc[m] = c
        elif c := prev + c:
            acc[m] = c
        else:
            del acc[m]
    return acc


def mul_terms(t1: dict, t2: dict) -> dict:
    """Product of two term dicts, zero-free when both are: a monomial is
    dropped the moment its accumulated coefficient cancels, and comes back
    if a later product lands on it."""
    acc: dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = mono_mul(m1, m2)
            prev = acc.get(m)
            if prev is None:
                acc[m] = c1 * c2
            elif c := prev + c1 * c2:
                acc[m] = c
            else:
                del acc[m]
    return acc


def power(x, n: int):
    """x ** n by square-and-multiply, for n >= 1 (x ** 1 is x itself); the
    caller supplies its own unit for n = 0."""
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


def divexact_terms(num: dict, den: dict, coeff_div, zero) -> dict | None:
    """Exact quotient of nonzero term dicts num / den, or None when it does
    not exist.

    Leading-term division in graded-lex order; sound for exact quotients
    over an integral domain.  coeff_div(a, b) is the exact quotient of
    coefficients or None, and zero is the coefficients' zero.
    """
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


class RingOps:
    """Subtraction, both ways round, for a class that defines + (returning
    NotImplemented for operands it does not take) and unary -."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other
