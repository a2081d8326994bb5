"""Sparse polynomial kernel shared by the algebra layers.

A polynomial is stored as a dict {monomial: nonzero int}.  A monomial is
one int, a packed exponent vector (Monagan and Pearce): every variable
owns a slot, and the exponent of the variable in slot s is the W-bit field
in bits W*s .. W*s + W - 1.  The product of two monomials is the sum of
their ints, and the unit monomial is 0.

Slots.  In the coefficient ring (coeff.CoeffPoly) the variables are the
Euler symbols of one group.  Each symbol takes the next free slot the
first time it is used (groups.euler_unit), never a slot by its rank, so
a huge group with a short flag keeps small monomials.  Equal groups share
one slot table, so values over two parses of a group pack alike.  In the
symmetric algebra (symalg.SymPoly) beta_i takes slot i, and the Euler
symbols sit above the flag's N + 1 beta slots: a term's monomial is its
beta part plus its Euler monomial shifted left by W*(N + 1), with an int
coefficient.  So a monomial is as wide as its highest slot, and a term
with an Euler symbol over a long flag is a wide int.

Width and guard bits.  The top bit of every field is a guard bit, so an
exponent is at most MAX_EXP = 2**(W-1) - 1.  The sum of two monomials
within the limit never carries out of a field, and a field past the limit
shows its guard bit: mul_terms checks its result (check), and dividing m
by d is the subtraction m - d, which is a monomial exactly when no guard
bit comes out set.

Orders.  Exact division (divexact_terms) takes the leading term as the
plain max of the packed ints.  That is lex order over the slots, highest
slot first, a monomial order: adding a monomial to two ints keeps their
order.  Rendering never sees slots: the classes unpack each monomial into
(variable, exponent) pairs, beta indices or character residues, and sort
by grlex, so output does not depend on which slot a symbol was given.

Zero-free contract: a term dict holds no zero coefficient.  add_terms and
mul_terms keep it, dropping a monomial the moment its coefficient cancels,
so the classes wrap their results (through _of) without filtering again.
No term dict is ever changed in place once wrapped.
"""

from __future__ import annotations

from functools import lru_cache
from struct import unpack

from .errors import PreconditionError

MAX_INT_DIGITS = 4_300  # CPython's default int <-> str limit, past which int() raises
W = 32  # bits per slot
MAX_EXP = (1 << (W - 1)) - 1  # the largest exponent a field holds
FIELD = (1 << W) - 1

# a power of an int with at least this many bits has over MAX_INT_DIGITS digits
MAX_INT_BITS = MAX_INT_DIGITS * 3322 // 1000 + 1  # 3.322 > log2(10)


@lru_cache(maxsize=None)
def _masks(n: int) -> tuple:
    """(the guard bits, the top 16 bits) of each of n fields."""
    ones = ((1 << (W * n)) - 1) // FIELD  # 1 in every field
    return ones << (W - 1), ones * (0xFFFF << 16)


def _cover(nbits: int) -> tuple:
    """_masks over every field in the low nbits bits, or more: the field
    count is rounded up to a power of two, so few masks are ever built."""
    return _masks(1 << (nbits // W + 1).bit_length())


def guard(nbits: int) -> int:
    """The guard bits of every field in the low nbits bits, or more."""
    return _cover(nbits)[0]


def check(bits: int):
    """Raise unless every field of bits, an OR of monomials, is within MAX_EXP."""
    if bits & guard(bits.bit_length()):
        raise PreconditionError(f"an exponent is over the limit of {MAX_EXP}")


def fields(m: int) -> list:
    """(slot, exponent) pairs of the nonzero fields of m, by slot."""
    if m <= FIELD:
        return [(0, m)] if m else []
    n = (m.bit_length() + W - 1) // W
    return [(s, k) for s, k in enumerate(unpack(f"<{n}I", m.to_bytes(4 * n, "little"))) if k]


def degree(m: int) -> int:
    """Total exponent: m mod 2**W - 1, casting out the fields, which is the
    sum of the fields while that sum is below 2**W - 1, as it is when there
    are fewer than 2**16 fields, each below 2**16; else field by field."""
    nbits = m.bit_length()
    if m & _cover(nbits)[1] or nbits > W * 0xFFFF:
        return sum(k for _, k in fields(m))
    return m % FIELD


def grlex(m: tuple) -> list:
    """Sort key of the one rendering order, on an unpacked monomial, a tuple
    of (variable, exponent) pairs sorted by variable: ascending keys are
    descending graded-lex order.  The total degree is negated and each
    (v, k) becomes (v, -k); a monomial whose pairs begin another's has a
    lower degree, so no end marker is needed.  Variables compare as they
    are: beta indices as ints, characters as residue tuples, in
    AbelianGroup.unrank's order."""
    key = [0]
    total = 0
    for v, k in m:
        total += k
        key.append((v, -k))
    key[0] = -total
    return key


def sorted_terms(terms: dict) -> list:
    """(monomial, coefficient) pairs of a dict on unpacked monomials, in
    descending graded-lex order."""
    return [(m, terms[m]) for m in sorted(terms, key=grlex)]


def check_int(c: int):
    """Raise when the int c has more than MAX_INT_DIGITS digits, before it
    is printed: CPython refuses to convert it to text."""
    if c.bit_length() >= MAX_INT_BITS - 1 and abs(c) >= 10**MAX_INT_DIGITS:
        raise PreconditionError(f"an integer in the result has over {MAX_INT_DIGITS} digits")


def check_power(terms: dict, n: int):
    """Raise, before the power is taken, when the n-th power of a nonzero
    term dict would have a coefficient of over MAX_INT_DIGITS digits: the
    n-th powers of its lex-first and lex-last coefficients are two of the
    power's, and |c|**n has at least (bits of c - 1) * n bits."""
    c = max(abs(terms[max(terms)]), abs(terms[min(terms)]))
    if (c.bit_length() - 1) * n >= MAX_INT_BITS:
        raise PreconditionError(
            f"a coefficient of the power {n} would have over {MAX_INT_DIGITS} digits"
        )


def add_terms(t1: dict, t2: dict) -> dict:
    """Sum of two term dicts, zero-free when both are: a monomial whose
    coefficients cancel is dropped."""
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
    if a later product lands on it.  Raises when an exponent of the result
    is over MAX_EXP; a product past the limit that cancels leaves none."""
    acc: dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = m1 + m2
            prev = acc.get(m)
            if prev is None:
                acc[m] = c1 * c2
            elif c := prev + c1 * c2:
                acc[m] = c
            else:
                del acc[m]
    bits = 0
    for m in acc:
        bits |= m
    check(bits)
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

    Leading-term division in the lex order of the packed ints; sound for
    exact quotients over an integral domain.  coeff_div(a, b) is the exact
    quotient of coefficients or None, and zero is the coefficients' zero.
    Every monomial of the remainder is at most max(num), so one guard mask
    covers each subtraction.
    """
    lt_m = max(den)
    lt_c = den[lt_m]
    rem = dict(num)
    g = guard(max(max(num), lt_m).bit_length())
    quot: dict = {}
    while rem:
        m = max(rem)
        qm = m - lt_m
        if qm & g:
            return None
        qc = coeff_div(rem[m], lt_c)
        if qc is None:
            return None
        quot[qm] = qc
        for m2, c2 in den.items():
            mm = qm + m2
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
