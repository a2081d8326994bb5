"""Coefficient ring: integer polynomials on Euler symbols of nontrivial characters.

An element is stored sparsely as {packed monomial: int} in the format of
the sparse kernel, each Euler symbol in the slot that groups.euler_unit
gives it, from one slot table for all equal groups.  Every symbol
e[gamma] sits in homological degree -2, so a monomial of exponent sum k
has degree -2k.  There is no symbol for the trivial character: the Euler
class of a representation with a trivial summand is zero outright.
"""

from __future__ import annotations

from .errors import MismatchError, PreconditionError
from .groups import AbelianGroup, Character, Representation, euler_unit, format_residues, unpack_euler
from .render import flat_terms, join_signed, signed_product
from .sparse import (
    MAX_EXP, W, RingOps, add_terms, check, check_power, divexact_terms, fields, mul_terms, power,
    sorted_terms,
)


def pack_euler(group: AbelianGroup, m) -> int:
    """The packed form of ((residues, exponent), ...) in group's slots."""
    e = 0
    for rs, k in m:
        if not 1 <= k <= MAX_EXP:
            raise PreconditionError(f"Euler exponent {k} out of range 1..{MAX_EXP}")
        e += k * euler_unit(group, rs)
    return e


def _int_divexact(a: int, b: int) -> int | None:
    return None if a % b else a // b


class CoeffPoly(RingOps):
    """Sparse integer polynomial on Euler symbols of one group's nontrivial characters.

    CoeffPoly(group, terms) takes terms as {((residues, exponent), ...): int}
    and packs them; the packed terms are kept in `packed`."""

    __slots__ = ("group", "packed")

    def __init__(self, group: AbelianGroup, terms: dict | None = None):
        self.group = group
        packed: dict = {}
        for m, c in (terms or {}).items():
            if c:
                e = pack_euler(group, m)
                packed[e] = packed.get(e, 0) + c
        self.packed = {e: c for e, c in packed.items() if c}

    @classmethod
    def _of(cls, group: AbelianGroup, packed: dict) -> "CoeffPoly":
        """Wrap {packed monomial: nonzero int} terms known to be valid for
        group, such as a zero-free kernel result; nothing is checked or
        filtered.  The dict becomes the value's own and is never changed in
        place."""
        x = object.__new__(cls)
        x.group, x.packed = group, packed
        return x

    @classmethod
    def zero(cls, group: AbelianGroup) -> "CoeffPoly":
        return cls(group, {})

    @classmethod
    def const(cls, group: AbelianGroup, n: int) -> "CoeffPoly":
        return cls(group, {(): int(n)})

    @classmethod
    def one(cls, group: AbelianGroup) -> "CoeffPoly":
        return cls.const(group, 1)

    @classmethod
    def euler(cls, gamma: Character) -> "CoeffPoly":
        """The Euler symbol of a single nontrivial character."""
        if gamma.is_trivial:
            raise PreconditionError("no Euler symbol for the trivial character")
        return cls(gamma.group, {((gamma.residues, 1),): 1})

    @property
    def terms(self) -> dict:
        """The terms as {((residues, exponent), ...): int}, unpacked on each
        access: for reading, not for arithmetic."""
        group = self.group
        return {unpack_euler(group, e): c for e, c in self.packed.items()}

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def _coerce(self, other) -> "CoeffPoly | None":
        if isinstance(other, CoeffPoly):
            if other.group is not self.group and other.group != self.group:
                raise MismatchError("coefficient polynomials over different groups")
            return other
        if isinstance(other, int):
            return CoeffPoly.const(self.group, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return CoeffPoly._of(self.group, add_terms(self.packed, rhs.packed))

    __radd__ = __add__

    def __neg__(self):
        return CoeffPoly._of(self.group, {m: -c for m, c in self.packed.items()})

    def __mul__(self, other):
        if other.__class__ is CoeffPoly and other.group is self.group:
            t1, t2 = self.packed, other.packed
            if len(t1) == 1 and len(t2) == 1:
                # one term each: a product of nonzero ints is nonzero
                (m1, c1), = t1.items()
                (m2, c2), = t2.items()
                check(m := m1 + m2)
                return CoeffPoly._of(self.group, {m: c1 * c2})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return CoeffPoly._of(self.group, mul_terms(self.packed, rhs.packed))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError("negative power of a coefficient polynomial")
        if not n:
            return CoeffPoly.one(self.group)
        if self.packed:
            check_power(self.packed, n)
        return power(self, n)

    def __eq__(self, other):
        if other.__class__ is CoeffPoly:
            same = self.group is other.group or self.group == other.group
            return same and self.packed == other.packed
        if isinstance(other, int):
            return self.packed == ({0: other} if other else {})
        return False

    __hash__ = None

    def __bool__(self):
        return bool(self.packed)

    def divexact(self, other: "CoeffPoly") -> "CoeffPoly | None":
        """Exact quotient self / other, or None when it does not exist.

        Leading-term division in the lex order of the packed monomials;
        sound for exact quotients because the coefficient ring is an
        integral domain.
        """
        rhs = self._coerce(other)
        if rhs is None or rhs.is_zero:
            raise PreconditionError("division by zero coefficient polynomial")
        if self.is_zero:
            return self
        quot = divexact_terms(self.packed, rhs.packed, _int_divexact, 0)
        return None if quot is None else CoeffPoly._of(self.group, quot)

    def specialize(self, assignment: dict) -> "CoeffPoly":
        """Apply a ring map sending listed Euler symbols to given values.

        Symbols absent from the assignment map to themselves.
        """
        image = specializer(self.group, assignment)
        return CoeffPoly._of(self.group, specialized_terms(self.packed, image))

    def flat_terms(self) -> list:
        return flat_terms(self.terms, "e", format_residues, None)

    def __str__(self):
        return join_signed([signed_product(c, syms) for c, syms in self.flat_terms()])

    def to_json(self) -> list:
        return [
            {
                "coeff": c,
                "exponents": {format_residues(rs): k for rs, k in m},
            }
            for m, c in sorted_terms(self.terms)
        ]

    def __repr__(self):
        return f"CoeffPoly({self.group}, {self})"


def specializer(group: AbelianGroup, assignment: dict):
    """The ring map of CoeffPoly.specialize on group, as image(e): the
    image of the packed Euler monomial e, a zero-free term dict, remembered
    per monomial.  The assignment is checked once, entry by entry in its
    order.

    A monomial with a symbol sent to zero has the image {}.  SymPoly and
    ProjClass specialize their coefficients through this function, not
    through CoeffPoly.specialize, so a traced benchmark run (--trace 1)
    does not count that time under CoeffPoly.specialize.
    """
    zero = CoeffPoly.zero(group)
    values: dict[int, CoeffPoly] = {}  # slot -> value
    for ch, val in assignment.items():
        if not isinstance(ch, Character) or ch.group != group:
            raise MismatchError(f"assignment key {ch!r} is not a character of {group}")
        if ch.is_trivial:
            raise PreconditionError("the trivial character has no Euler symbol")
        v = zero._coerce(val)
        if v is None:
            raise PreconditionError(f"assignment value {val!r} is not a coefficient")
        values[(euler_unit(group, ch.residues).bit_length() - 1) // W] = v
    images: dict = {0: {0: 1}}

    def image(e: int) -> dict:
        img = images.get(e)
        if img is None:
            img = {0: 1}
            for s, k in fields(e):
                v = values.get(s)
                if v is None:
                    p = {k << (W * s): 1}
                elif not v:
                    img = {}
                    break
                else:
                    p = (v**k).packed
                img = mul_terms(img, p)
            images[e] = img
        return img

    return image


def specialized_terms(terms: dict, image) -> dict:
    """The zero-free terms of sum c * image(e) over the terms {e: c}."""
    acc: dict = {}
    for e, c in terms.items():
        for e2, c2 in image(e).items():
            prev = acc.get(e2)
            if prev is None:
                acc[e2] = c * c2
            elif s := prev + c * c2:
                acc[e2] = s
            else:
                del acc[e2]
    return acc


def euler_class(rep: Representation) -> CoeffPoly:
    """Euler class of a representation: zero when a trivial summand occurs,
    otherwise the product of the summands' Euler symbols."""
    group = rep.group
    if rep.contains_trivial:
        return CoeffPoly._of(group, {})
    m = sum(euler_unit(group, c.residues) for c in rep.summands)
    check(m)
    return CoeffPoly._of(group, {m: 1})
