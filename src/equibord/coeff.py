"""Coefficient ring: integer polynomials on Euler symbols of nontrivial characters.

An element is stored sparsely as {monomial: int} in the format of the
sparse kernel, with the character residues of the Euler symbols as the
variables.  Every symbol e[gamma] sits in homological degree -2, so
a monomial of exponent sum k has degree -2k.  There is no symbol for the
trivial character: the Euler class of a representation with a trivial
summand is zero outright.
"""

from __future__ import annotations

from .errors import MismatchError, PreconditionError
from .groups import AbelianGroup, Character, Representation, format_residues
from .render import flat_terms, join_signed, signed_product
from .sparse import RingOps, add_terms, divexact_terms, mono_mul, mul_terms, power, sorted_terms


def _int_divexact(a: int, b: int) -> int | None:
    return None if a % b else a // b


class CoeffPoly(RingOps):
    """Sparse integer polynomial on Euler symbols of one group's nontrivial characters."""

    __slots__ = ("group", "terms")

    def __init__(self, group: AbelianGroup, terms: dict | None = None):
        self.group = group
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, group: AbelianGroup, terms: dict) -> "CoeffPoly":
        """Wrap {monomial: nonzero int} terms known to be valid for group,
        such as a zero-free kernel result; nothing is checked or filtered.
        The dict becomes the value's own and is never changed in place."""
        x = object.__new__(cls)
        x.group, x.terms = group, terms
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
    def is_zero(self) -> bool:
        return not self.terms

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
        return CoeffPoly._of(self.group, add_terms(self.terms, rhs.terms))

    __radd__ = __add__

    def __neg__(self):
        return CoeffPoly._of(self.group, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if other.__class__ is CoeffPoly and other.group is self.group:
            t1, t2 = self.terms, other.terms
            if len(t1) == 1 and len(t2) == 1:
                # one term each: a product of nonzero ints is nonzero
                (m1, c1), = t1.items()
                (m2, c2), = t2.items()
                return CoeffPoly._of(self.group, {mono_mul(m1, m2): c1 * c2})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return CoeffPoly._of(self.group, mul_terms(self.terms, rhs.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError("negative power of a coefficient polynomial")
        return power(self, n) if n else CoeffPoly.one(self.group)

    def __eq__(self, other):
        if other.__class__ is CoeffPoly:
            return (
                (self.group is other.group or self.group == other.group)
                and self.terms == other.terms
            )
        if isinstance(other, int):
            return self.terms == ({(): other} if other else {})
        return False

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def divexact(self, other: "CoeffPoly") -> "CoeffPoly | None":
        """Exact quotient self / other, or None when it does not exist.

        Leading-term division in graded-lex order; sound for exact quotients
        because the coefficient ring is an integral domain.
        """
        rhs = self._coerce(other)
        if rhs is None or rhs.is_zero:
            raise PreconditionError("division by zero coefficient polynomial")
        if self.is_zero:
            return self
        quot = divexact_terms(self.terms, rhs.terms, _int_divexact, 0)
        return None if quot is None else CoeffPoly(self.group, quot)

    def specialize(self, assignment: dict) -> "CoeffPoly":
        """Apply a ring map sending listed Euler symbols to given values.

        Symbols absent from the assignment map to themselves.
        """
        return specializer(self.group, assignment)(self)

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
    """CoeffPoly.specialize as a function on the CoeffPolys of group, with the
    assignment checked once, entry by entry in its order.

    A monomial with a symbol sent to zero contributes nothing. SymPoly and
    ProjClass specialize their coefficients through this function, not
    through CoeffPoly.specialize, so a traced benchmark run (--trace 1)
    does not count that time under CoeffPoly.specialize.
    """
    zero = CoeffPoly.zero(group)
    values: dict[tuple, CoeffPoly] = {}
    for ch, val in assignment.items():
        if not isinstance(ch, Character) or ch.group != group:
            raise MismatchError(f"assignment key {ch!r} is not a character of {group}")
        if ch.is_trivial:
            raise PreconditionError("the trivial character has no Euler symbol")
        v = zero._coerce(val)
        if v is None:
            raise PreconditionError(f"assignment value {val!r} is not a coefficient")
        values[ch.residues] = v

    def apply(x: CoeffPoly) -> CoeffPoly:
        acc: dict = {}
        for m, c in x.terms.items():
            term = {(): c}
            for rs, k in m:
                v = values.get(rs)
                if v is None:
                    p = {((rs, k),): 1}
                elif not v:
                    break
                else:
                    p = (v**k).terms
                term = mul_terms(term, p)
            else:
                for tm, tc in term.items():
                    acc[tm] = acc.get(tm, 0) + tc
        return CoeffPoly(group, acc)

    return apply


def euler_class(rep: Representation) -> CoeffPoly:
    """Euler class of a representation: zero when a trivial summand occurs,
    otherwise the product of the summands' Euler symbols.  The summands are
    sorted by residues, so each exponent is the length of a run of equal
    summands and the runs come in monomial order."""
    if rep.contains_trivial:
        return CoeffPoly._of(rep.group, {})
    runs = []
    prev = None
    for c in rep.summands:
        rs = c.residues
        if rs == prev:
            k += 1
        else:
            if prev is not None:
                runs.append((prev, k))
            prev, k = rs, 1
    if prev is not None:
        runs.append((prev, k))
    return CoeffPoly._of(rep.group, {tuple(runs): 1})
