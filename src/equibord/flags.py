"""Truncated character flags, the free module on their projective basis,
augmentations, and coaugmentation classes.

A flag of length N lists characters gamma_1..gamma_N with gamma_1 trivial;
its stages are the partial sums V_i = gamma_1 + ... + gamma_i.  The module
R_E carried by the flag has basis beta_0..beta_N over the coefficient ring,
with beta_i in degree 2i.  The augmentation of a character alpha pairs to
e(alpha^{-1} (x) V_i) against the i-th stage class, and the coaugmentation
class of alpha is the dual expansion over the basis, which truncates at the
first occurrence of alpha in the flag.
"""

from __future__ import annotations

from .coeff import CoeffPoly, euler_class, specializer
from .errors import MismatchError, PreconditionError, SpecParseError
from .groups import AbelianGroup, Character, Representation, parse_character
from .sparse import mono


class Flag:
    """Truncated flag of characters; the first one must be trivial."""

    __slots__ = ("group", "chars", "_hash")

    def __init__(self, group: AbelianGroup, chars):
        cs = tuple(chars)
        if not cs:
            raise PreconditionError("a flag needs at least one character")
        for c in cs:
            if not isinstance(c, Character) or c.group != group:
                raise MismatchError(f"flag entry {c!r} does not belong to {group}")
        if not cs[0].is_trivial:
            raise PreconditionError("the first flag character must be trivial")
        self.group = group
        self.chars = cs
        self._hash = hash((group.cyclic_orders, tuple(c.residues for c in cs)))

    @classmethod
    def cyclic(cls, group: AbelianGroup, length: int) -> "Flag":
        """Default flag: cycle through all characters in lexicographic order."""
        if length < 1:
            raise PreconditionError("flag length must be at least 1")
        allc = group.characters()
        return cls(group, tuple(allc[i % len(allc)] for i in range(length)))

    @property
    def length(self) -> int:
        return len(self.chars)

    def rep(self, i: int) -> Representation:
        """The i-th stage V_i as a representation; V_0 is zero."""
        if not 0 <= i <= self.length:
            raise PreconditionError(f"stage index {i} out of range 0..{self.length}")
        return Representation(self.group, self.chars[:i])

    def first_index(self, alpha: Character) -> int | None:
        """1-based index of the first occurrence of alpha, or None."""
        for i, c in enumerate(self.chars, start=1):
            if c == alpha:
                return i
        return None

    def occurrence(self, alpha: Character) -> int:
        """1-based index of the first occurrence of alpha, which must belong
        to the flag's group and occur in the truncation: the one rule for
        where the coaugmentation class of alpha is defined."""
        if alpha.group != self.group:
            raise MismatchError("character of a different group")
        j = self.first_index(alpha)
        if j is None:
            raise PreconditionError(f"character {alpha} does not occur in the flag truncation")
        return j

    @property
    def is_complete(self) -> bool:
        """Whether every character of the group occurs in the truncation."""
        return len({c.residues for c in self.chars}) == self.group.order

    def __eq__(self, other):
        return (
            isinstance(other, Flag)
            and self.group == other.group
            and self.chars == other.chars
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        return ",".join(str(c) for c in self.chars)

    def __repr__(self):
        return f"Flag({self.group}, {self})"


def parse_flag(group: AbelianGroup, text: str) -> Flag:
    """Parse a comma-joined character list like "(0),(1),(0),(1)"."""
    s = text.strip()
    if not s:
        raise SpecParseError("empty flag")
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecParseError(f"unbalanced parentheses in flag {text!r}")
        elif ch == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    if depth:
        raise SpecParseError(f"unbalanced parentheses in flag {text!r}")
    parts.append(s[start:])
    return Flag(group, tuple(parse_character(group, p) for p in parts))


class ProjClass:
    """Element of the free module on beta_0..beta_N with CoeffPoly coefficients."""

    __slots__ = ("flag", "coeffs")

    def __init__(self, flag: Flag, coeffs: dict | None = None):
        self.flag = flag
        clean: dict[int, CoeffPoly] = {}
        for i, c in (coeffs or {}).items():
            if not 0 <= i <= flag.length:
                raise PreconditionError(
                    f"basis index {i} out of range 0..{flag.length}"
                )
            if not isinstance(c, CoeffPoly):
                c = CoeffPoly.const(flag.group, c)
            if c.group != flag.group:
                raise MismatchError("coefficient over a different group")
            if not c.is_zero:
                clean[i] = c
        self.coeffs = clean

    def __eq__(self, other):
        return (
            isinstance(other, ProjClass)
            and self.flag == other.flag
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def specialize(self, assignment: dict) -> "ProjClass":
        """Apply a coefficient-ring map to every basis coefficient; the
        assignment is checked first, entry by entry, even on zero."""
        spec = specializer(self.flag.group, assignment)
        return ProjClass(self.flag, {i: spec(c) for i, c in self.coeffs.items()})

    def __str__(self):
        from .render import join_signed, signed_product

        parts = []
        for i in sorted(self.coeffs):
            for c, esyms in self.coeffs[i].flat_terms():
                parts.append(signed_product(c, esyms + [f"beta[{i}]"]))
        return join_signed(parts)

    def to_json(self) -> list:
        return [
            {"index": i, "coeff": self.coeffs[i].to_json()} for i in sorted(self.coeffs)
        ]

    def __repr__(self):
        return f"ProjClass({self.flag}, {self})"


def aug(flag: Flag, alpha: Character, i: int) -> CoeffPoly:
    """Augmentation value of alpha against the i-th stage class: the Euler
    class of the alpha^{-1}-twisted stage.  The 0-th value is always one."""
    if alpha.group != flag.group:
        raise MismatchError("character of a different group")
    if i == 0:
        return CoeffPoly.one(flag.group)
    return euler_class(flag.rep(i).tensor(alpha.inverse()))


def coaug(flag: Flag, alpha: Character) -> ProjClass:
    """Coaugmentation class of alpha: beta_0 plus the twisted-stage Euler
    classes on beta_1, beta_2, ..., cut off at the first occurrence of alpha.

    Defined only when alpha occurs in the truncated flag, which is exactly
    when the expansion is finite.
    """
    j = flag.occurrence(alpha)
    group = flag.group
    inv = alpha.inverse().residues
    orders = group.cyclic_orders
    coeffs: dict[int, CoeffPoly] = {0: CoeffPoly.one(group)}
    running: dict[tuple, int] = {}
    for i in range(1, j):
        rs = tuple((a + b) % n for a, b, n in zip(inv, flag.chars[i - 1].residues, orders))
        running[rs] = running.get(rs, 0) + 1
        coeffs[i] = CoeffPoly(group, {mono(running): 1})
    return ProjClass(flag, coeffs)


def coaug_via_duality(flag: Flag, alpha: Character, augmentation=aug) -> ProjClass:
    """Assemble the coaugmentation class from augmentation values alone,
    coefficient by coefficient through the duality pairing.

    Independent route from coaug; augmentation is injectable so the two
    routes can be driven apart deliberately in sensitivity checks.
    """
    flag.occurrence(alpha)
    coeffs = {i: augmentation(flag, alpha, i) for i in range(flag.length + 1)}
    return ProjClass(flag, coeffs)
