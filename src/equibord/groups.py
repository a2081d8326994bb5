"""Finite abelian groups, their characters, and the parsers for both.

The ambient group is a finite product of cyclic groups, recorded by the
tuple of their orders.  A character is a residue vector, one entry per
cyclic factor, multiplied by componentwise addition; characters double as
the irreducible representations.  A Representation is a finite multiset of
characters: the engine meets one only as a flag stage or its twist, whose
Euler class it takes.  The module also reads the "key = value" files of
the --specialize and --config options.
"""

from __future__ import annotations

import itertools
from math import prod

from .errors import MismatchError, PreconditionError, SpecParseError


def format_residues(residues) -> str:
    return "(" + ",".join(str(r) for r in residues) + ")"


class AbelianGroup:
    """Product of cyclic groups Z/n1 x ... x Z/nk; the empty product is trivial.

    Groups compare by their order tuples, so isomorphic presentations such
    as Z6 and Z2xZ3 are distinct ambient contexts on purpose.
    """

    __slots__ = ("cyclic_orders", "identity")

    def __init__(self, cyclic_orders=()):
        orders = tuple(int(n) for n in cyclic_orders)
        if any(n < 1 for n in orders):
            raise SpecParseError(f"cyclic orders must be positive, got {orders!r}")
        self.cyclic_orders = orders
        self.identity = Character(self, (0,) * len(orders))

    @property
    def order(self) -> int:
        return prod(self.cyclic_orders)

    def character(self, residues) -> "Character":
        """Build a character, reducing each residue mod its cyclic order."""
        rs = tuple(residues)
        if len(rs) != len(self.cyclic_orders):
            raise PreconditionError(
                f"expected {len(self.cyclic_orders)} residues, got {len(rs)}"
            )
        return Character._of(self, tuple(int(r) % n for r, n in zip(rs, self.cyclic_orders)))

    def characters(self) -> list["Character"]:
        """All characters in lexicographic order; the trivial one comes first."""
        return [
            Character._of(self, rs)
            for rs in itertools.product(*(range(n) for n in self.cyclic_orders))
        ]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, AbelianGroup) and self.cyclic_orders == other.cyclic_orders
        )

    def __hash__(self):
        return hash(self.cyclic_orders)

    def __str__(self):
        if not self.cyclic_orders:
            return "1"
        return "x".join(f"Z{n}" for n in self.cyclic_orders)

    def __repr__(self):
        return f"AbelianGroup({self.cyclic_orders!r})"


class Character:
    """One character, stored as its canonical residue vector."""

    __slots__ = ("group", "residues", "_hash")

    def __init__(self, group: AbelianGroup, residues):
        rs = tuple(residues)
        if len(rs) != len(group.cyclic_orders) or any(
            not 0 <= r < n for r, n in zip(rs, group.cyclic_orders)
        ):
            raise PreconditionError(
                f"residues {rs!r} out of range for orders {group.cyclic_orders!r}"
            )
        self.group = group
        self.residues = rs
        self._hash = hash((group.cyclic_orders, rs))

    @classmethod
    def _of(cls, group: AbelianGroup, residues: tuple) -> "Character":
        """Wrap a residue tuple that is already reduced mod the group's orders."""
        ch = object.__new__(cls)
        ch.group, ch.residues, ch._hash = group, residues, hash((group.cyclic_orders, residues))
        return ch

    @property
    def is_trivial(self) -> bool:
        return not any(self.residues)

    def __mul__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        group = self.group
        if other.group != group:
            raise MismatchError("characters of different groups")
        rs = tuple(
            (a + b) % n for a, b, n in zip(self.residues, other.residues, group.cyclic_orders)
        )
        return Character._of(group, rs)

    def inverse(self) -> "Character":
        rs = tuple((-r) % n for r, n in zip(self.residues, self.group.cyclic_orders))
        return Character._of(self.group, rs)

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group.cyclic_orders == other.group.cyclic_orders
            and self.residues == other.residues
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Character) or self.group != other.group:
            raise MismatchError("cannot order characters of different groups")
        return self.residues < other.residues

    def __str__(self):
        return format_residues(self.residues)

    def __repr__(self):
        return f"Character({self.group}, {self.residues!r})"


class Representation:
    """Finite multiset of characters; the empty multiset is the zero representation.

    The summands are not checked: the callers, Flag.rep and tensor, pass
    characters already known to belong to group.
    """

    __slots__ = ("group", "summands")

    def __init__(self, group: AbelianGroup, chars):
        self.group = group
        self.summands = tuple(sorted(chars, key=lambda c: c.residues))

    @property
    def contains_trivial(self) -> bool:
        return any(c.is_trivial for c in self.summands)

    def tensor(self, alpha: Character) -> "Representation":
        """Twist every summand by the character alpha."""
        return Representation(self.group, [alpha * c for c in self.summands])

    def __repr__(self):
        return f"Representation({self.group}, {self.summands!r})"


def parse_group(text: str) -> AbelianGroup:
    """Parse "1" or "Zn1xZn2x..." into a group."""
    s = text.strip()
    if s == "1":
        return AbelianGroup(())
    orders = []
    for part in s.split("x"):
        part = part.strip()
        if not part.startswith("Z") or not part[1:].isdecimal():
            raise SpecParseError(f"bad cyclic factor {part!r} in group {text!r}")
        n = int(part[1:])
        if n < 1:
            raise SpecParseError(f"bad cyclic factor {part!r} in group {text!r}")
        orders.append(n)
    return AbelianGroup(orders)


def parse_character(group: AbelianGroup, text: str) -> Character:
    """Parse "(r1,r2,...)" into a character of the given group."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise SpecParseError(f"character {text!r} must be parenthesized")
    inner = s[1:-1].strip()
    if inner:
        parts = [p.strip() for p in inner.split(",")]
    else:
        parts = []
    if len(parts) != len(group.cyclic_orders):
        raise SpecParseError(
            f"character {text!r} has {len(parts)} residues, group {group} needs "
            f"{len(group.cyclic_orders)}"
        )
    residues = []
    for p, n in zip(parts, group.cyclic_orders):
        if not p.removeprefix("-").isdecimal():
            raise SpecParseError(f"bad residue {p!r} in character {text!r}")
        r = int(p)
        if not 0 <= r < n:
            raise SpecParseError(f"residue {p!r} out of range [0,{n}) in character {text!r}")
        residues.append(r)
    return Character(group, tuple(residues))


def spec_lines(path: str, what: str, form: str):
    """Yield ("path:lineno", key, value) for each line of a "key = value"
    file; '#' starts a comment and blank lines are skipped.  what names the
    file in the read error and form is the line shape a line without '='
    is told to take."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecParseError(f"cannot read {what} file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecParseError(f"{path}:{lineno}: expected '{form}'")
        yield f"{path}:{lineno}", key.strip(), value.strip()
