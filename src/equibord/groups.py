"""Finite abelian groups, their characters, and the parsers for both.

The ambient group is a finite product of cyclic groups, recorded by the
tuple of their orders.  A character is a residue vector, one entry per
cyclic factor, multiplied by componentwise addition; characters double as
the irreducible representations.  A Representation is a finite multiset of
characters, whose Euler class the engine takes.  The module also reads the
"key = value" files of the --specialize and --config options.
"""

from __future__ import annotations

from math import prod
from operator import attrgetter

from .errors import MismatchError, PreconditionError, SpecParseError
from .sparse import MAX_INT_DIGITS, W, fields


def format_residues(residues) -> str:
    return "(" + ",".join(str(r) for r in residues) + ")"


# the Euler slot tables (units by residues, residues by slot) of every group
# built so far, by its cyclic orders, filled as symbols are first used
_euler_slots: dict[tuple, tuple[dict, list]] = {}


class AbelianGroup:
    """Product of cyclic groups Z/n1 x ... x Z/nk; the empty product is trivial.

    Groups compare by their order tuples, so isomorphic presentations such
    as Z6 and Z2xZ3 are distinct ambient contexts on purpose.
    """

    # _interned maps a residue tuple to the group's one Character for it; it
    # fills on first use, so even a huge group costs nothing per character
    # until its characters are asked for, by rank or all together.
    # _characters is the tuple of all of them, by rank, unranked on the
    # first call to characters().
    # _residue_sums[a][b] is the residue sum a + b, filled on demand by coaug.
    # _euler_nodes maps a packed Euler monomial to coaug's node for it: the
    # monomial's one-term CoeffPoly and {residue sum: next node}.
    # _euler_units maps the residues of a nontrivial character to the packed
    # monomial of its Euler symbol, 1 << W*slot, and _euler_symbols lists
    # the residues by slot: euler_unit gives a symbol the next slot the
    # first time it is used.  Equal groups share the two (_euler_slots), so
    # values over two parses of one group have the same packed terms.
    # _augs[alpha's residues][stage key] is aug's value of alpha at a flag
    # stage, keyed by Flag._stage_keys, filled as aug computes it.
    __slots__ = ("cyclic_orders", "identity", "_interned", "_characters", "_residue_sums",
                 "_euler_nodes", "_euler_units", "_euler_symbols", "_augs")

    def __init__(self, cyclic_orders=()):
        orders = tuple(int(n) for n in cyclic_orders)
        if any(n < 1 for n in orders):
            raise SpecParseError(f"cyclic orders must be positive, got {orders!r}")
        self.cyclic_orders = orders
        self._interned: dict[tuple, Character] = {}
        self._characters: tuple | None = None
        self._residue_sums: dict[tuple, dict] = {}
        self._euler_nodes: dict[int, tuple] = {}
        slots = _euler_slots.get(orders)
        if slots is None:
            slots = _euler_slots[orders] = ({}, [])
        self._euler_units, self._euler_symbols = slots
        self._augs: dict[tuple, dict] = {}
        self.identity = Character._of(self, (0,) * len(orders))

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

    def unrank(self, i: int) -> "Character":
        """The character of rank i mod the order: i in the mixed radix of the
        cyclic orders, the last fastest.  Rank is the one order of the
        characters, ascending by residues; the trivial one has rank 0."""
        rs = []
        for n in reversed(self.cyclic_orders):
            i, r = divmod(i, n)
            rs.append(r)
        return Character._of(self, tuple(reversed(rs)))

    def characters(self) -> list["Character"]:
        """All characters by rank, as a new list; the trivial one comes first."""
        if self._characters is None:
            self._characters = tuple(map(self.unrank, range(self.order)))
        return list(self._characters)

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
    """One character, stored as its canonical residue vector.

    Character(group, residues) validates and builds a new object; the
    engine's own characters come from _of, which returns the group's one
    interned object per residue tuple.  Every character remembers its
    inverse and its products once computed, so repeated arithmetic is a
    lookup.  Equality and hashing go by the group's orders and the
    residues, never by identity.
    """

    __slots__ = ("group", "residues", "_hash", "_inverse", "_products")

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
        self._inverse = None
        self._products: dict[tuple, Character] = {}

    @classmethod
    def _of(cls, group: AbelianGroup, residues: tuple) -> "Character":
        """The group's interned character for a residue tuple that is
        already reduced mod the group's orders."""
        ch = group._interned.get(residues)
        if ch is None:
            ch = object.__new__(cls)
            ch.group, ch.residues = group, residues
            ch._hash = hash((group.cyclic_orders, residues))
            ch._inverse, ch._products = None, {}
            group._interned[residues] = ch
        return ch

    @property
    def is_trivial(self) -> bool:
        return not any(self.residues)

    def __mul__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        group = self.group
        if other.group is not group and other.group != group:
            raise MismatchError("characters of different groups")
        # keyed by residues: other's group equals this one, checked above
        ch = self._products.get(other.residues)
        if ch is None:
            rs = tuple(
                (a + b) % n for a, b, n in zip(self.residues, other.residues, group.cyclic_orders)
            )
            ch = self._products[other.residues] = Character._of(group, rs)
        return ch

    def inverse(self) -> "Character":
        if self._inverse is None:
            rs = tuple((-r) % n for r, n in zip(self.residues, self.group.cyclic_orders))
            self._inverse = Character._of(self.group, rs)
        return self._inverse

    def __eq__(self, other):
        return self is other or (
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


_by_residues = attrgetter("residues")


def euler_unit(group: AbelianGroup, residues: tuple) -> int:
    """The packed monomial of the Euler symbol of the nontrivial character
    of group with these residues: 1 in the symbol's slot, which is the
    next free one of the table that equal groups share when the symbol is
    first used."""
    u = group._euler_units.get(residues)
    if u is None:
        symbols = group._euler_symbols
        u = group._euler_units[residues] = 1 << (W * len(symbols))
        symbols.append(residues)
    return u


def unpack_euler(group: AbelianGroup, e: int) -> tuple:
    """The packed Euler monomial e of group as ((residues, exponent), ...),
    sorted by residues."""
    symbols = group._euler_symbols
    return tuple(sorted((symbols[s], k) for s, k in fields(e)))


class Representation:
    """Finite multiset of characters; the empty multiset is the zero representation.

    The summands are kept sorted by residues, so equal characters are
    adjacent and the trivial one, all of whose residues are zero, comes
    first.  They are not checked: the callers, Flag.rep, aug and tensor,
    pass characters already known to belong to group.
    """

    __slots__ = ("group", "summands")

    def __init__(self, group: AbelianGroup, chars):
        self.group = group
        self.summands = tuple(sorted(chars, key=_by_residues))

    @property
    def contains_trivial(self) -> bool:
        return bool(self.summands) and not any(self.summands[0].residues)

    def tensor(self, alpha: Character) -> "Representation":
        """Twist every summand by the character alpha, reading the products
        alpha remembers, which are keyed by residues, after one group check."""
        if alpha.group is not self.group and alpha.group != self.group:
            raise MismatchError("characters of different groups")
        known = alpha._products
        twisted = [known.get(c.residues) or alpha * c for c in self.summands]
        return Representation(self.group, twisted)

    def __repr__(self):
        return f"Representation({self.group}, {self.summands!r})"


def parse_int(digits: str, where: str) -> int:
    """int(digits) for decimal input text, refused over MAX_INT_DIGITS digits."""
    if (k := len(digits.removeprefix("-"))) > MAX_INT_DIGITS:
        raise SpecParseError(
            f"an integer in {where} has {k} digits, over the limit of {MAX_INT_DIGITS}"
        )
    return int(digits)


def parse_group(text: str) -> AbelianGroup:
    """Parse "1" or "Zn1xZn2x..." into a group."""
    s = text.strip()
    if s == "1":
        return AbelianGroup(())
    orders = []
    for part in s.split("x"):
        part = part.strip()
        n = parse_int(part[1:], "the group") if part[:1] == "Z" and part[1:].isdecimal() else 0
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
        r = parse_int(p, "a character")
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
