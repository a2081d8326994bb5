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

from .coeff import CoeffPoly, euler_class, specialized_terms, specializer
from .errors import MismatchError, PreconditionError, SpecParseError
from .groups import AbelianGroup, Character, Representation, euler_unit, parse_character
from .render import join_signed, signed_terms, walk
from .sparse import W


class Flag:
    """Truncated flag of characters; the first one must be trivial.

    The first-occurrence table (character -> 1-based index, in order of
    first occurrence) is built with the flag.  The keys of the stages
    V_0..V_N, which name each stage's multiset, are built together on
    aug's first call (_stage_keys).  _thetas keeps the inverted classes
    that symalg builds over the flag.  _eoff is W * (length + 1), the shift
    of the Euler part of a SymPoly's packed monomial above its beta slots.
    """

    __slots__ = ("group", "chars", "length", "_hash", "_first", "_keys", "_thetas", "_eoff")

    def __init__(self, group: AbelianGroup, chars):
        cs = tuple(chars)
        if not cs:
            raise PreconditionError("a flag needs at least one character")
        for c in cs:
            if not isinstance(c, Character) or c.group != group:
                raise MismatchError(f"flag entry {c!r} does not belong to {group}")
        if not cs[0].is_trivial:
            raise PreconditionError("the first flag character must be trivial")
        self._fill(group, cs)

    @classmethod
    def _of(cls, group: AbelianGroup, chars: tuple) -> "Flag":
        """Wrap a nonempty tuple of group's characters, the first trivial,
        such as one drawn by rank from group; nothing is checked."""
        flag = object.__new__(cls)
        flag._fill(group, chars)
        return flag

    def _fill(self, group: AbelianGroup, cs: tuple):
        self.group = group
        self.chars = cs
        self.length = len(cs)
        self._eoff = W * (len(cs) + 1)
        self._hash = hash((group.cyclic_orders, cs))
        first: dict[Character, int] = {}
        for i, c in enumerate(cs, start=1):
            first.setdefault(c, i)
        self._first = first
        self._keys: tuple | None = None
        self._thetas: dict = {}

    @classmethod
    def cyclic(cls, group: AbelianGroup, length: int) -> "Flag":
        """Default flag: cycle through the characters by rank, unranking at most length."""
        if length < 1:
            raise PreconditionError("flag length must be at least 1")
        ranked = [group.unrank(i) for i in range(min(length, group.order))]
        return cls._of(group, tuple(ranked[i % len(ranked)] for i in range(length)))

    def rep(self, i: int) -> Representation:
        """The i-th stage V_i as a new representation; V_0 is zero."""
        if not 0 <= i <= self.length:
            raise PreconditionError(f"stage index {i} out of range 0..{self.length}")
        return Representation(self.group, self.chars[:i])

    def _stage_keys(self) -> tuple:
        """The keys of the stages V_0..V_N, kept in _keys: a stage's key is
        its number of trivial summands and the packed Euler monomial of the
        others, so two stages share a key exactly when they are one multiset."""
        group = self.group
        trivial = e = 0
        keys = [(0, 0)]
        for c in self.chars:
            if any(rs := c.residues):
                e += euler_unit(group, rs)
            else:
                trivial += 1
            keys.append((trivial, e))
        self._keys = tuple(keys)
        return self._keys

    def first_index(self, alpha: Character) -> int | None:
        """1-based index of the first occurrence of alpha, or None."""
        return self._first.get(alpha)

    def occurrence(self, alpha: Character) -> int:
        """1-based index of the first occurrence of alpha, which must belong
        to the flag's group and occur in the truncation: the one rule for
        where the coaugmentation class of alpha is defined."""
        if alpha.group is not self.group and alpha.group != self.group:
            raise MismatchError("character of a different group")
        j = self._first.get(alpha)
        if j is None:
            raise PreconditionError(f"character {alpha} does not occur in the flag truncation")
        return j

    @property
    def is_complete(self) -> bool:
        """Whether every character of the group occurs in the truncation."""
        return len(self._first) == self.group.order

    def __eq__(self, other):
        return self is other or (
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


# the longest flag a request may build, checked before it is built: the
# default truncation of Z100000000 alone would take gigabytes
MAX_FLAG_LENGTH = 10_000


def parse_flag(group: AbelianGroup, text: str) -> Flag:
    """Parse a comma-joined character list like "(0),(1),(0),(1)"; a list of
    more than MAX_FLAG_LENGTH entries is refused before any entry is
    parsed."""
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
    if len(parts) > MAX_FLAG_LENGTH:
        raise PreconditionError(f"flag length {len(parts)} is over the limit of {MAX_FLAG_LENGTH}")
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

    @classmethod
    def _of(cls, flag: Flag, coeffs: dict) -> "ProjClass":
        """Wrap {basis index: nonzero CoeffPoly} known to be valid for flag;
        nothing is checked or filtered.  The dict becomes the value's own
        and is never changed in place, so coefficients may be shared."""
        x = object.__new__(cls)
        x.flag, x.coeffs = flag, coeffs
        return x

    def __eq__(self, other):
        return (
            isinstance(other, ProjClass)
            and (self.flag is other.flag or self.flag == other.flag)
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def specialize(self, assignment: dict) -> "ProjClass":
        """Apply a coefficient-ring map to every basis coefficient; the
        assignment is checked first, entry by entry, even on zero."""
        group = self.flag.group
        image = specializer(group, assignment)
        # a symbol sent to zero can kill a coefficient
        coeffs = {
            i: CoeffPoly._of(group, t)
            for i, c in self.coeffs.items()
            if (t := specialized_terms(c.packed, image))
        }
        return ProjClass._of(self.flag, coeffs)

    def _walk(self, text: bool = True):
        """The terms in output order (render.walk), each with its index i."""
        split = {i: c.packed for i, c in self.coeffs.items()}
        return walk(split, self.flag.group, lambda i: (i, [f"beta[{i}]"] if text else i), text)

    def __str__(self):
        return join_signed(signed_terms(self._walk()))

    def to_json(self) -> list:
        coeffs: dict = {}
        for c, euler, i in self._walk(False):
            coeffs.setdefault(i, []).append({"coeff": c, "exponents": euler})
        return [{"index": i, "coeff": terms} for i, terms in coeffs.items()]

    def __repr__(self):
        return f"ProjClass({self.flag}, {self})"


def aug(flag: Flag, alpha: Character, i: int) -> CoeffPoly:
    """Augmentation value of alpha against the i-th stage class: the Euler
    class of the alpha^{-1}-twisted stage.  The 0-th value is always one.

    The value depends only on alpha and the stage as a multiset, so the
    group remembers it in one table, group._augs[alpha's residues][stage
    key], which every flag of the group reads.  The walk starts from the
    highest stage below i whose value is remembered, stage 0 holding one,
    and goes up one stage at a time: as Euler classes are multiplicative,
    each value is the one before times the Euler class of the summand
    added there, twisted by alpha^{-1}.  So a walk up the stages in order
    costs one summand per stage."""
    if alpha.group is not flag.group and alpha.group != flag.group:
        raise MismatchError("character of a different group")
    if not 0 <= i <= flag.length:
        raise PreconditionError(f"stage index {i} out of range 0..{flag.length}")
    group = flag.group
    if not i:
        return CoeffPoly.one(group)
    keys = flag._keys or flag._stage_keys()
    known = group._augs.get(alpha.residues)
    if known is None:
        known = group._augs[alpha.residues] = {}
    value = known.get(keys[i])
    if value is None:
        j = i - 1
        while j and (value := known.get(keys[j])) is None:
            j -= 1
        if not j:
            value = CoeffPoly.one(group)
        inv = alpha.inverse()
        for j in range(j + 1, i + 1):
            added = Representation(group, (flag.chars[j - 1],))
            value = known[keys[j]] = value * euler_class(added.tensor(inv))
    return value


def coaug(flag: Flag, alpha: Character) -> ProjClass:
    """Coaugmentation class of alpha: beta_0 plus the twisted-stage Euler
    classes on beta_1, beta_2, ..., cut off at the first occurrence of alpha.

    Defined only when alpha occurs in the truncated flag, which is exactly
    when the expansion is finite.  The twists are residue sums, read from
    the group's table of them and computed on a miss, never through the
    character products that the augmentation route uses.

    The coefficient on beta_i is the Euler monomial of the first i twists,
    read from the group's table of Euler monomials: each node of it is the
    monomial's one-term CoeffPoly and the nodes one twist further on, by
    residue sum.  Nodes are keyed by monomial, so two orders of the same
    twists share one node.  The coefficients are shared between classes,
    which is safe as no CoeffPoly's terms are ever changed in place.
    """
    j = flag.occurrence(alpha)
    group = flag.group
    inv = alpha.inverse().residues
    sums = group._residue_sums.setdefault(inv, {})
    nodes = group._euler_nodes
    node = nodes.get(0)
    if node is None:
        node = nodes[0] = (CoeffPoly._of(group, {0: 1}), {})
    coeffs: dict[int, CoeffPoly] = {0: node[0]}
    chars = flag.chars
    for i in range(1, j):
        chi = chars[i - 1].residues
        rs = sums.get(chi)
        if rs is None:
            rs = sums[chi] = tuple((a + b) % n for a, b, n in zip(inv, chi, group.cyclic_orders))
        nxt = node[1].get(rs)
        if nxt is None:
            (m,) = node[0].packed
            m += euler_unit(group, rs)
            nxt = nodes.get(m)
            if nxt is None:
                nxt = nodes[m] = (CoeffPoly._of(group, {m: 1}), {})
            node[1][rs] = nxt
        node = nxt
        coeffs[i] = node[0]
    return ProjClass._of(flag, coeffs)  # no coefficient is zero


def coaug_via_duality(flag: Flag, alpha: Character, augmentation=aug) -> ProjClass:
    """Assemble the coaugmentation class from augmentation values alone,
    coefficient by coefficient through the duality pairing; the zero values,
    those from the first occurrence of alpha on, are left out as they come.

    Independent route from coaug; augmentation is injectable so the two
    routes can be driven apart deliberately in sensitivity checks.
    """
    flag.occurrence(alpha)
    coeffs = {i: c for i in range(flag.length + 1) if (c := augmentation(flag, alpha, i)).packed}
    return ProjClass._of(flag, coeffs)
