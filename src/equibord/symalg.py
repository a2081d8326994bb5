"""Shifted symmetric algebras on the flag basis, their localizations at
coaugmentation classes, and the coordinatized degree-zero presentations.

SymPoly realizes the symmetric algebra on the flag module shifted by d:
polynomials in beta_0..beta_N over the coefficient ring, carrying two
gradings.  The variable beta_i has internal homological degree 2i - d
(the [n]-shift convention moves degree deg to deg + n), and the dimension
degree of a monomial is its total exponent; both degrees are additive
under multiplication.

LocFraction inverts coaugmentation classes: all of them in MUP mode, only
the trivial one in mUP mode.  Equality is cross-multiplication equality,
sound because the ambient ring is an integral domain.

BExpr is the same data written in the degree-zero generators b_i (shift
-2 family) or c_i (shift +2 family), with b_0 = 1 and each inverted class
expanding as 1 + sum_{i>=1} aug(alpha, i) * b_i.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import CoeffPoly, specializer
from .errors import MismatchError, PreconditionError
from .flags import Flag, coaug
from .groups import Character, format_residues
from .render import flat_terms, format_power, join_signed, shown, signed_product
from .sparse import (
    RingOps, add_terms, divexact_terms, grlex_key, mono, mono_degree, mono_div, mono_mul, mul_terms,
    power, sorted_terms,
)

SHIFTS = (-2, 0, 2)
MODES = ("MUP", "mUP")

BetaMono = tuple  # a sparse-kernel monomial in beta (or generator) indices


def _beta_key(flag: Flag):
    """Graded-lex key on monomials in beta_0..beta_N."""
    return grlex_key(range(flag.length + 1))


def _term_parts(num: "SymPoly", name: str) -> list:
    """The terms of num as signed products, its variables written name[i]."""
    return [
        signed_product(c, syms)
        for c, syms in flat_terms(num.terms, _beta_key(num.flag), name, str, CoeffPoly.flat_terms)
    ]


def _terms_json(num: "SymPoly", name: str) -> list:
    """The terms of num as JSON objects, its variable exponents under name."""
    out = []
    for m, c in sorted_terms(num.terms, _beta_key(num.flag)):
        for cm, ci in c.sorted_terms():
            out.append(
                {
                    "coeff": ci,
                    "euler": {format_residues(rs): k for rs, k in cm},
                    name: {str(i): k for i, k in m},
                }
            )
    return out


class SymPoly(RingOps):
    """Element of the shifted symmetric algebra over one flag."""

    __slots__ = ("flag", "shift", "terms")

    def __init__(self, flag: Flag, shift: int, terms: dict | None = None):
        if shift not in SHIFTS:
            raise PreconditionError(f"shift must be one of {SHIFTS}, got {shift}")
        clean: dict[BetaMono, CoeffPoly] = {}
        for m, c in (terms or {}).items():
            for i, k in m:
                if not 0 <= i <= flag.length:
                    raise PreconditionError(
                        f"beta index {i} out of range 0..{flag.length}"
                    )
                if k < 1:
                    raise PreconditionError(f"nonpositive exponent on beta[{i}]")
            if not isinstance(c, CoeffPoly):
                c = CoeffPoly.const(flag.group, c)
            elif c.group != flag.group:
                raise MismatchError("coefficient over a different group")
            if not c.is_zero:
                clean[m] = c
        self.flag = flag
        self.shift = shift
        self.terms = clean

    @classmethod
    def zero(cls, flag: Flag, shift: int) -> "SymPoly":
        return cls(flag, shift, {})

    @classmethod
    def const(cls, flag: Flag, shift: int, c) -> "SymPoly":
        return cls(flag, shift, {(): c})

    @classmethod
    def one(cls, flag: Flag, shift: int) -> "SymPoly":
        return cls.const(flag, shift, 1)

    @classmethod
    def var(cls, flag: Flag, shift: int, i: int) -> "SymPoly":
        return cls(flag, shift, {((i, 1),): CoeffPoly.one(flag.group)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other) -> "SymPoly | None":
        if isinstance(other, SymPoly):
            if other.flag != self.flag:
                raise MismatchError("operands over different flags")
            if other.shift != self.shift:
                raise MismatchError("operands over different shifts")
            return other
        if isinstance(other, (int, CoeffPoly)):
            return SymPoly.const(self.flag, self.shift, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc = add_terms(self.terms, rhs.terms, CoeffPoly.zero(self.flag.group))
        return SymPoly(self.flag, self.shift, acc)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly(self.flag, self.shift, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc = mul_terms(self.terms, rhs.terms, CoeffPoly.zero(self.flag.group))
        return SymPoly(self.flag, self.shift, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError("negative power of a polynomial")
        return power(self, n, SymPoly.one(self.flag, self.shift))

    def __eq__(self, other):
        if isinstance(other, (int, CoeffPoly)):
            other = SymPoly.const(self.flag, self.shift, other)
        return (
            isinstance(other, SymPoly)
            and self.flag == other.flag
            and self.shift == other.shift
            and self.terms == other.terms
        )

    __hash__ = None

    def dimension_degree(self) -> int | None:
        """Total beta-exponent; None for zero, error when mixed."""
        if not self.terms:
            return None
        dims = {mono_degree(m) for m in self.terms}
        if len(dims) > 1:
            raise PreconditionError("mixed dimension degrees")
        return dims.pop()

    def internal_degree(self) -> int | None:
        """Homological degree with beta_i in degree 2i - d; None for zero."""
        if not self.terms:
            return None
        degs = set()
        for m, c in self.terms.items():
            base = sum(k * (2 * i - self.shift) for i, k in m)
            for cm in c.terms:
                degs.add(base - 2 * mono_degree(cm))
        if len(degs) > 1:
            raise PreconditionError("mixed internal degrees")
        return degs.pop()

    def divexact(self, other: "SymPoly") -> "SymPoly | None":
        """Exact quotient self / other, or None when it does not exist."""
        rhs = self._coerce(other)
        if rhs is None or rhs.is_zero:
            raise PreconditionError("division by zero polynomial")
        if self.is_zero:
            return self
        quot = divexact_terms(
            self.terms, rhs.terms, _beta_key(self.flag), CoeffPoly.divexact,
            CoeffPoly.zero(self.flag.group),
        )
        return None if quot is None else SymPoly(self.flag, self.shift, quot)

    def specialize(self, assignment: dict) -> "SymPoly":
        """Apply a coefficient-ring map to every term's coefficient; the
        assignment is checked first, entry by entry, even on zero."""
        spec = specializer(self.flag.group, assignment)
        return SymPoly(self.flag, self.shift, {m: spec(c) for m, c in self.terms.items()})

    def __str__(self):
        return join_signed(_term_parts(self, "beta"))

    def to_json(self) -> list:
        return _terms_json(self, "beta")

    def __repr__(self):
        return f"SymPoly({self.flag}, d={self.shift}, {self})"


@lru_cache(maxsize=None)
def theta_sym(flag: Flag, shift: int, alpha: Character) -> SymPoly:
    """The coaugmentation class of alpha embedded as a dimension-degree-1
    element: the basis vector beta_i becomes the variable beta_i."""
    return SymPoly(flag, shift, {((i, 1),): c for i, c in coaug(flag, alpha).coeffs.items()})


def theta_mul(flag: Flag, alpha: Character, x):
    """Multiply by the embedded coaugmentation class of alpha.

    Raises the dimension degree by 1 and the internal degree by -d.
    Accepts a SymPoly or a LocFraction.
    """
    if isinstance(x, LocFraction):
        return LocFraction(theta_mul(flag, alpha, x.num), x.denom, x.mode)
    if not isinstance(x, SymPoly) or x.flag != flag:
        raise MismatchError("operand does not live over the given flag")
    return theta_sym(flag, x.shift, alpha) * x


def retract(x: SymPoly, n: int | None = None, alpha: Character | None = None) -> SymPoly:
    """Linear retraction splitting multiplication by the trivial class:
    drop one beta_0 factor per monomial, kill monomials without beta_0.

    The input must be dimension-homogeneous (of dimension n+1 when a target
    dimension n is supplied).  The retraction exists along the trivial
    character only; a request for nontrivial alpha is reported, never
    reinterpreted.
    """
    if alpha is not None and not alpha.is_trivial:
        raise PreconditionError(
            "the retraction is defined along the trivial character only"
        )
    dim = x.dimension_degree()  # raises when mixed
    if n is not None and dim is not None and dim != n + 1:
        raise PreconditionError(f"expected dimension degree {n + 1}, got {dim}")
    acc = {}
    for m, c in x.terms.items():
        q = mono_div(m, ((0, 1),))
        if q is not None:
            acc[q] = c
    return SymPoly(x.flag, x.shift, acc)


class _Quotient(RingOps):
    """Arithmetic and rendering shared by LocFraction and BExpr: a SymPoly
    numerator `num` over a product of inverted classes, stored as
    `denom` = {Character: positive exponent}.

    A subclass provides _ctx (raise unless an operand shares the context),
    _coerce (an operand as the subclass, or None), _like (a quotient in the
    same context), _theta (the inverted class of a character in the
    numerator ring), _admit (whether a denominator character is stored, or
    raise when it may not be inverted), and the names its text uses: _name
    for the numerator variables, _theta_name for the inverted classes, and
    _noun in errors.
    """

    __slots__ = ()

    @property
    def flag(self) -> Flag:
        return self.num.flag

    @property
    def shift(self) -> int:
        return self.num.shift

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _valid_denom(self, denom: dict | None) -> dict:
        """The {Character: exponent} map denom, checked against num's flag,
        with zero exponents and the classes _admit declines dropped."""
        flag = self.flag
        clean: dict[Character, int] = {}
        for al, k in (denom or {}).items():
            if not isinstance(al, Character) or al.group != flag.group:
                raise MismatchError("denominator character over a different group")
            k = int(k)
            if k < 0:
                raise PreconditionError("negative denominator exponent")
            if not k or not self._admit(al):
                continue
            flag.occurrence(al)
            clean[al] = k
        return clean

    def _times(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        denom = dict(self.denom)
        for al, k in rhs.denom.items():
            denom[al] = denom.get(al, 0) + k
        return self._like(self.num * rhs.num, denom)

    def _plus(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, common = lift_to_common(self, rhs)
        return self._like(a + b, common)

    def __neg__(self):
        return self._like(-self.num, self.denom)

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError(f"negative power of a {self._noun}")
        denom = {al: k * n for al, k in self.denom.items()} if n else {}
        return self._like(self.num**n, denom)

    def specialize(self, assignment: dict):
        """Specialize the numerator's coefficients; the denominator stays symbolic."""
        return self._like(self.num.specialize(assignment), self.denom)

    def denominator_string(self) -> str:
        dens = [
            format_power(f"{self._theta_name}[{al}]", self.denom[al])
            for al in sorted(self.denom, key=lambda a: a.residues)
        ]
        if not dens:
            return ""
        body = " * ".join(dens)
        return f"({body})" if len(dens) > 1 else body

    def _text(self) -> str:
        parts = _term_parts(self.num, self._name)
        num = join_signed(parts)
        den = self.denominator_string()
        if not den or not parts:
            return num
        if len(parts) > 1:
            num = f"({num})"
        return f"{num} / {den}"

    def _denominator_json(self) -> list:
        return [
            {"alpha": str(al), "power": self.denom[al]}
            for al in sorted(self.denom, key=lambda a: a.residues)
        ]


def lift_to_common(a, b) -> tuple:
    """(numerator of a, numerator of b, denominator) over the common
    denominator of two LocFractions or two BExprs of one context.

    Each numerator is multiplied by the inverted classes that its own
    denominator lacks.
    """
    common = {}
    lift_a = lift_b = None
    for al in set(a.denom) | set(b.denom):
        ka, kb = a.denom.get(al, 0), b.denom.get(al, 0)
        common[al] = max(ka, kb)
        if ka < kb:
            t = a._theta(al) ** (kb - ka)
            lift_a = t if lift_a is None else lift_a * t
        elif kb < ka:
            t = a._theta(al) ** (ka - kb)
            lift_b = t if lift_b is None else lift_b * t
    num_a = a.num if lift_a is None else a.num * lift_a
    num_b = b.num if lift_b is None else b.num * lift_b
    return num_a, num_b, common


class LocFraction(_Quotient):
    """num / prod theta_alpha^{f_alpha} in the localized symmetric algebra.

    MUP mode may invert any coaugmentation class whose character occurs in
    the flag truncation; mUP mode only the trivial one.
    """

    __slots__ = ("num", "denom", "mode")

    _noun = "fraction"
    _name = "beta"
    _theta_name = "theta"

    def __init__(self, num: SymPoly, denom: dict | None = None, mode: str = "MUP"):
        if mode not in MODES:
            raise PreconditionError(f"mode must be one of {MODES}, got {mode!r}")
        self.num = num
        self.mode = mode
        self.denom = self._valid_denom(denom)

    def _admit(self, alpha: Character) -> bool:
        if self.mode == "mUP" and not alpha.is_trivial:
            raise PreconditionError(
                "mUP mode only inverts the trivial coaugmentation class"
            )
        return True

    def _ctx(self, other: "LocFraction"):
        if self.num.flag != other.num.flag:
            raise MismatchError("fractions over different flags")
        if self.num.shift != other.num.shift:
            raise MismatchError("fractions over different shifts")
        if self.mode != other.mode:
            raise MismatchError("fractions in different localization modes")

    def _coerce(self, other) -> "LocFraction | None":
        if isinstance(other, LocFraction):
            self._ctx(other)
            return other
        rhs = self.num._coerce(other)
        return None if rhs is None else LocFraction(rhs, {}, self.mode)

    def _like(self, num: SymPoly, denom: dict) -> "LocFraction":
        return LocFraction(num, denom, self.mode)

    def _theta(self, alpha: Character) -> SymPoly:
        return theta_sym(self.num.flag, self.num.shift, alpha)

    def __mul__(self, other):
        return self._times(other)

    __rmul__ = __mul__

    def __add__(self, other):
        return self._plus(other)

    __radd__ = __add__

    def __eq__(self, other):
        if not isinstance(other, LocFraction):
            return NotImplemented
        return frac_eq(self, other)

    __hash__ = None

    def __str__(self):
        return self._text()

    def to_json(self) -> dict:
        return {
            "numerator": self.num.to_json(),
            "denominator": self._denominator_json(),
            "mode": self.mode,
            "shift": self.num.shift,
        }

    def __repr__(self):
        return f"LocFraction({self.mode}, {self})"


def frac_eq(a: LocFraction, b: LocFraction) -> bool:
    """Cross-multiplication equality in the localization."""
    a._ctx(b)
    lhs, rhs, _ = lift_to_common(a, b)
    return lhs == rhs


def frac_reduce(a: LocFraction) -> LocFraction:
    """Greedily divide coaugmentation classes out of the numerator.

    Characters are processed in lexicographic order; the result is
    frac_eq-equal to the input with minimal denominator exponents under
    this rule.
    """
    num = a.num
    denom = dict(a.denom)
    for al in sorted(denom, key=lambda c: c.residues):
        t = theta_sym(a.num.flag, a.num.shift, al)
        while denom.get(al, 0):
            q = num.divexact(t)
            if q is None:
                break
            num = q
            denom[al] -= 1
            if not denom[al]:
                del denom[al]
    return LocFraction(num, denom, a.mode)


def dim_degree(a: LocFraction) -> int | None:
    """Dimension degree dim(num) - sum f_alpha; None for the zero fraction."""
    d = a.num.dimension_degree()
    if d is None:
        return None
    return d - sum(a.denom.values())


class BExpr(_Quotient):
    """Fraction in the degree-zero generators: numerator a polynomial in
    b_i (family "b", shift -2) or c_i (family "c", shift +2) over the
    coefficient ring, denominator a product of inverted classes over
    nontrivial characters.  The trivial inverted class is the unit and is
    never stored.  The numerator is kept as a SymPoly whose index i stands
    for the generator b_i or c_i, so it never uses index 0."""

    __slots__ = ("num", "family", "denom")

    _noun = "generator expression"

    def __init__(self, flag: Flag, family: str, terms: dict | None = None, denom: dict | None = None):
        if family not in ("b", "c"):
            raise PreconditionError(f"generator family must be 'b' or 'c', got {family!r}")
        terms = terms or {}
        for m in terms:
            for i, k in m:
                if not 1 <= i <= flag.length:
                    raise PreconditionError(
                        f"generator index {i} out of range 1..{flag.length}"
                    )
                if k < 1:
                    raise PreconditionError("nonpositive generator exponent")
        self.num = SymPoly(flag, -2 if family == "b" else 2, terms)
        self.family = family
        self.denom = self._valid_denom(denom)

    @staticmethod
    def _admit(alpha: Character) -> bool:
        return not alpha.is_trivial  # the trivial inverted class is the unit

    @classmethod
    def _of(cls, num: SymPoly, family: str, denom: dict) -> "BExpr":
        """Wrap a numerator and a denominator that are already valid."""
        e = object.__new__(cls)
        e.num, e.family, e.denom = num, family, denom
        return e

    @property
    def terms(self) -> dict:
        return self.num.terms

    @property
    def _name(self) -> str:
        return self.family

    @property
    def _theta_name(self) -> str:
        return f"{self.family}theta"

    @classmethod
    def zero(cls, flag: Flag, family: str) -> "BExpr":
        return cls(flag, family, {}, {})

    @classmethod
    def const(cls, flag: Flag, family: str, c) -> "BExpr":
        return cls(flag, family, {(): c}, {})

    @classmethod
    def one(cls, flag: Flag, family: str) -> "BExpr":
        return cls.const(flag, family, 1)

    @classmethod
    def generator(cls, flag: Flag, family: str, i: int) -> "BExpr":
        return cls(flag, family, {((i, 1),): CoeffPoly.one(flag.group)}, {})

    def _ctx(self, other: "BExpr"):
        if self.flag != other.flag:
            raise MismatchError("operands over different flags")
        if self.family != other.family:
            raise MismatchError("operands over different generator families")

    def _coerce(self, other) -> "BExpr | None":
        if isinstance(other, BExpr):
            self._ctx(other)
            return other
        if isinstance(other, (int, CoeffPoly)):
            return BExpr.const(self.flag, self.family, other)
        return None

    def _like(self, num: SymPoly, denom: dict) -> "BExpr":
        return BExpr._of(num, self.family, denom)

    def _theta(self, alpha: Character) -> SymPoly:
        return btheta_expansion(self.flag, self.family, alpha).num

    def __mul__(self, other):
        return self._times(other)

    __rmul__ = __mul__

    def __add__(self, other):
        return self._plus(other)

    __radd__ = __add__

    def __eq__(self, other):
        """Structural equality of the stored form (same terms, same denominator)."""
        return (
            isinstance(other, BExpr)
            and self.family == other.family
            and self.num == other.num
            and self.denom == other.denom
        )

    __hash__ = None

    def __str__(self):
        return self._text()

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "numerator": _terms_json(self.num, "generators"),
            "denominator": self._denominator_json(),
        }

    def __repr__(self):
        return f"BExpr({self.family}, {self})"


@lru_cache(maxsize=None)
def btheta_expansion(flag: Flag, family: str, alpha: Character) -> BExpr:
    """The inverted class in generator coordinates: the coefficients of
    coaug(flag, alpha), with beta_0 -> 1 and beta_i -> b_i (or c_i), which
    is 1 + sum aug(alpha, i) * b_i.

    For the trivial character this is the unit: it occurs first, so its
    coaugmentation class is beta_0 alone.
    """
    terms = {((i, 1),) if i else (): c for i, c in coaug(flag, alpha).coeffs.items()}
    return BExpr(flag, family, terms, {})


def _to_generators(a: LocFraction, family: str) -> BExpr:
    if a.num.is_zero:
        return BExpr.zero(a.num.flag, family)
    d = dim_degree(a)
    if d != 0:
        raise PreconditionError(
            f"only dimension-degree-0 fractions rewrite to generators, got {d}"
        )
    terms: dict = {}
    for m, c in a.num.terms.items():
        key = mono({i: k for i, k in m if i})
        if key in terms:
            raise RuntimeError(f"two numerator monomials of one dimension rewrite to {key!r}")
        terms[key] = c
    denom = {al: k for al, k in a.denom.items() if not al.is_trivial}
    return BExpr(a.num.flag, family, terms, denom)


def to_b_generators(a: LocFraction) -> BExpr:
    """Rewrite a dimension-0 fraction in the b-generators (shift -2 ring).

    Each numerator monomial has dimension equal to the total denominator
    exponent, so beta_0 factors drop out term by term and beta_i becomes
    b_i; the denominator keeps one inverted class per nontrivial character.
    """
    if a.num.shift != -2:
        raise PreconditionError("b-generators live in the shift -2 ring")
    return _to_generators(a, "b")


def to_c_generators(a: LocFraction) -> BExpr:
    """Rewrite a dimension-0 fraction in the c-generators (shift +2 ring)."""
    if a.num.shift != 2:
        raise PreconditionError("c-generators live in the shift +2 ring")
    return _to_generators(a, "c")


def expand_b(e: BExpr, mode: str = "MUP") -> LocFraction:
    """Substitute b_i -> beta_i/theta_eps and the inverted classes
    -> theta_alpha/theta_eps, cleared to a single fraction.

    The result has dimension degree 0 (or is zero).
    """
    flag = e.flag
    shift = e.shift
    if e.is_zero:
        return LocFraction(SymPoly.zero(flag, shift), {}, mode)
    F = sum(e.denom.values())
    K = max(F, max(mono_degree(m) for m in e.terms))
    terms: dict = {}
    for m, c in e.terms.items():
        pad = K - mono_degree(m)
        terms[mono_mul(((0, pad),), m) if pad else m] = c
    denom: dict = dict(e.denom)
    if K - F:
        denom[flag.group.identity] = K - F
    return LocFraction(SymPoly(flag, shift, terms), denom, mode)


def invertible_characters(flag: Flag, mode: str) -> list:
    """The characters whose coaugmentation classes the mode inverts, in
    order of first occurrence in the flag (the trivial one first)."""
    if mode == "mUP":
        return [flag.group.identity]
    return list(dict.fromkeys(flag.chars))


# theory -> (the shifts it takes, default first; localization mode).
# MUP/mUP are the localized symmetric algebras on beta_0..beta_N, MU/mU
# their degree-zero subrings on the b- or c-generators; the connective
# theories mUP/mU live in the shift +2 ring only.
THEORIES = {"MUP": ((-2, 2), "MUP"), "mUP": ((2,), "mUP"), "MU": ((-2, 2), "MUP"), "mU": ((2,), "mUP")}


def presentation(theory: str, flag: Flag, shift: int | None = None, assignment: dict | None = None) -> dict:
    """Generators and inverted classes of one of the THEORIES over a flag.

    Theories inverting every coaugmentation class need a complete flag.
    A specializing assignment, when given, is applied to the printed
    expansions of the inverted classes.
    """
    if theory not in THEORIES:
        raise PreconditionError(f"unknown theory {theory!r}")
    shifts, mode = THEORIES[theory]
    periodic = theory.endswith("P")
    d = shifts[0] if shift is None else shift
    group = flag.group
    if d not in shifts:
        if mode == "MUP":
            raise PreconditionError("presentations use shift " + " or ".join(f"{s:+d}" for s in shifts))
        what = "periodic presentation" if periodic else "presentation"
        raise PreconditionError(f"the connective {what} has shift {shifts[0]:+d}")
    if mode == "MUP" and not flag.is_complete:
        missing = next(c for c in group.characters() if flag.first_index(c) is None)
        raise PreconditionError(
            f"flag truncation is missing character {missing}; every "
            "coaugmentation class must be invertible for this theory"
        )
    inverts = sorted(invertible_characters(flag, mode))
    if periodic:
        family = None
        gens = [{"symbol": f"beta[{i}]", "degree": 2 * i - d} for i in range(flag.length + 1)]
        inverted = [
            {
                "symbol": f"theta[{al}]",
                "degree": -d,
                "expansion": shown(theta_sym(flag, d, al), assignment),
            }
            for al in inverts
        ]
    else:
        family = "b" if d == -2 else "c"
        gens = [{"symbol": f"{family}[{i}]", "degree": 2 * i} for i in range(1, flag.length + 1)]
        inverted = [
            {
                "symbol": f"{family}theta[{al}]",
                "degree": 0,
                "expansion": shown(btheta_expansion(flag, family, al), assignment),
            }
            for al in inverts
            if not al.is_trivial
        ]
    return {
        "theory": theory,
        "group": str(group),
        "flag": [str(c) for c in flag.chars],
        "degree_convention": "homological",
        "shift": d,
        "family": family,
        "generators": gens,
        "inverted": inverted,
    }
