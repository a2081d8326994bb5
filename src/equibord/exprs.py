"""Expression grammar over the engine's symbols.

Grammar (whitespace-insensitive)::

    comparison := sum ( "==" sum )?
    sum        := [ "-" ] product ( ( "+" | "-" ) product )*
    product    := factor ( ( "*" | "/" ) factor )*
    factor     := atom ( "^" INT )?
    atom       := INT | "e[(r1,...)]" | "beta[i]" | "theta[(r1,...)]"
               | "b[i]" | "c[i]" | "btheta[(r1,...)]" | "ctheta[(r1,...)]"
               | "(" sum ")"

beta/theta atoms build flag-basis polynomials and localized fractions;
b/c/btheta/ctheta atoms build expressions in the degree-zero generators
(b over shift -2, c over shift +2).  The two sides cannot be mixed inside
one expression.  The right operand of "/" must be a product of inverted
classes (theta[...] on the flag side, btheta/ctheta on the generator
side): those are the only invertible elements of the ambient rings.
b[0] and c[0] are accepted as literal 1.  Comparisons on the generator
side expand both operands back to fractions first, so they decide
mathematical equality, not equality of the stored form.
"""

from __future__ import annotations

import re
from collections import Counter

from .coeff import CoeffPoly
from .errors import PreconditionError, SpecParseError
from .flags import Flag
from .groups import parse_character
from .symalg import (
    FAMILIES,
    _FAMILY_SHIFT,
    BExpr,
    LocFraction,
    SymPoly,
    btheta_expansion,
    expand_b,
    frac_eq,
    frac_reduce,
    theta_sym,
)

GRAMMAR_DOC = __doc__

# Parentheses may nest this deep; past it the parser reports a parse error
# instead of exhausting the interpreter's recursion limit.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s*("
    r"(?P<atom>btheta|ctheta|beta|theta|e|b|c)\[(?P<payload>[^\]]*)\]"
    r"|(?P<int>\d+)"
    r"|(?P<op>==|\^|[-+*/()])"
    r")"
)


class ExprContext:
    """The flag, shift and mode an expression is evaluated over.

    A plain class with the behaviour of a dataclass of the three fields:
    the dataclass machinery would load inspect and ast on every start of
    the command line."""

    __slots__ = ("flag", "shift", "mode")

    def __init__(self, flag: Flag, shift: int = -2, mode: str = "MUP"):
        self.flag = flag
        self.shift = shift
        self.mode = mode

    def __repr__(self):
        return f"ExprContext(flag={self.flag!r}, shift={self.shift!r}, mode={self.mode!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.flag, self.shift, self.mode) == (other.flag, other.shift, other.mode)

    __hash__ = None

    @property
    def family(self) -> str | None:
        return FAMILIES.get(self.shift)


_KINDS = {CoeffPoly: "coeff", SymPoly: "sym", LocFraction: "frac", BExpr: "gen"}
_LABELS = {"coeff": "coefficient", "sym": "polynomial", "frac": "fraction", "gen": "generators"}


class _Val:
    """Evaluated subexpression: payload plus an invertibility signature.

    kind is one of coeff, sym, frac (flag side) or gen (generator side),
    read off the payload's class.  sig is a denominator exponent Counter
    when the subexpression is a pure product of inverted-class atoms, else
    None.
    """

    __slots__ = ("payload", "sig")

    def __init__(self, payload, sig=None):
        self.payload = payload
        self.sig = sig

    @property
    def kind(self) -> str:
        return _KINDS[type(self.payload)]


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise SpecParseError(f"cannot read expression at {rest[:20]!r}")
        if m.group("atom") is not None:
            tokens.append(("atom", (m.group("atom"), m.group("payload")), m.start(1)))
        elif m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start(1)))
        else:
            tokens.append(("op", m.group("op"), m.start(1)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: ExprContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek_op(self):
        kind, val, _ = self.tokens[self.pos]
        return val if kind == "op" else None

    def _take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect_op(self, op: str):
        kind, val, at = self.tokens[self.pos]
        if kind != "op" or val != op:
            raise SpecParseError(f"expected {op!r} at position {at} in {self.text!r}")
        self.pos += 1

    # value plumbing ----------------------------------------------------

    @staticmethod
    def _check_sides(*kinds: str):
        """The algebra classes coerce and merge denominators; the parser only
        keeps flag-side and generator-side values apart."""
        if "gen" in kinds and {"sym", "frac"} & set(kinds):
            raise SpecParseError(
                "cannot mix flag-side symbols (beta/theta) with generator-side "
                "symbols (b/c) in one expression"
            )

    def _add(self, a: _Val, b: _Val) -> _Val:
        self._check_sides(a.kind, b.kind)
        return _Val(a.payload + b.payload)

    def _mul(self, a: _Val, b: _Val) -> _Val:
        self._check_sides(a.kind, b.kind)
        sig = None
        if a.sig is not None and b.sig is not None:
            sig = a.sig + b.sig
        return _Val(a.payload * b.payload, sig)

    def _neg(self, a: _Val) -> _Val:
        return _Val(-a.payload)

    def _pow(self, a: _Val, n: int) -> _Val:
        sig = None
        if a.sig is not None and n > 0:
            sig = Counter({al: k * n for al, k in a.sig.items()})
        return _Val(a.payload**n, sig)

    def _div(self, a: _Val, b: _Val) -> _Val:
        if not b.sig:
            raise SpecParseError(
                "the right operand of / must be a product of inverted classes "
                "(theta[...] or btheta[...]/ctheta[...])"
            )
        self._check_sides(a.kind, b.kind)
        ctx = self.ctx
        # the flag-side inverse refuses what the mode does not invert, on either side
        inverse = LocFraction(SymPoly.one(ctx.flag, ctx.shift), b.sig, ctx.mode)
        if b.kind == "gen":
            inverse = BExpr(ctx.flag, ctx.family, {(): 1}, b.sig)
        return _Val(a.payload * inverse)

    # grammar -----------------------------------------------------------

    def parse(self) -> dict:
        lhs = self._sum()
        if self._peek_op() == "==":
            self._take()
            rhs = self._sum()
            self._expect_end()
            return {
                "kind": "comparison",
                "lhs": lhs,
                "rhs": rhs,
                "equal": self._compare(lhs, rhs),
            }
        self._expect_end()
        return {"kind": "value", "value": lhs}

    def _expect_end(self):
        kind, val, at = self.tokens[self.pos]
        if kind != "end":
            raise self._unexpected(kind, val, at)

    def _unexpected(self, kind, val, at) -> SpecParseError:
        what = "end of expression" if kind == "end" else repr(val)
        return SpecParseError(f"unexpected {what} at position {at} in {self.text!r}")

    def _compare(self, a: _Val, b: _Val) -> bool:
        ctx = self.ctx
        if "gen" in (a.kind, b.kind):
            # each side is checked and expanded in turn, so an operand that
            # cannot expand in this mode is reported before a flag-side partner
            fracs = []
            for v in (a, b):
                self._check_sides(v.kind, "gen")
                g = v.payload if v.kind == "gen" else BExpr.const(ctx.flag, ctx.family, v.payload)
                fracs.append(expand_b(g, ctx.mode))
            return frac_eq(*fracs)
        if a.kind == b.kind == "coeff":
            return a.payload == b.payload
        return frac_eq(as_fraction(a, ctx), as_fraction(b, ctx))

    def _sum(self) -> _Val:
        negate = False
        if self._peek_op() == "-":
            self._take()
            negate = True
        val = self._product()
        if negate:
            val = self._neg(val)
        while self._peek_op() in ("+", "-"):
            _, op, _ = self._take()
            rhs = self._product()
            val = self._add(val, rhs if op == "+" else self._neg(rhs))
        return val

    def _product(self) -> _Val:
        val = self._factor()
        while self._peek_op() in ("*", "/"):
            _, op, _ = self._take()
            rhs = self._factor()
            val = self._mul(val, rhs) if op == "*" else self._div(val, rhs)
        return val

    def _factor(self) -> _Val:
        val = self._atom()
        if self._peek_op() == "^":
            self._take()
            kind, n, at = self._take()
            if kind != "int":
                raise SpecParseError(f"expected an integer exponent at position {at}")
            val = self._pow(val, n)
        return val

    def _atom(self) -> _Val:
        kind, val, at = self._take()
        if kind == "int":
            return _Val(CoeffPoly.const(self.ctx.flag.group, val))
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise SpecParseError(
                    f"parentheses nest deeper than {MAX_NESTING} levels at position {at}"
                )
            inner = self._sum()
            self._expect_op(")")
            self.depth -= 1
            return inner
        if kind != "atom":
            raise self._unexpected(kind, val, at)
        name, payload = val
        if name in ("beta", "b", "c"):
            if not payload.isdecimal():
                raise SpecParseError(
                    f"{name}[{payload}]: the index must be a nonnegative integer"
                )
            i = int(payload)
            if name == "beta":
                return _Val(SymPoly.var(self.ctx.flag, self.ctx.shift, i))
            self._check_family(name)
            if i == 0:
                return _Val(CoeffPoly.one(self.ctx.flag.group))
            return _Val(BExpr.generator(self.ctx.flag, name, i))
        alpha = parse_character(self.ctx.flag.group, payload)
        if name == "e":
            if alpha.is_trivial:
                raise SpecParseError(
                    f"e[{payload}]: the trivial character has no Euler symbol"
                )
            return _Val(CoeffPoly.euler(alpha))
        if name == "theta":
            return _Val(theta_sym(self.ctx.flag, self.ctx.shift, alpha), Counter({alpha: 1}))
        family = name[0]  # btheta -> b, ctheta -> c
        self._check_family(family)
        return _Val(btheta_expansion(self.ctx.flag, family, alpha), Counter({alpha: 1}))

    def _check_family(self, family: str):
        if family != self.ctx.family:
            raise PreconditionError(
                f"{family}-generators live in the shift {_FAMILY_SHIFT[family]} "
                f"ring, but this context has shift {self.ctx.shift} "
                "(pick the other --shift or --theory)"
            )


def eval_expression(text: str, ctx: ExprContext) -> dict:
    """Parse and evaluate; returns a value or comparison outcome."""
    return _Parser(text, ctx).parse()


def as_fraction(val: _Val, ctx: ExprContext) -> LocFraction:
    """Coerce a flag-side value to a localized fraction."""
    if val.kind == "gen":
        raise SpecParseError("expected a flag-side fraction, got generator symbols")
    payload = val.payload
    if val.kind == "coeff":
        payload = SymPoly.const(ctx.flag, ctx.shift, payload)
    return payload if val.kind == "frac" else LocFraction(payload, {}, ctx.mode)


def describe_value(val: _Val, assignment: dict | None = None) -> dict:
    """Render an evaluated value for output; fractions are greedily reduced.

    A specializing assignment, when given, is applied to the displayed end
    result only.
    """
    payload = val.payload
    if val.kind == "frac":
        payload = frac_reduce(payload)
    out = {"kind": _LABELS[val.kind], "text": str(payload), "data": payload.to_json()}
    if assignment:
        sp = payload.specialize(assignment)
        out["specialized_text"] = str(sp)
        out["specialized_data"] = sp.to_json()
    return out
