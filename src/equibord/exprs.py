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
from dataclasses import dataclass

from .coeff import CoeffPoly
from .errors import PreconditionError, SpecParseError
from .flags import Flag
from .groups import parse_character
from .symalg import (
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
    r"\s*(?:"
    r"(?P<atom>btheta|ctheta|beta|theta|e|b|c)\[(?P<payload>[^\]]*)\]"
    r"|(?P<int>\d+)"
    r"|(?P<op>==|\^|[-+*/()])"
    r")"
)


@dataclass
class ExprContext:
    flag: Flag
    shift: int = -2
    mode: str = "MUP"

    @property
    def family(self) -> str:
        return "b" if self.shift == -2 else "c"


class _Val:
    """Evaluated subexpression: payload plus an invertibility signature.

    kind is one of coeff, sym, frac (flag side) or gen (generator side).
    sig is a denominator exponent map when the subexpression is a pure
    product of inverted-class atoms, else None.
    """

    __slots__ = ("kind", "payload", "sig")

    def __init__(self, kind, payload, sig=None):
        self.kind = kind
        self.payload = payload
        self.sig = sig


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
            tokens.append(("atom", (m.group("atom"), m.group("payload")), m.start()))
        elif m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
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

    def _to_gen(self, v: _Val) -> BExpr:
        if v.kind == "gen":
            return v.payload
        if v.kind == "coeff":
            return BExpr.const(self.ctx.flag, self.ctx.family, v.payload)
        raise SpecParseError(
            "cannot mix flag-side symbols (beta/theta) with generator-side "
            "symbols (b/c) in one expression"
        )

    def _to_sym(self, v: _Val) -> SymPoly:
        if v.kind == "sym":
            return v.payload
        if v.kind == "coeff":
            return SymPoly.const(self.ctx.flag, self.ctx.shift, v.payload)
        raise SpecParseError(
            "cannot mix flag-side symbols (beta/theta) with generator-side "
            "symbols (b/c) in one expression"
        )

    def _to_frac(self, v: _Val) -> LocFraction:
        if v.kind == "frac":
            return v.payload
        return LocFraction(self._to_sym(v), {}, self.ctx.mode)

    def _combine_kind(self, a: _Val, b: _Val) -> str:
        kinds = {a.kind, b.kind}
        if "gen" in kinds:
            if kinds & {"sym", "frac"}:
                raise SpecParseError(
                    "cannot mix flag-side symbols (beta/theta) with "
                    "generator-side symbols (b/c) in one expression"
                )
            return "gen"
        if "frac" in kinds:
            return "frac"
        if "sym" in kinds:
            return "sym"
        return "coeff"

    def _add(self, a: _Val, b: _Val) -> _Val:
        kind = self._combine_kind(a, b)
        if kind == "gen":
            return _Val("gen", self._to_gen(a) + self._to_gen(b))
        if kind == "frac":
            return _Val("frac", self._to_frac(a) + self._to_frac(b))
        if kind == "sym":
            return _Val("sym", self._to_sym(a) + self._to_sym(b))
        return _Val("coeff", a.payload + b.payload)

    def _mul(self, a: _Val, b: _Val) -> _Val:
        kind = self._combine_kind(a, b)
        sig = None
        if a.sig is not None and b.sig is not None:
            sig = dict(a.sig)
            for al, k in b.sig.items():
                sig[al] = sig.get(al, 0) + k
        if kind == "gen":
            return _Val("gen", self._to_gen(a) * self._to_gen(b), sig)
        if kind == "frac":
            return _Val("frac", self._to_frac(a) * self._to_frac(b))
        if kind == "sym":
            return _Val("sym", self._to_sym(a) * self._to_sym(b), sig)
        return _Val("coeff", a.payload * b.payload)

    def _neg(self, a: _Val) -> _Val:
        return _Val(a.kind, -a.payload)

    def _pow(self, a: _Val, n: int) -> _Val:
        sig = None
        if a.sig is not None and n > 0:
            sig = {al: k * n for al, k in a.sig.items()}
        return _Val(a.kind, a.payload**n, sig)

    def _div(self, a: _Val, b: _Val) -> _Val:
        if b.sig is None or not b.sig:
            raise SpecParseError(
                "the right operand of / must be a product of inverted classes "
                "(theta[...] or btheta[...]/ctheta[...])"
            )
        if b.kind == "gen":
            g = self._to_gen(a)
            denom = dict(g.denom)
            for al, k in b.sig.items():
                denom[al] = denom.get(al, 0) + k
            return _Val("gen", BExpr(g.flag, g.family, g.terms, denom))
        f = self._to_frac(a)
        denom = dict(f.denom)
        for al, k in b.sig.items():
            denom[al] = denom.get(al, 0) + k
        return _Val("frac", LocFraction(f.num, denom, f.mode))

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
            raise SpecParseError(
                f"unexpected {val!r} at position {at} in {self.text!r}"
            )

    def _compare(self, a: _Val, b: _Val) -> bool:
        if "gen" in (a.kind, b.kind):
            fa = expand_b(self._to_gen(a), self.ctx.mode)
            fb = expand_b(self._to_gen(b), self.ctx.mode)
            return frac_eq(fa, fb)
        if a.kind == "coeff" and b.kind == "coeff":
            return a.payload == b.payload
        return frac_eq(self._to_frac(a), self._to_frac(b))

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
            return _Val("coeff", CoeffPoly.const(self.ctx.flag.group, val))
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
            raise SpecParseError(
                f"unexpected {val!r} at position {at} in {self.text!r}"
            )
        name, payload = val
        if name in ("beta", "b", "c"):
            if not payload.isdigit():
                raise SpecParseError(
                    f"{name}[{payload}]: the index must be a nonnegative integer"
                )
            i = int(payload)
            if name == "beta":
                return _Val("sym", SymPoly.var(self.ctx.flag, self.ctx.shift, i))
            self._check_family(name)
            if i == 0:
                return _Val("coeff", CoeffPoly.one(self.ctx.flag.group))
            return _Val("gen", BExpr.generator(self.ctx.flag, name, i))
        alpha = parse_character(self.ctx.flag.group, payload)
        if name == "e":
            if alpha.is_trivial:
                raise SpecParseError(
                    f"e[{payload}]: the trivial character has no Euler symbol"
                )
            return _Val("coeff", CoeffPoly.euler(alpha))
        if name == "theta":
            return _Val(
                "sym", theta_sym(self.ctx.flag, self.ctx.shift, alpha), {alpha: 1}
            )
        family = name[0]  # btheta -> b, ctheta -> c
        self._check_family(family)
        return _Val(
            "gen", btheta_expansion(self.ctx.flag, family, alpha), {alpha: 1}
        )

    def _check_family(self, family: str):
        if family != self.ctx.family:
            raise PreconditionError(
                f"{family}-generators live in the shift {-2 if family == 'b' else 2} "
                f"ring, but this context has shift {self.ctx.shift} "
                "(pick the other --shift or --theory)"
            )


def eval_expression(text: str, ctx: ExprContext) -> dict:
    """Parse and evaluate; returns a value or comparison outcome."""
    return _Parser(text, ctx).parse()


def as_fraction(val: _Val, ctx: ExprContext) -> LocFraction:
    """Coerce a flag-side value to a localized fraction."""
    if val.kind == "frac":
        return val.payload
    if val.kind == "sym":
        return LocFraction(val.payload, {}, ctx.mode)
    if val.kind == "coeff":
        return LocFraction(
            SymPoly.const(ctx.flag, ctx.shift, val.payload), {}, ctx.mode
        )
    raise SpecParseError("expected a flag-side fraction, got generator symbols")


def describe_value(val: _Val, assignment: dict | None = None) -> dict:
    """Render an evaluated value for output; fractions are greedily reduced.

    A specializing assignment, when given, is applied to the displayed end
    result only.
    """
    kind = val.kind
    payload = val.payload
    if kind == "frac":
        payload = frac_reduce(payload)
        out = {"kind": "fraction", "text": str(payload), "data": payload.to_json()}
    elif kind == "sym":
        out = {"kind": "polynomial", "text": str(payload), "data": payload.to_json()}
    elif kind == "gen":
        out = {"kind": "generators", "text": str(payload), "data": payload.to_json()}
    else:
        out = {"kind": "coefficient", "text": str(payload), "data": payload.to_json()}
    if assignment:
        sp = payload.specialize(assignment)
        out["specialized_text"] = str(sp)
        out["specialized_data"] = sp.to_json()
    return out
