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
from types import SimpleNamespace

from .coeff import CoeffPoly
from .errors import PreconditionError, SpecParseError
from .flags import Flag
from .groups import parse_character, parse_int
from .symalg import (
    FAMILIES, _FAMILY_SHIFT, BExpr, LocFraction, SymPoly, btheta_expansion, expand_b, frac_eq,
    frac_reduce, theta_sym,
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
    r"|(?P<bad>\S)"
    r")"
)


class ExprContext(SimpleNamespace):
    """The flag, shift and mode an expression is evaluated over.  A
    SimpleNamespace has the repr and the field-wise equality of a dataclass
    of the three, without loading inspect and ast on every start."""

    def __init__(self, flag: Flag, shift: int = -2, mode: str = "MUP"):
        super().__init__(flag=flag, shift=shift, mode=mode)

    @property
    def family(self) -> str | None:
        return FAMILIES.get(self.shift)


_KINDS = {CoeffPoly: "coeff", SymPoly: "sym", LocFraction: "frac", BExpr: "gen"}
_LABELS = {"coeff": "coefficient", "sym": "polynomial", "frac": "fraction", "gen": "generators"}


class _Val:
    """Evaluated expression.  kind is one of coeff, sym, frac (flag side)
    or gen (generator side), read off the payload's class."""

    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload

    @property
    def kind(self) -> str:
        return _KINDS[type(self.payload)]


def _tokenize(text: str) -> list:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        at = m.start(1)
        if m["bad"]:
            raise SpecParseError(f"cannot read expression at {text[at:].strip()[:20]!r}")
        if m["atom"]:
            tokens.append(("atom", (m["atom"], m["payload"]), at))
        elif m["int"]:
            tokens.append(("int", parse_int(m["int"], "the expression"), at))
        else:
            tokens.append(("op", m["op"], at))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Reads the whole expression into a tree of tuples before any
    arithmetic: ("int", n), ("atom", name, index or Character), ("neg", x),
    ("^", x, n), and (op, x, y) for +, *, / and ==, with a - b read as
    a + (-b).  Every syntax fault and every atom payload is refused here."""

    def __init__(self, text: str, group):
        self.text = text
        self.group = group
        self.tokens = _tokenize(text)
        self.pos = self.depth = 0

    def _take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _skip(self, *ops: str) -> str | None:
        """Take the next token and return it when it is one of the ops."""
        kind, val, _ = self.tokens[self.pos]
        if kind == "op" and val in ops:
            self.pos += 1
            return val
        return None

    def _unexpected(self, kind, val, at) -> SpecParseError:
        what = "end of expression" if kind == "end" else repr(val)
        return SpecParseError(f"unexpected {what} at position {at} in {self.text!r}")

    def parse(self) -> tuple:
        tree = self._sum()
        if self._skip("=="):
            tree = ("==", tree, self._sum())
        kind, val, at = self._take()
        if kind != "end":
            raise self._unexpected(kind, val, at)
        return tree

    def _sum(self) -> tuple:
        node = ("neg", self._product()) if self._skip("-") else self._product()
        while op := self._skip("+", "-"):
            rhs = self._product()
            node = ("+", node, rhs if op == "+" else ("neg", rhs))
        return node

    def _product(self) -> tuple:
        node = self._factor()
        while op := self._skip("*", "/"):
            node = (op, node, self._factor())
        return node

    def _factor(self) -> tuple:
        node = self._atom()
        if self._skip("^"):
            kind, n, at = self._take()
            if kind != "int":
                raise SpecParseError(f"expected an integer exponent at position {at}")
            node = ("^", node, n)
        return node

    def _atom(self) -> tuple:
        kind, val, at = self._take()
        if kind == "int":
            return ("int", val)
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise SpecParseError(f"parentheses nest deeper than {MAX_NESTING} levels at position {at}")
            inner = self._sum()
            kind, val, at = self._take()
            if val != ")":
                raise SpecParseError(f"expected ')' at position {at} in {self.text!r}")
            self.depth -= 1
            return inner
        if kind != "atom":
            raise self._unexpected(kind, val, at)
        name, payload = val
        if name in ("beta", "b", "c"):
            if not payload.isdecimal():
                raise SpecParseError(f"{name}[{payload}]: the index must be a nonnegative integer")
            return ("atom", name, parse_int(payload, "the expression"))
        alpha = parse_character(self.group, payload)
        if name == "e" and alpha.is_trivial:
            raise SpecParseError(f"e[{payload}]: the trivial character has no Euler symbol")
        return ("atom", name, alpha)


def _check_sides(*kinds: str):
    """The algebra classes coerce and merge denominators; the evaluator
    only keeps flag-side and generator-side values apart."""
    if "gen" in kinds and {"sym", "frac"} & set(kinds):
        raise SpecParseError("cannot mix flag-side symbols (beta/theta) with generator-side "
                             "symbols (b/c) in one expression")


def _check_family(family: str, ctx: ExprContext):
    if family != ctx.family:
        raise PreconditionError(f"{family}-generators live in the shift {_FAMILY_SHIFT[family]} ring, but "
                                f"this context has shift {ctx.shift} (pick the other --shift or --theory)")


def _chain(node: tuple, ops: tuple) -> tuple:
    """(the first operand, the (op, operand) pairs after it) of a chain of
    the binary ops.  A chain nests to the left and is as long as the text,
    so it is walked in a loop; only parentheses nest deeper."""
    rest = []
    while node[0] in ops:
        rest.append((node[0], node[2]))
        node = node[1]
    return node, rest[::-1]


def _evaluate(node: tuple, ctx: ExprContext):
    """The payload of a tree node, evaluated from left to right."""
    node, rest = _chain(node, ("+", "*", "/"))
    tag, *args = node
    if tag == "neg":
        val = -_evaluate(args[0], ctx)
    elif tag == "^":
        val = _evaluate(args[0], ctx) ** args[1]
    else:
        val = CoeffPoly.const(ctx.flag.group, args[0]) if tag == "int" else _atom_value(*args, ctx)
    for op, y in rest:
        if op == "/":
            val = _divide(val, y, ctx)
        else:
            rhs = _evaluate(y, ctx)
            _check_sides(_KINDS[type(val)], _KINDS[type(rhs)])
            val = val + rhs if op == "+" else val * rhs
    return val


def _atom_value(name: str, x, ctx: ExprContext):
    """The value of an atom, x its index or its Character."""
    if name == "beta":
        return SymPoly.var(ctx.flag, ctx.shift, x)
    if name == "e":
        return CoeffPoly.euler(x)
    if name == "theta":
        return theta_sym(ctx.flag, ctx.shift, x)
    _check_family(name[0], ctx)  # btheta -> b, ctheta -> c
    if name != name[0]:
        return btheta_expansion(ctx.flag, name[0], x)
    return BExpr.generator(ctx.flag, name, x) if x else CoeffPoly.one(ctx.flag.group)


def _inverted(node: tuple, ctx: ExprContext, denom: Counter, n: int = 1) -> str | None:
    """The side, sym or gen, of a divisor that is a product of positive
    powers of inverted classes, its exponents times n added to denom; else
    None.  Its atoms are checked as evaluating them would check them, in
    the same order, but never expanded."""
    node, rest = _chain(node, ("*",))
    tag, *args = node
    if tag == "^" and args[1]:
        side = _inverted(args[0], ctx, denom, n * args[1])
    elif tag == "atom" and args[0] in ("theta", "btheta", "ctheta"):
        name, alpha = args
        if name != "theta":
            _check_family(name[0], ctx)
        ctx.flag.occurrence(alpha)
        denom[alpha] += n
        side = "sym" if name == "theta" else "gen"
    else:
        return None
    for _, y in rest:
        rhs = _inverted(y, ctx, denom, n) if side else None
        if rhs is None:
            return None
        _check_sides(side, rhs)
    return side


def _divide(a, node: tuple, ctx: ExprContext):
    """a over the divisor node, read as its inverted classes and never
    expanded.  Any other divisor is evaluated before it is refused, so that
    a fault inside it is reported first."""
    denom = Counter()
    side = _inverted(node, ctx, denom)
    if side is None:
        _evaluate(node, ctx)
        raise SpecParseError("the right operand of / must be a product of inverted classes "
                             "(theta[...] or btheta[...]/ctheta[...])")
    _check_sides(_KINDS[type(a)], side)
    # the flag-side inverse refuses what the mode does not invert, on either side
    inverse = LocFraction(SymPoly.one(ctx.flag, ctx.shift), denom, ctx.mode)
    if side == "gen":
        inverse = BExpr(ctx.flag, ctx.family, {(): 1}, denom)
    return a * inverse


def _compare(a: _Val, b: _Val, ctx: ExprContext) -> bool:
    if "gen" in (a.kind, b.kind):
        # each side is checked and expanded in turn, so an operand that
        # cannot expand in this mode is reported before a flag-side partner
        fracs = []
        for v in (a, b):
            _check_sides(v.kind, "gen")
            g = v.payload if v.kind == "gen" else BExpr.const(ctx.flag, ctx.family, v.payload)
            fracs.append(expand_b(g, ctx.mode))
        return frac_eq(*fracs)
    if a.kind == b.kind == "coeff":
        return a.payload == b.payload
    return frac_eq(as_fraction(a, ctx), as_fraction(b, ctx))


def eval_expression(text: str, ctx: ExprContext) -> dict:
    """Parse the whole expression, then evaluate it; returns a value or
    comparison outcome."""
    tree = _Parser(text, ctx.flag.group).parse()
    if tree[0] != "==":
        return {"kind": "value", "value": _Val(_evaluate(tree, ctx))}
    lhs, rhs = _Val(_evaluate(tree[1], ctx)), _Val(_evaluate(tree[2], ctx))
    return {"kind": "comparison", "lhs": lhs, "rhs": rhs, "equal": _compare(lhs, rhs, ctx)}


def as_fraction(val: _Val, ctx: ExprContext) -> LocFraction:
    """Coerce a flag-side value to a localized fraction."""
    if val.kind == "gen":
        raise SpecParseError("expected a flag-side fraction, got generator symbols")
    payload = val.payload
    if val.kind == "coeff":
        payload = SymPoly.const(ctx.flag, ctx.shift, payload)
    return payload if val.kind == "frac" else LocFraction(payload, {}, ctx.mode)


def describe_value(val: _Val, assignment: dict | None = None, data: bool = True) -> dict:
    """Render an evaluated value for output; fractions are greedily reduced.

    A specializing assignment, when given, is applied to the displayed end
    result only.  The JSON forms are built only when data is true.
    """
    payload = val.payload
    if val.kind == "frac":
        payload = frac_reduce(payload)
    out = {"kind": _LABELS[val.kind], "text": str(payload)}
    if data:
        out["data"] = payload.to_json()
    if assignment:
        sp = payload.specialize(assignment)
        out["specialized_text"] = str(sp)
        if data:
            out["specialized_data"] = sp.to_json()
    return out
