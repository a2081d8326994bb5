"""Independent oracle: rebuilds the engine's symbols in sympy.

The oracle shares no code with the engine.  It reads the same expression
grammar with its own tokenizer, builds each coaugmentation class straight
from the flag definition,

    theta[alpha] = beta[0] + sum_{i < j} e(alpha^-1 (x) V_i) * beta[i],

where j is the first flag position of alpha, V_i is the sum of the first i
flag characters and e(W) is the product of the summands' Euler symbols
(zero when a trivial summand occurs), and maps the degree-zero generators
back by b[i] = c[i] = beta[i] / theta[eps] and
btheta[alpha] = ctheta[alpha] = theta[alpha] / theta[eps].

Values are fractions (numerator, denominator) of polynomials in sympy's
sparse ring ZZ[beta, e].  Two texts denote the same element when the
numerator of their difference over the common denominator is zero, which
is exactly when sympy.cancel(lhs - rhs) == 0.  The ring is used in place of
sympy expressions because expression-level cancel spends ~0.4 s on a small
request; the arithmetic is the same exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import re

from sympy import ZZ
from sympy.polys.rings import ring

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>btheta|ctheta|beta|theta|e|b|c)\[(?P<payload>[^\]]*)\]"
    r"|(?P<int>\d+)|(?P<op>==|\^|[-+*/()]))"
)


def _residues(payload: str, orders: tuple) -> tuple:
    inner = payload.strip()[1:-1].strip()
    parts = [int(p) for p in inner.split(",")] if inner else []
    if len(parts) != len(orders):
        raise ValueError(f"bad character {payload!r}")
    return tuple(r % n for r, n in zip(parts, orders))


class Oracle:
    """sympy model of one (group, flag) context."""

    def __init__(self, orders: tuple, flag: list):
        self.orders = tuple(orders)
        self.flag = [tuple(c) for c in flag]
        nontrivial = [c for c in itertools.product(*(range(n) for n in orders)) if any(c)]
        names = [f"beta{i}" for i in range(len(self.flag) + 1)]
        names += ["e_" + "_".join(map(str, c)) for c in nontrivial]
        self.ring, *gens = ring(",".join(names), ZZ)
        self.beta = gens[: len(self.flag) + 1]
        self.esym = dict(zip(nontrivial, gens[len(self.flag) + 1:]))
        self._theta: dict = {}

    def euler(self, rs: tuple):
        return self.esym[rs] if any(rs) else self.ring.zero

    def theta(self, alpha: tuple):
        if alpha not in self._theta:
            if alpha not in self.flag:
                raise ValueError(f"character {alpha} is not in the flag")
            j = self.flag.index(alpha) + 1
            inv = tuple((-a) % n for a, n in zip(alpha, self.orders))
            out = self.beta[0]
            stage = self.ring.one
            for i in range(1, j):
                gamma = self.flag[i - 1]
                twisted = tuple((a + g) % n for a, g, n in zip(inv, gamma, self.orders))
                stage = stage * self.euler(twisted)
                out = out + stage * self.beta[i]
            self._theta[alpha] = out
        return self._theta[alpha]

    # fractions are (numerator, denominator) pairs

    def parse(self, text: str) -> tuple:
        """Read one side of the grammar into a fraction."""
        toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
                break
            toks.append(m)
            pos = m.end()
        self._toks, self._pos = toks, 0
        out = self._sum()
        if self._pos != len(toks):
            raise ValueError(f"trailing input in {text[:40]!r}")
        return out

    def _op(self):
        if self._pos < len(self._toks):
            return self._toks[self._pos].group("op")
        return None

    def _sum(self) -> tuple:
        neg = self._op() == "-"
        if neg:
            self._pos += 1
        n, d = self._product()
        if neg:
            n = -n
        while self._op() in ("+", "-"):
            op = self._op()
            self._pos += 1
            n2, d2 = self._product()
            if op == "-":
                n2 = -n2
            n, d = (n + n2, d) if d == d2 else (n * d2 + n2 * d, d * d2)
        return n, d

    def _product(self) -> tuple:
        n, d = self._factor()
        while self._op() in ("*", "/"):
            op = self._op()
            self._pos += 1
            n2, d2 = self._factor()
            n, d = (n * n2, d * d2) if op == "*" else (n * d2, d * n2)
        return n, d

    def _factor(self) -> tuple:
        n, d = self._atom()
        if self._op() == "^":
            self._pos += 1
            k = int(self._toks[self._pos].group("int"))
            self._pos += 1
            n, d = n**k, d**k
        return n, d

    def _atom(self) -> tuple:
        m = self._toks[self._pos]
        self._pos += 1
        one = self.ring.one
        if m.group("int") is not None:
            return self.ring(ZZ(int(m.group("int")))), one
        if m.group("op") == "(":
            inner = self._sum()
            if self._op() != ")":
                raise ValueError("unbalanced parentheses")
            self._pos += 1
            return inner
        name, payload = m.group("atom"), m.group("payload")
        if name == "beta":
            return self.beta[int(payload)], one
        if name in ("b", "c"):
            i = int(payload)
            return (one, one) if i == 0 else (self.beta[i], self.beta[0])
        rs = _residues(payload, self.orders)
        if name == "e":
            return self.euler(rs), one
        if name == "theta":
            return self.theta(rs), one
        return self.theta(rs), self.beta[0]  # btheta / ctheta

    def same_value(self, lhs_text: str, rhs_text: str) -> bool:
        """Whether two texts denote one element: the difference cancels to 0."""
        n1, d1 = self.parse(lhs_text)
        n2, d2 = self.parse(rhs_text)
        if d1.is_zero or d2.is_zero:
            raise ValueError("division by zero")
        return n1 * d2 - n2 * d1 == 0
