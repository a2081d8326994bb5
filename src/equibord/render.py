"""Deterministic rendering shared by the algebra layers: the one output
order and both output formats.

Every value renders as a flat signed sum of products, so output is stable,
diff-friendly, and parseable by the expression grammar.  walk gives the
terms of a value in that order, each with its Euler part and its beta part
rendered apart, as factor strings for text or as exponent maps for JSON.
"""

from operator import itemgetter

from .groups import format_residues, unpack_euler
from .sparse import check_int, fields


def format_power(symbol: str, k: int) -> str:
    return symbol if k == 1 else f"{symbol}^{k}"


def signed_product(coeff: int, symbol_factors: list) -> tuple:
    """One flat term as (negative, body); unit coefficients are left implicit.
    An int too long to print is refused here (sparse.check_int): every
    command renders its text, through this function, before any JSON."""
    check_int(coeff)
    factors = []
    if abs(coeff) != 1 or not symbol_factors:
        factors.append(str(abs(coeff)))
    factors.extend(symbol_factors)
    return (coeff < 0, " * ".join(factors))


def join_signed(parts: list) -> str:
    """Join (negative, body) pairs into "a - b + c"; empty input renders as 0."""
    if not parts:
        return "0"
    neg, body = parts[0]
    out = [("-" if neg else "") + body]
    for neg, body in parts[1:]:
        out.append((" - " if neg else " + ") + body)
    return "".join(out)


def grlex(m) -> list:
    """Sort key of the one rendering order, on an unpacked monomial, a
    sequence of (variable, exponent) pairs sorted by variable: ascending keys
    are descending graded-lex order.  The total degree is negated and each
    (v, k) becomes (v, -k); a monomial whose pairs begin another's has a
    lower degree, so no end marker is needed.  Variables compare as they
    are: beta indices as ints, characters as residue tuples, in
    AbelianGroup.unrank's order, never by slot."""
    key = [0]
    total = 0
    for v, k in m:
        total += k
        key.append((v, -k))
    key[0] = -total
    return key


def walk(split: dict, group, beta, text: bool = True):
    """The terms of split, {beta part: {packed Euler monomial of group:
    int}}, as (coefficient, Euler part, beta part) triples in the one
    rendering order: descending graded-lex order of the beta part, then of
    the Euler part.  beta(b) is (the sort key, the rendered form) of the
    beta part b, and an Euler part renders as rendered(m, "e", ...).  Each
    distinct Euler monomial is unpacked, keyed and rendered once per call,
    and each beta part once, so terms share their rendered forms, which are
    read and never changed.  The terms are sorted within their beta part,
    which is faster than one sort of all terms by (beta key, Euler key)."""
    keyed = {}  # packed Euler monomial -> (its sort key, its rendered form)
    for t in split.values():
        for e in t:
            if e not in keyed:
                m = unpack_euler(group, e)
                keyed[e] = (grlex(m), rendered(m, "e", format_residues, text))
    for _, b, t in sorted([(*beta(b), t) for b, t in split.items()], key=itemgetter(0)):
        for e in sorted(t, key=lambda e: keyed[e][0]):
            yield t[e], keyed[e][1], b


def rendered(m, name: str, fmt, text: bool):
    """The unpacked monomial m as its factor strings name[fmt(v)]^k when
    text is true, else as its JSON form {fmt(v): k}."""
    if text:
        return [format_power(f"{name}[{fmt(v)}]", k) for v, k in m]
    return {fmt(v): k for v, k in m}


def beta_part(name: str, text: bool = True):
    """beta for walk on packed beta parts, beta_i written name[i]."""

    def beta(b: int) -> tuple:
        m = fields(b)
        return grlex(m), rendered(m, name, str, text)

    return beta


def inverted(denom: dict, name: str | None = None) -> list:
    """The inverted classes {Character: power} by residues: as factor
    strings name[(r,...)]^k, or with no name as JSON objects.  A power too
    long to print is refused here, as a coefficient is in signed_product."""
    pairs = sorted(denom.items(), key=lambda p: p[0].residues)
    for _, k in pairs:
        check_int(k)
    if name is None:
        return [{"alpha": str(al), "power": k} for al, k in pairs]
    return [format_power(f"{name}[{al}]", k) for al, k in pairs]


def signed_terms(terms) -> list:
    """The (negative, body) pairs of walked text terms, the Euler factors
    first in each product."""
    return [signed_product(c, euler + b) for c, euler, b in terms]


def specialized(obj, assignment):
    """obj as displayed: specialized when an assignment is given, else obj
    itself.  Take its text and its JSON form from this one value."""
    return obj.specialize(assignment) if assignment else obj
