"""Deterministic text rendering shared by the algebra layers.

Every layer renders as a flat signed sum of products so output is stable,
diff-friendly, and parseable by the expression grammar.
"""

from .sparse import check_int, sorted_terms


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


def flat_terms(terms: dict, name: str, fmt, inner) -> list:
    """A sparse polynomial's terms as (int coefficient, factor strings)
    pairs, in descending graded-lex order.

    Variable v renders as name[fmt(v)].  inner is None for integer
    coefficients; when the coefficients are polynomials themselves, inner(c)
    gives their flat terms, whose factors come first in each product.
    """
    out = []
    for m, c in sorted_terms(terms):
        syms = [format_power(f"{name}[{fmt(v)}]", k) for v, k in m]
        if inner is None:
            out.append((c, syms))
        else:
            out.extend((ci, csyms + syms) for ci, csyms in inner(c))
    return out


def specialized(obj, assignment):
    """obj as displayed: specialized when an assignment is given, else obj
    itself.  Take its text and its JSON form from this one value."""
    return obj.specialize(assignment) if assignment else obj
