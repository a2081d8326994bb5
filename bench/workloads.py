"""Operation lists for the three workloads, generated from a seed.

Every request is plain argv for ``equibord.cli.main``; expression text is
generated here, never built with engine objects.  Each workload draws its
requests from a fixed pool (built from POOL_SEED, independent of the
workload seed) so that every request has a stdout digest recorded once on
the seed commit; the workload seed decides which pool entries run, how
often and in what order.

An operation is a dict:
    argv      list of strings; "{ASG}" is replaced by the assignment-file
              directory at run time
    expect    expected exit code
    key       index of the request in its pool (digest lookup); for verify,
              the verify seed (case-count lookup)
    kind      category label, reported in the operation mix
    extra     optional checks: "verdict", "oracle", "golden", "readme_out",
              "known_defect"; "slot" on algebra-heavy requests

A workload is a list of *variants*, each the operation list of one pass;
passes cycle through the variants.  Only verify-sweep has more than one.
"""

from __future__ import annotations

import itertools
import random

POOL_SEED = 20260117

DEFAULT_GROUPS = (
    ("1", ()),
    ("Z2", (2,)),
    ("Z3", (3,)),
    ("Z4", (4,)),
    ("Z2xZ2", (2, 2)),
    ("Z5", (5,)),
    ("Z6", (6,)),
    ("Z2xZ3", (2, 3)),
    ("Z7", (7,)),
    ("Z8", (8,)),
    ("Z2xZ4", (2, 4)),
    ("Z2xZ2xZ2", (2, 2, 2)),
)

# Inputs that no workload sends, until the engine has input budgets:
#   thetas --group Z100000000                       exhausts memory
#   eval (beta[0]+beta[1]+e[(1)]*beta[2])^200       never terminates


# --------------------------------------------------------------------------
# contexts and expression text


def characters(orders: tuple) -> list:
    return list(itertools.product(*(range(n) for n in orders)))


def char_text(rs: tuple) -> str:
    return "(" + ",".join(map(str, rs)) + ")"


class Context:
    """A group and a flag, with the argv that selects them."""

    def __init__(self, gspec: str, orders: tuple, flag: list, explicit: bool):
        self.gspec = gspec
        self.orders = orders
        self.flag = flag
        self.chars = characters(orders)
        self.nontrivial = self.chars[1:]
        if explicit:
            self.argv = ["--group", gspec, "--flag", ",".join(char_text(c) for c in flag)]
        else:
            self.argv = ["--group", gspec, "--truncate", str(len(flag))]

    @property
    def complete(self) -> bool:
        return len(set(self.flag)) == len(self.chars)

    @property
    def in_flag(self) -> list:
        return sorted(set(self.flag))


def cyclic_flag(orders: tuple, length: int) -> list:
    chars = characters(orders)
    return [chars[i % len(chars)] for i in range(length)]


def rand_coeff(rng: random.Random, ctx: Context) -> str:
    kind = rng.randrange(4)
    if not ctx.nontrivial or kind == 0:
        return rng.choice(("1", "-1"))
    if kind == 1:
        return rng.choice(("", "-")) + f"e[{char_text(rng.choice(ctx.nontrivial))}]"
    if kind == 2:
        a, b = rng.choice(ctx.nontrivial), rng.choice(ctx.nontrivial)
        return f"e[{char_text(a)}] * e[{char_text(b)}]"
    return rng.choice(("2", "-2", "3"))


def rand_mono(rng: random.Random, length: int, dim: int) -> list:
    counts: dict = {}
    for _ in range(dim):
        i = rng.randint(0, length)
        counts[i] = counts.get(i, 0) + 1
    return [f"beta[{i}]" if k == 1 else f"beta[{i}]^{k}" for i, k in sorted(counts.items())]


def rand_poly(rng: random.Random, ctx: Context, dim: int, nterms: int) -> str:
    """A sum of nterms random terms, each of dimension degree dim."""
    parts = []
    for _ in range(nterms):
        c = rand_coeff(rng, ctx)
        factors = rand_mono(rng, len(ctx.flag), dim)
        if c.startswith("-"):
            sign, c = "-", c[1:]
        else:
            sign = "+"
        body = " * ".join(([c] if c not in ("1", "") or not factors else []) + factors)
        parts.append((sign, body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def denom_text(alphas: list) -> str:
    counts: dict = {}
    for a in alphas:
        counts[a] = counts.get(a, 0) + 1
    return " * ".join(
        f"theta[{char_text(a)}]" + (f"^{k}" if k > 1 else "") for a, k in sorted(counts.items())
    )


def fraction_text(num: str, alphas: list) -> str:
    if not alphas:
        return f"({num})"
    return f"({num}) / ({denom_text(alphas)})"


# --------------------------------------------------------------------------
# cli-session


README_EXAMPLES = (
    (["theta-table", "--group", "Z2", "--flag", "(0),(1),(0),(1)"], {"golden": True}),
    (["thetas", "--group", "Z2xZ2", "--truncate", "4"], {}),
    (["present", "--theory", "MUP", "--group", "Z2", "--truncate", "4"], {}),
    (["present", "--theory", "mU", "--group", "1", "--truncate", "4"], {}),
    (
        ["rewrite", "--theory", "MU", "--group", "Z2", "--flag", "(0),(1)",
         "--expr", "beta[1]*beta[2]/theta[(1)]^2"],
        {"readme_out": "b[1] * b[2] / btheta[(1)]^2\n"},
    ),
    (
        ["eval", "--group", "Z2", "--truncate", "4",
         "--expr", "theta[(1)] == beta[0] + e[(1)]*beta[1]"],
        {"verdict": True},
    ),
    (["man"], {}),
)

NESTED_DEPTH = 1000


def _malformed() -> list:
    """Requests that must be refused with exit 2 (parse) or 3 (precondition)."""
    nested = "(" * NESTED_DEPTH + "beta[0]" + ")" * NESTED_DEPTH
    return [
        (["eval", "--group", "Z2", "--truncate", "4", "--expr", nested], 2, {"known_defect": True}),
        (["eval", "--group", "Z2", "--truncate", "4", "--expr", "beta[1] +"], 2, {}),
        (["eval", "--group", "Z3", "--truncate", "3", "--expr", "beta[1] / beta[2]"], 2, {}),
        (["eval", "--group", "Z2", "--truncate", "2", "--expr", "beta[1] + b[1]"], 2, {}),
        (["eval", "--group", "Z4", "--truncate", "2", "--expr", "theta[(3)]"], 3, {}),
        (["eval", "--group", "Z2", "--truncate", "2", "--theory", "mUP", "--expr", "b[1]"], 3, {}),
        (["eval", "--group", "Z2", "--truncate", "2", "--expr", "beta[1] ? 2"], 2, {}),
        (["thetas", "--group", "Z0"], 2, {}),
        (["thetas", "--group", "Q3", "--truncate", "2"], 2, {}),
        (["thetas", "--group", "Z2", "--flag", "(1),(0)"], 3, {}),
        (["thetas", "--group", "Z3", "--flag", "(0),(3)"], 2, {}),
        (["theta-table", "--group", "Z2", "--truncate", "0"], 2, {}),
        (["theta-table", "--group", "Z2", "--truncate", "2", "--flag", "(0),(1)"], 2, {}),
        (["present", "--theory", "MUP", "--group", "Z4", "--truncate", "2"], 3, {}),
        (["present", "--theory", "MU", "--group", "Z3", "--flag", "(0),(1)"], 3, {}),
        (["rewrite", "--theory", "MU", "--group", "Z2", "--truncate", "2", "--expr", "beta[1]"], 3, {}),
        (["rewrite", "--theory", "MU", "--group", "Z2", "--truncate", "2",
          "--expr", "beta[1] == beta[1]"], 2, {}),
        (["rewrite", "--theory", "mU", "--group", "Z2", "--truncate", "2", "--shift", "-2",
          "--expr", "beta[1] / theta[(0)]"], 2, {}),
        (["thetas", "--group", "Z2", "--truncate", "2", "--specialize", "{ASG}/missing.txt"], 2, {}),
        (["thetas", "--group", "Z2", "--truncate", "2", "--specialize", "{ASG}/bad.txt"], 2, {}),
        (["eval", "--truncate", "2", "--expr", "1"], 2, {}),
        (["thetas", "--group", "Z2", "--format", "yaml"], 2, {}),
        (["frobnicate"], 2, {}),
    ]


# assignment files written before timing; name -> text, per group orders
def assignment_files(orders: tuple) -> dict:
    nontrivial = characters(orders)[1:]
    if not nontrivial:
        return {}
    first, last = char_text(nontrivial[0]), char_text(nontrivial[-1])
    return {
        "zero": "".join(f"e[{char_text(c)}] = 0\n" for c in nontrivial),
        "mixed": f"# one symbol moved, one collapsed\ne[{first}] = e[{last}]^2 + 2\ne[{last}] = 0\n",
    }


EXTRA_ASSIGNMENT_FILES = {"bad.txt": "e[(0)] = 1\n"}


def asg_name(gspec: str, which: str) -> str:
    return f"{gspec}.{which}.txt"


def _context_pool(rng: random.Random) -> list:
    """Three contexts per default group, flag lengths 2..16."""
    out = []
    for gspec, orders in DEFAULT_GROUPS:
        order = len(characters(orders))
        lengths = [max(order, 2), rng.randint(2, 16), rng.randint(max(order, 2), 16)]
        for k, length in enumerate(lengths):
            explicit = k == 1
            if explicit:
                chars = characters(orders)
                flag = [chars[0]] + [rng.choice(chars) for _ in range(length - 1)]
            else:
                flag = cyclic_flag(orders, length)
            out.append(Context(gspec, orders, flag, explicit))
    return out


def _dim0_fraction(rng: random.Random, ctx: Context, mode: str, max_dim: int = 3) -> tuple:
    total = rng.randint(1, max_dim)
    pool = [ctx.chars[0]] if mode == "mUP" else ctx.in_flag
    alphas = [rng.choice(pool) for _ in range(total)]
    num = rand_poly(rng, ctx, total, rng.randint(1, 3))
    return num, alphas


def _eval_value_expr(rng: random.Random, ctx: Context) -> str:
    """A small flag-side expression mixing sums, products, powers and division."""
    shape = rng.randrange(5)
    if shape == 0:
        num, alphas = _dim0_fraction(rng, ctx, "MUP")
        return fraction_text(num, alphas)
    if shape == 1:
        a = rng.choice(ctx.in_flag)
        return f"theta[{char_text(a)}]^{rng.randint(1, 3)} - beta[0]"
    if shape == 2:
        a, b = rng.choice(ctx.in_flag), rng.choice(ctx.in_flag)
        p = rand_poly(rng, ctx, 1, 2)
        return f"({p}) * theta[{char_text(a)}] / (theta[{char_text(a)}] * theta[{char_text(b)}])"
    if shape == 3:
        p, q = rand_poly(rng, ctx, 1, 2), rand_poly(rng, ctx, 2, 2)
        return f"({p})^2 + ({q})"
    x, y = _dim0_fraction(rng, ctx, "MUP", 2), _dim0_fraction(rng, ctx, "MUP", 2)
    return f"{fraction_text(*x)} + {fraction_text(*y)}"


def _generator_value(rng: random.Random, ctx: Context, family: str) -> str:
    """A small generator-side expression in b/btheta (or c/ctheta)."""
    n = len(ctx.flag)
    i, j = rng.randint(1, n), rng.randint(1, n)
    x, y = rng.choice(ctx.in_flag), rng.choice(ctx.in_flag)
    c = rand_coeff(rng, ctx).lstrip("-") or "1"
    if rng.randrange(2):
        return (f"({family}[{i}] + {c} * {family}[{j}]) * {family}theta[{char_text(x)}]"
                f" / {family}theta[{char_text(y)}]")
    return f"{family}[{i}]^2 - {family}[{j}] / {family}theta[{char_text(x)}]^2"


def expansion_text(ctx: Context, alpha: tuple, lead: str, var: str) -> str:
    """lead + sum e(alpha^-1 (x) V_i) * var[i], written from the flag: theta
    (lead beta[0], var beta) or the inverted class (lead 1, var b or c).
    The sum stops at the first trivial twist, where every later Euler class
    vanishes."""
    inv = tuple((-a) % n for a, n in zip(alpha, ctx.orders))
    parts = [lead]
    symbols: list = []
    for i, gamma in enumerate(ctx.flag, start=1):
        twisted = tuple((a + g) % n for a, g, n in zip(inv, gamma, ctx.orders))
        if not any(twisted):
            break
        symbols.append(f"e[{char_text(twisted)}]")
        parts.append(" * ".join(symbols + [f"{var}[{i}]"]))
    return " + ".join(parts)


def _comparison(rng: random.Random, ctx: Context, equal: bool) -> str:
    shape = rng.randrange(3)
    if shape == 0:
        a = rng.choice(ctx.in_flag)
        lhs = f"theta[{char_text(a)}]"
        rhs = expansion_text(ctx, a, "beta[0]", "beta")
    elif shape == 1:
        p, q = rand_poly(rng, ctx, 1, 2), rand_poly(rng, ctx, 1, 2)
        lhs, rhs = f"({p}) * ({q})", f"({q}) * ({p})"
    else:
        num, alphas = _dim0_fraction(rng, ctx, "MUP")
        g = rng.choice(ctx.in_flag)
        lhs = fraction_text(num, alphas)
        rhs = f"({num}) * theta[{char_text(g)}] / ({denom_text(alphas + [g])})"
    if not equal:
        rhs += rng.choice((" + 1", " + 2", " - 1"))
    return f"{lhs} == {rhs}"


CLI_KINDS = (
    # kind, share of the session
    ("theta-table", 0.12),
    ("thetas", 0.12),
    ("present", 0.14),
    ("rewrite", 0.12),
    ("eval-value", 0.22),
    ("eval-compare", 0.16),
    ("readme", 0.07),
    ("malformed", 0.05),
)


def _fmt(rng: random.Random) -> list:
    return ["--format", "json"] if rng.random() < 1 / 3 else []


def _spec(rng: random.Random, ctx: Context) -> list:
    if ctx.nontrivial and rng.random() < 0.25:
        return ["--specialize", "{ASG}/" + asg_name(ctx.gspec, rng.choice(("zero", "mixed")))]
    return []


def cli_pool() -> tuple:
    """(contexts, per_ctx, flat): per_ctx[kind][context index] lists requests;
    flat lists every distinct request as (kind, request), in pool-key order."""
    rng = random.Random(POOL_SEED)
    contexts = _context_pool(rng)
    per_ctx: dict = {k: [] for k, _ in CLI_KINDS if k not in ("readme", "malformed")}
    for ctx in contexts:
        tt, th, pr, rw, ev, cmp_ = ([] for _ in range(6))
        for _ in range(3):
            tt.append((["theta-table", *ctx.argv, *_fmt(rng), *_spec(rng, ctx)], 0, {}))
            th.append((["thetas", *ctx.argv, *_fmt(rng), *_spec(rng, ctx)], 0, {}))
        theories = ["mUP", "mU"] + (["MUP", "MU"] if ctx.complete else [])
        for theory in theories:
            for shift in ([[]] if theory in ("mUP", "mU") else [[], ["--shift", "2"]]):
                pr.append((["present", "--theory", theory, *ctx.argv, *shift, *_fmt(rng), *_spec(rng, ctx)], 0, {}))
        for _ in range(4):
            theory = rng.choice(("MU", "mU"))
            num, alphas = _dim0_fraction(rng, ctx, "MUP" if theory == "MU" else "mUP")
            rw.append((["rewrite", "--theory", theory, *ctx.argv, *_fmt(rng), *_spec(rng, ctx),
                        "--expr", fraction_text(num, alphas)], 0, {}))
        for _ in range(8):
            expr = _eval_value_expr(rng, ctx)
            spec = _spec(rng, ctx)
            ev.append((["eval", *ctx.argv, *_fmt(rng), *spec, "--expr", expr], 0, {"oracle": True}))
        for family, theory in (("b", []), ("c", ["--shift", "2"])):
            for _ in range(2):
                ev.append((["eval", *ctx.argv, *theory, *_fmt(rng), "--expr",
                            _generator_value(rng, ctx, family)], 0, {"oracle": True}))
        for k in range(6):
            equal = k % 2 == 0
            cmp_.append((["eval", *ctx.argv, *_fmt(rng), "--expr", _comparison(rng, ctx, equal)], 0,
                         {"verdict": equal}))
        for k, (family, theory) in enumerate((("b", []), ("c", ["--shift", "2"]))):
            a = rng.choice(ctx.in_flag)
            rhs = expansion_text(ctx, a, "1", family) + ("" if k == 0 else " + 1")
            cmp_.append((["eval", *ctx.argv, *theory, *_fmt(rng), "--expr",
                          f"{family}theta[{char_text(a)}] == {rhs}"], 0, {"verdict": k == 0}))
        for kind, reqs in zip(per_ctx, (tt, th, pr, rw, ev, cmp_)):
            per_ctx[kind].append(reqs)
    flat = [(kind, r) for kind, by_ctx in per_ctx.items() for reqs in by_ctx for r in reqs]
    flat += [("readme", (argv, 0, extra)) for argv, extra in README_EXAMPLES]
    flat += [("malformed", r) for r in _malformed()]
    return contexts, per_ctx, flat


CLI_SESSION_OPS = 1200


def _allot(total: int, weights: list) -> list:
    """Split total into integer parts proportional to weights (largest remainder)."""
    raw = [total * w / sum(weights) for w in weights]
    parts = [int(x) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: parts[i] - raw[i])
    for i in order[: total - sum(parts)]:
        parts[i] += 1
    return parts


def cli_session(seed: int) -> list:
    """One session: CLI_SESSION_OPS requests in a seeded, skewed order.

    Contexts get Zipf weights 1/(rank+1), so a few contexts dominate and the
    engine's per-context caches both hit and miss.  To keep the session's
    cost the same from seed to seed, ranks go to buckets of three contexts
    of similar size (group order times flag length) in a fixed order, and
    the seed only permutes the ranks inside each bucket.  The number of
    requests of each kind, and for each (kind, rank), is fixed; a context's
    requests of one kind are taken in turn, in a seeded order.
    """
    contexts, per_ctx, flat = cli_pool()
    key_of = {id(r): k for k, (_, r) in enumerate(flat)}
    by_size = sorted(range(len(contexts)),
                     key=lambda i: (len(contexts[i].chars) * len(contexts[i].flag), i))
    buckets = [by_size[i:i + 3] for i in range(0, len(by_size), 3)]
    random.Random(POOL_SEED + 2).shuffle(buckets)
    rng = random.Random(seed)
    ranked = []
    for bucket in buckets:
        bucket = list(bucket)
        rng.shuffle(bucket)
        ranked += bucket
    weights = [1.0 / (r + 1) for r in range(len(ranked))]
    picks = []
    for kind, share in CLI_KINDS:
        n = round(share * CLI_SESSION_OPS)
        if kind in ("readme", "malformed"):
            reqs = [r for kd, r in flat if kd == kind and not r[2].get("known_defect")]
            rng.shuffle(reqs)
            picks += [(kind, reqs[i % len(reqs)]) for i in range(n)]
            continue
        for ci, count in zip(ranked, _allot(n, weights)):
            reqs = list(per_ctx[kind][ci])
            rng.shuffle(reqs)
            picks += [(kind, reqs[i % len(reqs)]) for i in range(count)]
    rng.shuffle(picks)
    return [{"argv": r[0], "expect": r[1], "key": key_of[id(r)], "kind": kind, "extra": r[2]}
            for kind, r in picks[:CLI_SESSION_OPS]]


def known_defect_probes() -> list:
    """The pool requests that hit a known defect.  They are sent once per
    run, after timing, and are not part of a session: a session's requests
    must all succeed."""
    flat = cli_pool()[2]
    return [{"argv": r[0], "expect": r[1], "key": k, "kind": kind, "extra": r[2]}
            for k, (kind, r) in enumerate(flat) if r[2].get("known_defect")]


# --------------------------------------------------------------------------
# algebra-heavy

ALGEBRA_GROUPS = (("Z8", (8,)), ("Z2xZ4", (2, 4)))
ALGEBRA_FLAG_LEN = 8


def _algebra_context(gspec: str, orders: tuple) -> Context:
    return Context(gspec, orders, cyclic_flag(orders, ALGEBRA_FLAG_LEN), False)


def _seeded_sum(rng: random.Random, ctx: Context) -> str:
    """Six dimension-0 fractions shaped like a smaller pinned case:
    denominators of total exponent 1, 0, 0, 0, 2 and 3 (six theta factors
    in the common denominator), numerators of 2, 1, 2, 1, 1 and 3 terms."""
    a, b, c, d, f = rng.sample(ctx.nontrivial, 5)
    shapes = [([a], 2), ([], 1), ([], 2), ([], 1), ([c, d], 1), ([a, b, f], 3)]
    parts = []
    for alphas, nterms in shapes:
        parts.append(fraction_text(rand_poly(rng, ctx, len(alphas), nterms), alphas))
    return " + ".join(f"({p})" for p in parts)


def _reducible(rng: random.Random, ctx: Context, abc: tuple) -> str:
    """A numerator pre-multiplied by two theta factors over a four-factor
    denominator: frac_reduce divides both factors out."""
    a, b, c = (ctx.chars[i] for i in abc)
    p = rand_poly(rng, ctx, 4, 30)
    return f"({p}) * theta[{char_text(a)}] * theta[{char_text(b)}] / ({denom_text([a, a, b, c])})"


def _big_comparison(rng: random.Random, ctx: Context, equal: bool, picks: tuple) -> str:
    """F1 + F2 + F3 against a reordered sum with an extra theta factor
    multiplied in and divided out: frac_eq cross-multiplies."""
    picks = [ctx.chars[i] for i in picks]
    fr = [
        fraction_text(rand_poly(rng, ctx, 2, 2), picks[0:2]),
        fraction_text(rand_poly(rng, ctx, 2, 2), picks[1:3]),
        fraction_text(rand_poly(rng, ctx, 1, 2), picks[3:4]),
    ]
    g = char_text(picks[4])
    lhs = " + ".join(fr)
    rhs = f"{fr[2]} + ({fr[0]} + {fr[1]}) * theta[{g}] / theta[{g}]"
    if not equal:
        rhs += f" + beta[0] / theta[{g}]"
    return f"{lhs} == {rhs}"


# A slot fixes the group and which characters' theta classes occur (in a
# cyclic flag of the whole group, theta of the k-th character has k + 1
# terms), so its variants cost about the same.  Every pass runs all eight
# reducible fractions, so the pass's median request, which falls among them,
# does not depend on the seed; the seed picks one variant per comparison
# slot and the order.  Slots: (kind, group index, characters, variants).
ALGEBRA_SLOTS = tuple(("reducible", k % 2, (5, 3, 1), 1) for k in range(8)) + (
    ("compare-eq", 0, (5, 4, 3, 2, 1), 3),
    ("compare-eq", 1, (5, 4, 3, 2, 1), 3),
    ("compare-ne", 0, (5, 4, 3, 2, 1), 3),
    ("compare-ne", 1, (5, 4, 3, 2, 1), 3),
)
ALGEBRA_SUMS = 2


def algebra_pool(pinned_expr: str) -> list:
    """(kind, (argv, expect, extra)) for every algebra-heavy request; extra
    carries the request's slot."""
    rng = random.Random(POOL_SEED + 1)
    out = [("pinned", (["eval", "--group", "Z8", "--truncate", "8", "--expr", pinned_expr], 0,
                       {"slot": "pinned"}))]
    ctxs = [_algebra_context(g, o) for g, o in ALGEBRA_GROUPS]
    for k in range(ALGEBRA_SUMS):
        out.append(("sum", (["eval", *ctxs[k % 2].argv, "--expr", _seeded_sum(rng, ctxs[k % 2])], 0,
                            {"slot": f"sum{k}"})))
    for slot, (kind, gi, chars, variants) in enumerate(ALGEBRA_SLOTS):
        ctx = ctxs[gi]
        for _ in range(variants):
            if kind == "reducible":
                fmt = ["--format", "json"] if slot % 3 == 2 else []
                expr, extra = _reducible(rng, ctx, chars), {"oracle": True}
            else:
                fmt = []
                equal = kind == "compare-eq"
                expr, extra = _big_comparison(rng, ctx, equal, chars), {"verdict": equal}
            extra["slot"] = slot
            out.append((kind, (["eval", *ctx.argv, *fmt, "--expr", expr], 0, extra)))
    return out


def algebra_heavy(seed: int, pinned_expr: str) -> list:
    """The pinned request, every seeded sum and reducible fraction, and one
    seeded variant per comparison slot."""
    pool = algebra_pool(pinned_expr)
    rng = random.Random(seed)
    by_slot: dict = {}
    for key, (kind, req) in enumerate(pool):
        by_slot.setdefault(req[2]["slot"], []).append(key)
    ops = []
    for keys in by_slot.values():
        if pool[keys[0]][0] in ("pinned", "sum", "reducible"):
            picked = keys
        else:
            picked = [rng.choice(keys)]
        for key in picked:
            kind, (argv, expect, extra) = pool[key]
            ops.append({"argv": argv, "expect": expect, "key": key, "kind": kind, "extra": extra})
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# verify-sweep

# The verify seeds every run times; their case counts are pinned.  The
# random checks' cost depends on the verify seed, so every run rotates
# through the same four and the workload seed only picks their order.
VERIFY_ROTATION = (1, 2, 3, 4)


def verify_sweep(seed: int) -> list:
    """One variant per verify seed of the rotation, in a seeded order."""
    order = list(VERIFY_ROTATION)
    random.Random(seed).shuffle(order)
    return [[{"argv": ["verify", "--seed", str(s), "--format", "json"], "expect": 0,
              "key": s, "kind": "verify", "extra": {}}] for s in order]
