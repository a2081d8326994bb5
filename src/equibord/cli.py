"""Command-line front end.

Commands: theta-table, thetas, present, rewrite, eval, verify, man.
Text output is deterministic; JSON output carries a "schema" tag and
validates against the documents under schemas/.  Exit status: 0 success,
1 verification failure, 2 parse error, 3 precondition violation, and
EXIT_CLOSED_PIPE when standard output is closed before everything is
written to it, as when the output is piped into `head`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .errors import PreconditionError, SpecParseError
from .exprs import GRAMMAR_DOC, ExprContext, as_fraction, describe_value, eval_expression
from .flags import MAX_FLAG_LENGTH, Flag, aug, coaug, parse_flag
from .groups import parse_character, parse_group, spec_lines
from .render import specialized
from .symalg import THEORIES, presentation, to_b_generators, to_c_generators

_ASSIGN_RE = re.compile(r"^e\[(?P<char>[^\]]*)\]$")


def _resolve_context(args):
    """The group, the flag and the --specialize assignment (or None) of a
    request."""
    group = parse_group(args.group)
    if args.flag is not None and args.truncate is not None:
        raise SpecParseError("pass either --flag or --truncate, not both")
    if args.flag is not None:
        flag = parse_flag(group, args.flag)
    else:
        n = args.truncate if args.truncate is not None else group.order
        if n < 1:
            raise SpecParseError("--truncate must be at least 1")
        if n > MAX_FLAG_LENGTH:
            default = "" if args.truncate is not None else " (the group order)"
            raise PreconditionError(
                f"flag length {n}{default} is over the limit of {MAX_FLAG_LENGTH}"
            )
        flag = Flag.cyclic(group, n)
    asg = _load_assignment(args.specialize, flag) if args.specialize is not None else None
    return group, flag, asg


def _expr_context(args, flag: Flag) -> ExprContext:
    """The evaluation context of --theory and --shift (default: by theory);
    a shift the theory does not take is an argument error."""
    shifts, mode = THEORIES[args.theory]
    shift = shifts[0] if args.shift is None else args.shift
    if shift not in shifts:
        raise SpecParseError(f"theory {args.theory} fixes shift {shifts[0]:+d}")
    return ExprContext(flag, shift, mode)


def _load_assignment(path: str, flag: Flag) -> dict:
    """Assignment file: lines "e[(r1,...)] = <coefficient expression>"."""
    ctx = ExprContext(flag, -2, "MUP")
    asg: dict = {}
    for where, lhs, rhs in spec_lines(path, "assignment", "e[(...)] = value"):
        m = _ASSIGN_RE.match(lhs)
        if not m:
            raise SpecParseError(f"{where}: left side must be an Euler symbol e[(...)]")
        gamma = parse_character(flag.group, m.group("char"))
        if gamma.is_trivial:
            raise SpecParseError(f"{where}: the trivial character has no Euler symbol")
        outcome = eval_expression(rhs, ctx)
        if outcome["kind"] != "value" or outcome["value"].kind != "coeff":
            raise SpecParseError(f"{where}: the assigned value must be a coefficient polynomial")
        asg[gamma] = outcome["value"].payload
    return asg


def _emit(args, text_lines: list, doc) -> int:
    """Print the text lines, or for --format json the document doc() builds.
    The text comes first for every format: render.signed_product refuses an
    over-long integer before any JSON is built or anything is written."""
    if args.format == "json":
        print(json.dumps(doc(), indent=2))
    else:
        print("\n".join(text_lines))
    return 0


def _context_header(group, flag) -> list:
    return [
        f"group: {group}",
        f"flag: {flag}",
        "degree convention: homological",
    ]


def _coaug_section(flag, asg) -> tuple:
    """Text lines for the coaugmentation classes of the characters that
    occur in the flag, in lexicographic order, and a function building
    their JSON entries."""
    coaugs = [(al, specialized(coaug(flag, al), asg)) for al in sorted(set(flag.chars))]
    lines = [f"theta[{al}] = {cls}" for al, cls in coaugs]
    return lines, lambda: [{"alpha": str(al), "class": cls.to_json()} for al, cls in coaugs]


# the most values theta-table prints, order x (flag length + 1), checked before
# any row is built: 0.5-3 s at the limit (Z10000 at length 1, Z141 at 140)
MAX_TABLE_ENTRIES = 20_000


def cmd_theta_table(args) -> int:
    group, flag, asg = _resolve_context(args)
    n = flag.length
    if group.order * (n + 1) > MAX_TABLE_ENTRIES:
        raise PreconditionError(
            f"theta-table over {group} at flag length {n} would print "
            f"{group.order} x {n + 1} values, over the limit of {MAX_TABLE_ENTRIES}"
        )
    rows = [
        (al, [specialized(aug(flag, al, i), asg) for i in range(n + 1)])
        for al in group.characters()
    ]
    coaug_lines, coaug_json = _coaug_section(flag, asg)
    lines = _context_header(group, flag)
    lines.append(f"theta(alpha)(y(V_i)) for i = 0..{n}:")
    for al, vals in rows:
        lines.append(f"{al} | " + " | ".join(map(str, vals)))
    lines.append("coaugmentation classes:")
    lines += coaug_lines
    return _emit(args, lines, lambda: {
        "schema": "equibord/theta-table/v1",
        "group": str(group),
        "flag": [str(c) for c in flag.chars],
        "degree_convention": "homological",
        "augmentations": [
            {"alpha": str(al), "values": [v.to_json() for v in vals]}
            for al, vals in rows
        ],
        "coaugmentations": coaug_json(),
    })


def cmd_thetas(args) -> int:
    group, flag, asg = _resolve_context(args)
    coaug_lines, coaug_json = _coaug_section(flag, asg)
    return _emit(args, _context_header(group, flag) + coaug_lines, lambda: {
        "schema": "equibord/thetas/v1",
        "group": str(group),
        "flag": [str(c) for c in flag.chars],
        "degree_convention": "homological",
        "coaugmentations": coaug_json(),
    })


def cmd_present(args) -> int:
    group, flag, asg = _resolve_context(args)
    pres = presentation(args.theory, flag, _expr_context(args, flag).shift, assignment=asg)
    lines = [
        f"theory: {pres['theory']}",
        f"group: {pres['group']}",
        f"flag: {','.join(pres['flag'])}",
        f"degree convention: {pres['degree_convention']}",
        f"shift: {pres['shift']}",
        "generators:",
    ]
    for g in pres["generators"]:
        lines.append(f"  {g['symbol']} (degree {g['degree']})")
    lines.append("inverted:")
    if pres["inverted"]:
        for inv in pres["inverted"]:
            lines.append(f"  {inv['symbol']} (degree {inv['degree']}) = {inv['expansion']}")
    else:
        lines.append("  (none)")
    return _emit(args, lines, lambda: {"schema": "equibord/present/v1", **pres})


def cmd_rewrite(args) -> int:
    group, flag, asg = _resolve_context(args)
    ctx = _expr_context(args, flag)
    outcome = eval_expression(args.expr, ctx)
    if outcome["kind"] != "value":
        raise SpecParseError("rewrite expects a fraction, not a comparison")
    frac = as_fraction(outcome["value"], ctx)
    result = to_b_generators(frac) if ctx.shift == -2 else to_c_generators(frac)
    sp = result.specialize(asg) if asg else None
    lines = [str(result)] + ([f"specialized: {sp}"] if asg else [])
    return _emit(args, lines, lambda: {
        "schema": "equibord/rewrite/v1",
        "theory": args.theory,
        "group": str(group),
        "flag": [str(c) for c in flag.chars],
        "shift": ctx.shift,
        "input": args.expr,
        "result": {"text": lines[0], **result.to_json()},
        **({"specialized": {"text": str(sp), **sp.to_json()}} if asg else {}),
    })


def cmd_eval(args) -> int:
    group, flag, asg = _resolve_context(args)
    ctx = _expr_context(args, flag)
    outcome = eval_expression(args.expr, ctx)
    data = args.format == "json"
    doc = {
        "schema": "equibord/eval/v1",
        "group": str(group),
        "flag": [str(c) for c in flag.chars],
        "shift": ctx.shift,
        "mode": ctx.mode,
        "kind": outcome["kind"],
        "expr": args.expr,
    }
    if outcome["kind"] == "comparison":
        lines = []
        for side in ("lhs", "rhs"):
            desc = doc[side] = describe_value(outcome[side], asg, data)
            lines.append(f"{side}: {desc['text']}")
            if "specialized_text" in desc:
                lines.append(f"{side} specialized: {desc['specialized_text']}")
        lines.append(f"verdict: {'equal' if outcome['equal'] else 'not equal'}")
        doc["equal"] = outcome["equal"]
    else:
        val = describe_value(outcome["value"], asg, data)
        lines = [f"kind: {val['kind']}", f"value: {val['text']}"]
        if "specialized_text" in val:
            lines.append(f"specialized: {val['specialized_text']}")
        doc["value"] = val
    return _emit(args, lines, lambda: doc)


def cmd_verify(args) -> int:
    # the sweeps, and the dataclasses they are built from, load only for
    # the command that runs them: every other command starts without them
    from dataclasses import replace

    from .verify import default_config, load_config, run_suite

    cfg = load_config(args.config) if args.config is not None else default_config()
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    report = run_suite(cfg)
    if args.format == "json":
        print(json.dumps({"schema": "equibord/verify/v1", **report.to_json()}, indent=2))
    else:
        lines = []
        for c in report.checks:
            lines.append(f"{c.check}: {c.status} ({c.cases} cases, {c.millis} ms)")
            if c.counterexample is not None:
                lines.append(f"  counterexample: {json.dumps(c.counterexample)}")
        lines.append(f"suite: {report.status}")
        print("\n".join(lines))
    return 0 if report.status == "pass" else 1


def cmd_man(subparsers, args) -> int:
    lines = [
        "EQUIBORD(1)",
        "",
        "NAME",
        "    equibord - exact graded-ring computations over character flags:",
        "    augmentation tables, coaugmentation classes, localized symmetric",
        "    algebras, degree-zero generator presentations, and identity sweeps",
        "",
        "SYNOPSIS",
        "    equibord <command> [options]",
        "",
        "COMMANDS",
    ]
    for name, sub in subparsers.choices.items():
        lines.append(f"  {name}")
        usage = sub.format_usage().replace("usage: ", "    ").rstrip()
        lines.append(usage)
        if sub.description:
            lines.append(f"      {sub.description}")
        lines.append("")
    lines += [
        "INPUT GRAMMARS",
        '    group          := "1" | "Z<n>" ( "x" "Z<n>" )*',
        '    character      := "(" r1 ( "," rk )* ")"   one residue per cyclic factor',
        '    representation := "0" | character ( "+" character )*',
        '    flag           := character ( "," character )*   first entry trivial',
        "",
        "EXPRESSION GRAMMAR",
    ]
    lines += ["    " + ln if ln else "" for ln in GRAMMAR_DOC.strip().splitlines()]
    lines += [
        "",
        "FILES",
        '    --specialize FILE  lines "e[(r1,...)] = <coefficient expression>"',
        '    --config FILE      lines "key = value"; keys: groups (comma-joined),',
        "                       max_flag_len, max_dimension, max_index,",
        "                       random_cases, rng_seed",
        "",
        "EXIT STATUS",
        "    0  success (including eval comparisons that print 'not equal')",
        "    1  verification suite reported a failing check",
        "    2  parse error in arguments, specs, expressions, or files",
        "    3  precondition violation (e.g. a character missing from the flag)",
    ]
    print("\n".join(lines))
    return 0


def _add_context_args(p):
    p.add_argument("--group", required=True, help='group spec, e.g. "1", "Z2", "Z2xZ4"')
    p.add_argument("--flag", help='flag spec, e.g. "(0),(1),(0),(1)"')
    p.add_argument("--truncate", type=int, help="length of the default cyclic flag")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--specialize",
        metavar="FILE",
        help="Euler-symbol assignment file applied to displayed results only",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="equibord",
        description="Exact graded-ring engine over character flags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "theta-table",
        description="Print the augmentation matrix theta(alpha)(y(V_i)) and the coaugmentation classes.",
    )
    _add_context_args(p)
    p.set_defaults(func=cmd_theta_table)

    p = sub.add_parser("thetas", description="Print the coaugmentation classes of the flag.")
    _add_context_args(p)
    p.set_defaults(func=cmd_thetas)

    p = sub.add_parser(
        "present",
        description="Print the generator/inverted-class presentation of a theory over the flag.",
    )
    _add_context_args(p)
    p.add_argument("--theory", required=True, choices=tuple(THEORIES))
    p.add_argument("--shift", type=int, choices=(-2, 2), help="shift route (default: by theory)")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser(
        "rewrite",
        description="Rewrite a dimension-0 fraction in the degree-zero generators.",
    )
    _add_context_args(p)
    p.add_argument("--theory", required=True, choices=("MU", "mU"))
    p.add_argument("--shift", type=int, choices=(-2, 2))
    p.add_argument("--expr", required=True, help="fraction over beta/theta symbols")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser(
        "eval",
        description="Evaluate an expression or decide an == comparison exactly.",
    )
    _add_context_args(p)
    p.add_argument("--theory", choices=tuple(THEORIES), default="MUP")
    p.add_argument("--shift", type=int, choices=(-2, 2))
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", description="Run the identity sweeps and report.")
    p.add_argument("--config", metavar="FILE")
    p.add_argument("--seed", type=int, help="override the configured rng seed")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("man", description="Print the generated manual page.")
    p.set_defaults(func=functools.partial(cmd_man, sub))
    return parser


# the exit status of a command whose standard output is closed before all
# of it is written: 128 + SIGPIPE, as the shell reports a process that the
# signal ends
EXIT_CLOSED_PIPE = 141


def main(argv=None) -> int:
    # argparse takes a value that begins with '-', such as "-beta[1]", for
    # an option, so --expr, or any abbreviation of it argparse accepts
    # (--e, --ex, --exp: no other option begins with --e), is glued to the
    # token after it
    tokens, words = iter(sys.argv[1:] if argv is None else argv), []
    for word in tokens:
        glued = len(word) > 2 and "--expr".startswith(word)
        if glued and (value := next(tokens, None)) is not None:
            word = f"{word}={value}"
        words.append(word)
    args = build_parser().parse_args(words)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return rc
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # what is still buffered for the closed stdout goes nowhere, and so
        # does the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
