#!/usr/bin/env python3
"""equibord benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the engine is imported from ./src.  The
workload's operation lists (one per variant; a "pass" runs one list) are
generated from --seed, then run in process through
``equibord.cli.main(argv)`` with stdout and stderr captured, pass after
pass, cycling through the variants, until --seconds have gone by.  The
first pass is a warm-up and is not timed.  The engine's lru caches are
cleared before every pass, so each pass is a fresh session.  Results are
checked after timing: exit codes, stdout digests recorded on the seed
commit, the README outputs and golden file, == verdicts fixed by
construction, verify case counts, and the sympy oracle.  Requests that hit
a known defect are sent once, after timing, and reported on their own.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the warm-up and
one untraced pass, then traced passes, and prints the per-layer metrics and the tracing
overhead; spans go to .bench_out/.  The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")
OUT = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(ROOT, "tests", "golden", "theta_table_z2.txt")

WORKLOADS = ("cli-session", "algebra-heavy", "verify-sweep")
# how the nested-parentheses eval fails today, instead of exiting 2
KNOWN_DEFECT = "uncaught RecursionError"
SETUP_REPEATS = 15
SETUP_CODE = "import equibord.cli as c; c.build_parser(); print('ready', flush=True)"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p99", "ms"),
    ("peak_rss_mb", "MB"),
)


def load_engine():
    """Import the engine from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import equibord.cli as cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import the engine from {SRC}: {exc}")
    if os.path.commonpath([os.path.abspath(cli.__file__), SRC]) != SRC:
        raise SystemExit(f"bench: imported {cli.__file__}, not the checkout's src/")
    return cli


# --------------------------------------------------------------------------
# set-up time


def setup_once() -> float:
    """Seconds from spawning a fresh interpreter to build_parser() done."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                            cwd=ROOT, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode:
        raise SystemExit("bench: the set-up interpreter failed")
    return elapsed


def measure_setup() -> float:
    setup_once()  # writes bytecode caches, as the first run after install does
    return statistics.median(setup_once() for _ in range(SETUP_REPEATS))


# --------------------------------------------------------------------------
# running operations


def lru_caches() -> list:
    """The engine's lru-cached functions, found before any wrapping."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "equibord" or name.startswith("equibord."):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)) and hasattr(val, "cache_info"):
                    found[id(val)] = val
    return sorted(found.values(), key=lambda f: f.__qualname__)


def call(cli, argv: list) -> tuple:
    """Run one request; returns (exit code, stdout).  An uncaught exception
    is reported as a string in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a crash is a result to report
            rc = f"uncaught {type(exc).__name__}"
    return rc, out.getvalue()


def run_pass(cli, ops: list, caches: list, tracer=None) -> dict:
    for fn in caches:
        fn.cache_clear()
    gc.collect()
    lat, results, pinned = [], [], None
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            if op["kind"] == "pinned":
                pinned = tracer.snapshot()
        t0 = clock()
        rc, out = call(cli, op["run_argv"])
        lat.append(clock() - t0)
        results.append((rc, out))
        if pinned is not None and op["kind"] == "pinned":
            pinned = {k: [x - y for x, y in zip(v, pinned[k])] for k, v in tracer.snapshot().items()}
    wall = clock() - start
    info = {fn.__qualname__: fn.cache_info() for fn in caches}
    return {"wall": wall, "lat": lat, "results": results, "cache": info, "pinned": pinned}


def run_passes(cli, variants, caches, seconds, start, tracer=None, limit=None) -> list:
    """Passes back to back, cycling through the variants, while the next
    one, as long as the median pass so far, still ends within the measuring
    time; at least one pass and at most limit."""
    passes = []
    while not passes or (len(passes) != limit and time.perf_counter() - start
                         + statistics.median(p["wall"] for p in passes) <= seconds):
        v = len(passes) % len(variants)
        ops = variants[v]
        if tracer is not None:
            tracer.reset()
        p = run_pass(cli, ops, caches, tracer)
        if tracer is not None:
            p["layers"] = tracer.metrics()
        p["results"] = [compact(op, rc, out) for op, (rc, out) in zip(ops, p["results"])]
        p["variant"] = v
        passes.append(p)
    return passes


def compact(op: dict, rc, out: str) -> tuple:
    """(exit code, stdout digest, stdout bytes, stdout text when a check
    reads it); keeps memory flat however many passes run."""
    data = out.encode("utf-8")
    keep = op["kind"] == "verify" or any(
        k in op["extra"] for k in ("verdict", "oracle", "golden", "readme_out"))
    return rc, hashlib.sha256(data).hexdigest(), len(data), out if keep else None


# --------------------------------------------------------------------------
# correctness


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_json(name: str):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def pool_fingerprint(entries: list) -> str:
    return sha256(json.dumps([r[0] for _, r in entries]))


def flag_of(argv: list, workloads) -> tuple:
    """(orders, flag characters) named by a request's --group/--flag/--truncate."""
    gspec = argv[argv.index("--group") + 1]
    orders = () if gspec == "1" else tuple(int(p[1:]) for p in gspec.split("x"))
    if "--flag" in argv:
        text = argv[argv.index("--flag") + 1]
        flag = [tuple(int(r) for r in part.strip("()").split(",") if r)
                for part in text.replace("),(", ")|(").split("|")]
    else:
        flag = workloads.cyclic_flag(orders, int(argv[argv.index("--truncate") + 1]))
    return orders, flag


def eval_value_text(out: str, argv: list) -> str:
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return json.loads(out)["value"]["text"]
    for line in out.splitlines():
        if line.startswith("value: "):
            return line[len("value: "):]
    raise ValueError("no value line")


def eval_verdict(out: str, argv: list) -> bool:
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return json.loads(out)["equal"]
    verdicts = [ln for ln in out.splitlines() if ln.startswith("verdict: ")]
    if len(verdicts) != 1:
        raise ValueError("no verdict line")
    return verdicts[0] == "verdict: equal"


class Checker:
    """Checks each operation's result; oracle verdicts are computed once per
    distinct request."""

    def __init__(self, workload: str, workloads, digests: dict, counts: dict):
        self.workload = workload
        self.workloads = workloads
        self.digests = digests
        self.counts = counts
        self.oracle_done: dict = {}
        with open(GOLDEN, encoding="utf-8") as fh:
            self.golden = fh.read()

    def problems(self, op: dict, rc, digest: str, out) -> list:
        bad = []
        if rc != op["expect"]:
            bad.append(f"exit {rc!r}, expected {op['expect']}")
        extra = op["extra"]
        if self.workload == "verify-sweep":
            return bad + self._verify(op, out)
        if self.digests is None or digest != self.digests[op["key"]]:
            bad.append("stdout digest differs from the seed commit's")
        if rc != 0:
            return bad
        if extra.get("golden") and out != self.golden:
            bad.append("output differs from tests/golden/theta_table_z2.txt")
        if "readme_out" in extra and out != extra["readme_out"]:
            bad.append("output differs from the README")
        if "verdict" in extra:
            try:
                if eval_verdict(out, op["argv"]) != extra["verdict"]:
                    bad.append("wrong == verdict")
            except (ValueError, KeyError, json.JSONDecodeError):
                bad.append("no == verdict in the output")
        if extra.get("oracle"):
            ok = self.oracle_done.get(op["key"])
            if ok is None:
                ok = self._oracle(op, out)
                self.oracle_done[op["key"]] = ok
            if not ok:
                bad.append("sympy oracle disagrees")
        return bad

    def _oracle(self, op: dict, out: str) -> bool:
        from oracle import Oracle

        argv = op["argv"]
        orders, flag = flag_of(argv, self.workloads)
        try:
            value = eval_value_text(out, argv)
            return Oracle(orders, flag).same_value(value, argv[argv.index("--expr") + 1])
        except (ValueError, KeyError, json.JSONDecodeError):
            return False

    def _verify(self, op: dict, out: str) -> list:
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return ["verify printed no JSON report"]
        bad = []
        if doc.get("status") != "pass":
            bad.append(f"verify status {doc.get('status')!r}")
        if doc.get("config", {}).get("rng_seed") != op["key"]:
            bad.append("verify ran with another seed")
        want = self.counts.get(str(op["key"]), {})
        got = {c["check"]: c["cases"] for c in doc.get("checks", [])}
        if not want or got != want:
            bad.append(f"verify case counts {got} differ from the pinned {want}")
        return bad


def verify_cases(op: dict, counts: dict) -> int:
    return sum(counts.get(str(op["key"]), {}).values()) or 1


# --------------------------------------------------------------------------
# the workload run


def build_ops(workload: str, seed: int, workloads) -> tuple:
    """(variants, digests, verify counts); digests is None when the pool
    changed."""
    digests = counts = None
    if workload == "cli-session":
        variants = [workloads.cli_session(seed)]
        entries = workloads.cli_pool()[2]
    elif workload == "algebra-heavy":
        with open(os.path.join(DATA, "pinned_z8.txt"), encoding="utf-8") as fh:
            pinned = fh.read().strip()
        variants = [workloads.algebra_heavy(seed, pinned)]
        entries = workloads.algebra_pool(pinned)
    else:
        variants = workloads.verify_sweep(seed)
        entries = None
        counts = load_json("verify_counts.json")
    if entries is not None:
        table = load_json("digests.json")[workload]
        if table["fingerprint"] == pool_fingerprint(entries):
            digests = table["stdout_sha256"]
    return variants, digests, counts


def write_assignments(workloads, asg_dir: str):
    os.makedirs(asg_dir, exist_ok=True)
    files = dict(workloads.EXTRA_ASSIGNMENT_FILES)
    for gspec, orders in workloads.DEFAULT_GROUPS:
        for which, text in workloads.assignment_files(orders).items():
            files[workloads.asg_name(gspec, which)] = text
    for name, text in files.items():
        with open(os.path.join(asg_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    missing = os.path.join(asg_dir, "missing.txt")
    if os.path.exists(missing):
        os.remove(missing)


def nearest_rank(values: list, q: float) -> float:
    """The smallest value with at least a share q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def balanced(passes: list, value) -> float:
    """The median of value over each variant's passes, averaged over the
    variants, so that every run weighs every variant alike."""
    by_variant: dict = {}
    for p in passes:
        by_variant.setdefault(p["variant"], []).append(p)
    return statistics.fmean(statistics.median(value(p) for p in ps) for ps in by_variant.values())


def end_to_end(passes: list, ops_of: list, setup_s: float, rss_mb: float) -> dict:
    """wall_s, ops_per_s and p99 are taken per pass, p50 over the pooled
    latencies of a variant's passes; each is a balanced median."""
    by_variant: dict = {}
    for p in passes:
        by_variant.setdefault(p["variant"], []).extend(p["lat"])
    p50 = statistics.fmean(statistics.median(lat) for lat in by_variant.values())
    return {
        "setup_s": setup_s,
        "wall_s": balanced(passes, lambda p: p["wall"]),
        "ops_per_s": balanced(passes, lambda p: ops_of[p["variant"]] / p["wall"]),
        "latency_ms.p50": p50 * 1000,
        "latency_ms.p99": balanced(passes, lambda p: nearest_rank(p["lat"], 0.99)) * 1000,
        "peak_rss_mb": rss_mb,
    }


def hit_frac(p: dict, name: str) -> float:
    ci = p["cache"].get(name)
    total = (ci.hits + ci.misses) if ci else 0
    return ci.hits / total if total else 0.0


def per_layer(passes: list, untraced: list) -> dict:
    keys = passes[0]["layers"].keys()
    out = {k: balanced(passes, lambda p, k=k: p["layers"][k]) for k in keys}
    for name in ("theta_sym", "btheta_expansion"):
        out[f"symalg.{name}.hit_frac"] = balanced(passes, lambda p, n=name: hit_frac(p, n))
    out["render.stdout_bytes"] = balanced(passes, lambda p: sum(r[2] for r in p["results"]))
    # the untraced pass runs the first variant; compare like with like
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in passes if p["variant"] == 0)
                               - statistics.median(p["wall"] for p in untraced))
    return out


def run_workload(args) -> int:
    cli = load_engine()
    sys.path.insert(0, HERE)
    import workloads
    from tracing import Tracer

    t_setup = time.perf_counter()
    setup_s = measure_setup()
    variants, digests, counts = build_ops(args.workload, args.seed, workloads)
    probes = workloads.known_defect_probes() if args.workload == "cli-session" else []
    os.makedirs(OUT, exist_ok=True)
    asg_dir = os.path.join(OUT, f"asg-{os.getpid()}")
    write_assignments(workloads, asg_dir)
    for op in [op for ops in variants for op in ops] + probes:
        op["run_argv"] = [a.replace("{ASG}", asg_dir) for a in op["argv"]]
    caches = lru_caches()
    tracer = Tracer()
    tracer.assert_pristine()
    print(f"workload {args.workload}: seed {args.seed}, {len(variants)} variant(s) of "
          f"{len(variants[0])} operations per pass, "
          f"set-up {time.perf_counter() - t_setup:.2f} s", flush=True)

    start = time.perf_counter()
    warm = run_passes(cli, variants, caches, 0, start, limit=1)
    untraced = run_passes(cli, variants, caches, 0 if args.trace else args.seconds, start)
    tracer.assert_pristine()
    traced = []
    if args.trace:
        tracer.install()
        try:
            traced = run_passes(cli, variants, caches, args.seconds, start, tracer)
        finally:
            tracer.uninstall()
        tracer.assert_pristine()
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probed = [(op, call(cli, op["run_argv"])[0]) for op in probes]

    # ---- correctness, outside the timed region
    checker = Checker(args.workload, workloads, digests, counts)
    if digests is None and args.workload != "verify-sweep":
        print("integrity: the request pool no longer matches the recorded digests")
    weight = (lambda op: verify_cases(op, counts)) if args.workload == "verify-sweep" else (lambda op: 1)
    ops_of = [sum(weight(op) for op in ops) for ops in variants]
    attempted = failed = 0
    reasons: dict = {}
    for p in warm + untraced + traced:
        for op, (rc, digest, _, out) in zip(variants[p["variant"]], p["results"]):
            attempted += weight(op)
            bad = checker.problems(op, rc, digest, out)
            if bad:
                failed += weight(op)
                for b in bad:
                    tag = f"{op['kind']}: {b}"
                    reasons[tag] = reasons.get(tag, 0) + 1
    correct = (digests is not None or args.workload == "verify-sweep") and failed == 0
    for op, rc in probed:
        # the defect shows as this exception; a fix exits with the expected code
        state = {op["expect"]: "fixed", KNOWN_DEFECT: "still present"}.get(rc)
        print(f"known defect, sent once after timing: {op['kind']} request {op['key']} "
              f"exited {rc!r}, expected {op['expect']}: {state or 'unexpected'}")
        correct = correct and state is not None
    cleanup(asg_dir)

    mix: dict = {}
    for op in variants[0]:
        mix[op["kind"]] = mix.get(op["kind"], 0) + 1
    print("operation mix per pass: " + ", ".join(f"{k} {v}" for k, v in mix.items()))
    print(f"passes: 1 warm-up, {len(untraced)} untraced, {len(traced)} traced; "
          f"latency samples: {sum(len(p['lat']) for p in untraced)}")
    print(f"oracle: {sum(checker.oracle_done.values())} of {len(checker.oracle_done)} "
          f"distinct requests agree with sympy (keys {sorted(checker.oracle_done)})")
    print(f"fail_frac: {failed / attempted:.6f} ({failed} of {attempted})")
    for tag, n in sorted(reasons.items()):
        print(f"  failed {n}x  {tag}")
    if traced and traced[0]["pinned"] is not None:
        pinned_report(traced[0]["pinned"])

    if args.trace:
        metrics = per_layer(traced, untraced)
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics = end_to_end(untraced, ops_of, setup_s, rss_mb)
        units = dict(END_TO_END)
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(".terms_out"):
        return "terms"
    return "count"


def pinned_report(agg: dict):
    """The traced numbers of the pinned Z8 request alone."""
    fr, dx = agg["symalg.frac_reduce"], agg["symalg.SymPoly.divexact"]
    print(f"pinned Z8 request: symalg.frac_reduce.divided_frac = {fr[2] / fr[3] if fr[3] else 0:g} "
          f"({fr[2]} of {fr[3]} denominator exponents divided out), "
          f"symalg.SymPoly.divexact.ok_frac = {dx[2] / dx[0] if dx[0] else 0:g} "
          f"({dx[2]} of {dx[0]} attempts, self time {dx[1] / 1e9:.3f} s)")


def cleanup(asg_dir: str):
    for name in os.listdir(asg_dir):
        os.remove(os.path.join(asg_dir, name))
    os.rmdir(asg_dir)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    rows, ok, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            rows[f"{workload}/{k}"] = v
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": rows}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
