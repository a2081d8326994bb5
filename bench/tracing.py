"""Per-layer tracing from outside the engine.

The tracer wraps public functions and methods of the engine's modules while
a traced pass runs and restores the originals afterwards.  A function is
rebound everywhere the package holds it: the defining class or module,
every ``from ... import`` copy in the other modules, tuples of functions
(``verify.ALL_CHECKS``) and default-argument values
(``coaug_via_duality(..., augmentation=aug)``).

Each wrapped call adds to its metric's call count and self time (its
duration minus the durations of the wrapped calls beneath it).  Calls at
layer boundaries also keep a span in memory: (name, start_ns, end_ns,
span id, parent span id, operation id); the spans of the last traced pass
are written out when the run ends.  The hot inner calls (multiplication,
powers, exact division, specialization, rendering, augmentation values,
twisting) are aggregated in place without spans, and the two hottest
constructors, ``Character`` and ``CoeffPoly``, are only counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# metric name, module, qualified name, mode ("count", "agg" or "span"), extra
TARGETS = (
    ("groups.Character.new", "groups", "Character.__init__", "count", None),
    ("groups.Representation.tensor", "groups", "Representation.tensor", "agg", None),
    ("flags.aug", "flags", "aug", "agg", None),
    ("flags.coaug", "flags", "coaug", "span", None),
    ("flags.coaug_via_duality", "flags", "coaug_via_duality", "span", None),
    ("coeff.CoeffPoly.new", "coeff", "CoeffPoly.__init__", "count", None),
    ("coeff.CoeffPoly.mul", "coeff", "CoeffPoly.__mul__", "agg", "coeff_terms"),
    ("coeff.CoeffPoly.specialize", "coeff", "CoeffPoly.specialize", "agg", None),
    ("coeff.CoeffPoly.divexact", "coeff", "CoeffPoly.divexact", "agg", None),
    ("symalg.SymPoly.mul", "symalg", "SymPoly.__mul__", "agg", "sym_terms"),
    ("symalg.SymPoly.pow", "symalg", "SymPoly.__pow__", "agg", None),
    ("symalg.SymPoly.divexact", "symalg", "SymPoly.divexact", "agg", "ok"),
    ("symalg.LocFraction.add", "symalg", "LocFraction.__add__", "span", None),
    ("symalg.frac_eq", "symalg", "frac_eq", "span", None),
    ("symalg.frac_reduce", "symalg", "frac_reduce", "span", "divided"),
    ("symalg.to_b_generators", "symalg", "to_b_generators", "span", None),
    ("symalg.expand_b", "symalg", "expand_b", "span", None),
    ("symalg.BExpr.mul", "symalg", "BExpr.__mul__", "agg", None),
    ("symalg.presentation", "symalg", "presentation", "span", None),
    ("exprs.eval_expression", "exprs", "eval_expression", "span", None),
    ("exprs.describe_value", "exprs", "describe_value", "span", None),
    ("cli.main", "cli", "main", "span", None),
) + tuple(
    ("render.str", mod, f"{cls}.__str__", "agg", None)
    for mod, cls in (("coeff", "CoeffPoly"), ("flags", "ProjClass"), ("symalg", "SymPoly"),
                     ("symalg", "LocFraction"), ("symalg", "BExpr"))
) + tuple(
    ("render.to_json", mod, f"{cls}.to_json", "agg", None)
    for mod, cls in (("coeff", "CoeffPoly"), ("flags", "ProjClass"), ("symalg", "SymPoly"),
                     ("symalg", "LocFraction"), ("symalg", "BExpr"))
) + tuple(
    (f"verify.{name}", "verify", name, "span", "cases")
    for name in ("check_coaug_duality", "check_mutation_sensitivity", "check_periodicity",
                 "check_retraction", "check_rewrite_roundtrip", "check_specialization_collapse")
)

PACKAGE = "equibord"
MODULES = ("groups", "coeff", "flags", "symalg", "exprs", "render", "verify", "cli")


def _extra(kind):
    """Post-call hook filling the third and fourth aggregate slots."""
    if kind == "coeff_terms":
        def post(agg, args, result):
            agg[2] += len(result.terms)
    elif kind == "sym_terms":
        def post(agg, args, result):
            agg[2] += sum(len(c.terms) for c in result.terms.values())
    elif kind == "ok":
        def post(agg, args, result):
            agg[2] += result is not None
    elif kind == "divided":
        def post(agg, args, result):
            present = sum(args[0].denom.values())
            agg[2] += present - sum(result.denom.values())
            agg[3] += present
    elif kind == "cases":
        def post(agg, args, result):
            agg[2] += result.cases
    else:
        post = None
    return post


class Tracer:
    """Resolves the wrap targets once; installs and removes the wrappers."""

    def __init__(self):
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        owners = [importlib.import_module(PACKAGE), *modules]
        for mod in modules:
            owners += [v for v in vars(mod).values()
                       if inspect.isclass(v) and v.__module__ == mod.__name__]
        self.agg: dict = {}
        self.stack: list = []
        self.span_stack: list = []
        self.spans: list = []
        self.op = -1
        self._next_span = 0
        self._undo: list = []
        # (metric, mode, extra, original) for every target, plus every place
        # in the package that holds each original
        self.targets = []
        for metric, mod, qual, mode, extra in TARGETS:
            obj = importlib.import_module(f"{PACKAGE}.{mod}")
            for part in qual.split("."):
                obj = vars(obj)[part]
            self.targets.append((metric, mode, extra, obj))
            self.agg.setdefault(metric, [0, 0, 0, 0])
        self.counted = {t[0] for t in self.targets if t[1] == "count"}
        self.bindings = self._find_bindings(owners, {id(t[3]) for t in self.targets})

    @staticmethod
    def _find_bindings(owners: list, originals: set) -> list:
        """Every (kind, holder, key, original) slot that holds a target."""
        out = []
        seen = set()
        for owner in owners:
            for key, val in list(vars(owner).items()):
                if id(val) in originals:
                    out.append(("attr", owner, key, val))
                elif isinstance(val, tuple) and any(id(v) in originals for v in val):
                    out.append(("tuple", owner, key, val))
                fn = getattr(val, "__func__", val)
                defaults = getattr(fn, "__defaults__", None) if inspect.isfunction(fn) else None
                if defaults and any(id(v) in originals for v in defaults) and id(fn) not in seen:
                    seen.add(id(fn))
                    out.append(("defaults", fn, "__defaults__", defaults))
        return out

    # ------------------------------------------------------------------

    def _wrap(self, metric: str, mode: str, extra, fn):
        agg = self.agg[metric]
        if mode == "count":
            def counted(*args, **kwargs):
                agg[0] += 1
                return fn(*args, **kwargs)
            counted.__bench_wrapper__ = True
            return counted
        post = _extra(extra)
        stack, span_stack, spans = self.stack, self.span_stack, self.spans
        clock = time.perf_counter_ns
        keep = mode == "span"
        tracer = self

        def timed(*args, **kwargs):
            frame = [0]
            if keep:
                sid = tracer._next_span
                tracer._next_span += 1
                parent = span_stack[-1] if span_stack else -1
                span_stack.append(sid)
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                # a binary operator that defers to the other operand did no work
                agg[0] += result is not NotImplemented
                agg[1] += dur - frame[0]
                if keep:
                    span_stack.pop()
                    spans.append((metric, t0, t1, sid, parent, tracer.op))
            if post is not None and result is not NotImplemented:
                post(agg, args, result)
            return result

        functools.update_wrapper(timed, fn)  # run_suite orders checks by __name__
        timed.__bench_wrapper__ = True
        return timed

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {id(orig): self._wrap(metric, mode, extra, orig)
                    for metric, mode, extra, orig in self.targets}
        for kind, holder, key, val in self.bindings:
            if kind == "attr":
                new = wrappers[id(val)]
            else:
                new = tuple(wrappers.get(id(v), v) for v in val)
            setattr(holder, key, new)
            self._undo.append((holder, key, val))

    def uninstall(self):
        for holder, key, val in reversed(self._undo):
            setattr(holder, key, val)
        self._undo.clear()

    def assert_pristine(self):
        """Every wrapped slot holds the engine's original object."""
        for kind, holder, key, val in self.bindings:
            now = getattr(holder, key)
            if now is not val:
                raise AssertionError(f"{getattr(holder, '__name__', holder)}.{key} is patched")
            items = now if isinstance(now, tuple) else (now,)
            if any(getattr(v, "__bench_wrapper__", False) for v in items):
                raise AssertionError(f"{getattr(holder, '__name__', holder)}.{key} is a wrapper")

    # ------------------------------------------------------------------

    def reset(self):
        """Start a pass: zero the aggregates and drop the previous pass's spans."""
        for agg in self.agg.values():
            agg[:] = [0, 0, 0, 0]
        self.spans.clear()

    def metrics(self) -> dict:
        """Per-layer numbers for the calls since the last reset."""
        a = self.agg
        out = {}
        for metric in sorted(a):
            calls, self_ns = a[metric][0], a[metric][1]
            out[f"{metric}.calls"] = calls
            if metric not in self.counted:
                out[f"{metric}.self_s"] = self_ns / 1e9
        out["coeff.CoeffPoly.mul.terms_out"] = a["coeff.CoeffPoly.mul"][2]
        out["symalg.SymPoly.mul.terms_out"] = a["symalg.SymPoly.mul"][2]
        out["symalg.SymPoly.divexact.ok_frac"] = _ratio(a["symalg.SymPoly.divexact"][2],
                                                        a["symalg.SymPoly.divexact"][0])
        out["symalg.frac_reduce.divided_frac"] = _ratio(a["symalg.frac_reduce"][2],
                                                        a["symalg.frac_reduce"][3])
        for metric in a:
            if metric.startswith("verify."):
                out[f"{metric}.cases"] = a[metric][2]
        return out

    def snapshot(self) -> dict:
        return {k: list(v) for k, v in self.agg.items()}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, sid, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1, "id": sid,
                                     "parent": parent, "op": op}) + "\n")


def _ratio(num: int, den: int) -> float:
    """num / den, read as 0 when nothing was attempted."""
    return num / den if den else 0.0
