"""The benchmark tracer still finds every function it wraps.

bench/tracing.py looks each target up by name in the engine's modules and
classes; a deleted, renamed or moved function would otherwise show up only
as a KeyError in every benchmark run.  It is loaded by path, as
tests/test_oracle.py loads bench/oracle.py, and never installed.
"""

import importlib.util
import pathlib

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("equibord_bench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_resolves_every_target():
    tracer = tracing.Tracer()
    assert len(tracer.targets) == len(tracing.TARGETS)
    assert {t[0] for t in tracer.targets} == {t[0] for t in tracing.TARGETS}
    # every original is held somewhere the tracer will rebind, and nothing is wrapped yet
    held = {id(b[3]) for b in tracer.bindings if b[0] == "attr"}
    assert all(id(t[3]) in held for t in tracer.targets)
    tracer.assert_pristine()
