"""Localized arithmetic against bench/oracle.py.

The oracle is a sympy model that shares no code with the engine: its own
tokenizer, its own coaugmentation classes and the exact ring ZZ[beta, e].
It is loaded by path, so bench/ needs no package marker.
"""

import importlib.util
import pathlib
import random

import pytest

pytest.importorskip("sympy")

from equibord.flags import Flag
from equibord.groups import parse_group
from equibord.symalg import frac_eq, frac_reduce, to_b_generators, to_c_generators
from equibord.verify import _random_dim0_fraction

_ORACLE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("equibord_bench_oracle", _ORACLE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

GROUPS = ("Z2", "Z3", "Z4", "Z2xZ2")
# (theory, shift, generator rewrite): the routes of the rewrite round trip
ROUTES = (("MUP", -2, to_b_generators), ("mUP", 2, to_c_generators), ("MUP", 2, to_c_generators))
SAMPLES = 4


@pytest.mark.parametrize("mode, shift, rewrite", ROUTES, ids=lambda r: getattr(r, "__name__", r))
@pytest.mark.parametrize("gspec", GROUPS)
def test_engine_agrees_with_oracle(gspec, mode, shift, rewrite):
    group = parse_group(gspec)
    flag = Flag.cyclic(group, 4)
    model = oracle.Oracle(group.cyclic_orders, [c.residues for c in flag.chars])
    rng = random.Random(f"{gspec} {mode} {shift}")
    xs = [_random_dim0_fraction(rng, flag, shift, mode, 3) for _ in range(SAMPLES)]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        assert model.same_value(str(x + y), f"({x}) + ({y})")
        assert model.same_value(str(x * y), f"({x}) * ({y})")
        assert model.same_value(str(frac_reduce(x)), str(x))
        assert model.same_value(str(rewrite(x)), str(x))
        # an unequal pair (almost always) and an equal pair in another form
        for a, b in ((x, y), (x + y - y, x)):
            assert frac_eq(a, b) == model.same_value(str(a), str(b))
        assert frac_eq(x + y - y, x)
