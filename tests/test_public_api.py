"""The package's public surface: the names it exports, and the README's
Python API example, which is written against them."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import equibord
from equibord import verify

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# the names the package reads from equibord.verify on first use
VERIFY_NAMES = ["Report", "SweepConfig", "default_config", "load_config", "run_suite"]

PUBLIC = [
    "AbelianGroup",
    "BExpr",
    "Character",
    "CoeffPoly",
    "EngineError",
    "ExprContext",
    "Flag",
    "LocFraction",
    "MismatchError",
    "PreconditionError",
    "ProjClass",
    "Report",
    "Representation",
    "SpecParseError",
    "SweepConfig",
    "SymPoly",
    "aug",
    "btheta_expansion",
    "coaug",
    "coaug_via_duality",
    "default_config",
    "euler_class",
    "eval_expression",
    "expand_b",
    "frac_eq",
    "frac_reduce",
    "load_config",
    "parse_character",
    "parse_flag",
    "parse_group",
    "presentation",
    "retract",
    "run_suite",
    "theta_mul",
    "theta_sym",
    "to_b_generators",
    "to_c_generators",
]


def test_all_is_the_decided_surface():
    assert sorted(equibord.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(equibord, name)


@pytest.mark.parametrize("name", VERIFY_NAMES)
def test_verify_names_are_the_verify_objects(name):
    assert getattr(equibord, name) is getattr(verify, name)
    assert name in dir(equibord)
    namespace: dict = {}
    exec(f"from equibord import {name}", namespace)
    assert namespace[name] is getattr(verify, name)


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from equibord import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_start_path_loads_neither_the_sweeps_nor_dataclasses():
    # the command line imports only what some command other than verify
    # runs; inspect is not checked, as CPython 3.13 loads it on its own
    code = (
        "import sys, equibord.cli as c; c.build_parser(); "
        "print(sorted({'equibord.verify', 'dataclasses'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(equibord, "nope")


@pytest.mark.parametrize("name", ["pairing", "parse_representation", "mup_normal_form"])
def test_removed_names_do_not_import(name):
    with pytest.raises(ImportError):
        exec(f"from equibord import {name}", {})


def test_readme_python_blocks_run():
    """Run the README's python blocks in order in one namespace; a bare
    expression followed by a literal comment must evaluate to that literal."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            code, sep, comment = line.partition("  # ")
            if sep and isinstance(ast.parse(code.strip()).body[0], ast.Expr):
                assert eval(code, namespace) == ast.literal_eval(comment.strip()), line
