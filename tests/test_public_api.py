"""The package's public surface: the names it exports, and the README's
Python API example, which is written against them."""

import ast
import pathlib
import re

import pytest

import equibord

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

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
