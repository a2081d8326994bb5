"""Exact graded-ring engine over character flags of finite abelian groups.

The package builds, for a chosen group and flag of characters, the
coefficient ring of Euler symbols, the augmentation and coaugmentation
data of the flag, shifted symmetric algebras on the projective classes,
their localizations at coaugmentation classes, and the degree-zero
generator presentations, with every ring operation carried out exactly
over the integers.
"""

from .coeff import CoeffPoly, euler_class
from .errors import EngineError, MismatchError, PreconditionError, SpecParseError
from .exprs import ExprContext, eval_expression
from .flags import Flag, ProjClass, aug, coaug, coaug_via_duality, parse_flag
from .groups import AbelianGroup, Character, Representation, parse_character, parse_group
from .symalg import (
    BExpr,
    LocFraction,
    SymPoly,
    btheta_expansion,
    expand_b,
    frac_eq,
    frac_reduce,
    presentation,
    retract,
    theta_mul,
    theta_sym,
    to_b_generators,
    to_c_generators,
)

__version__ = "0.1.0"

__all__ = [
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

# The verify sweeps load on first use of one of these names, not with the
# package: every command but verify starts without compiling them (PEP 562).
_VERIFY_NAMES = ("Report", "SweepConfig", "default_config", "load_config", "run_suite")


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_VERIFY_NAMES})
