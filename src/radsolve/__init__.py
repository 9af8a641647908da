"""radsolve: monotone-iteration solver and classifier for radial quasilinear
elliptic systems with gradient terms.

The public surface mirrors the internal layering: the expression language
(`exprlang`), the quadrature and probing layer (`quadrature`), the transform
tables (`transforms`), the fixed-point solver with verification (`solver`),
the theorem classifier (`conditions`), and the config-driven CLI (`cli`).
"""

__version__ = "0.1.0"

from .exprlang import Expr, EvalError, ParseError, evaluate, evaluate_array, parse, unparse
from .quadrature import DivergenceVerdict, GridFunction, ProbeConfig, RadialGrid, probe_divergence
from .transforms import (FInverseRangeError, ProblemSpec, TransformTables, build_A, build_F,
                         build_transform_tables, estimate_A_inf, estimate_F_inf, eval_F)
from .solver import (CentralValues, SolutionBundle, VerificationReport, iterate, residual,
                     verify_bounds, verify_solution)
from .conditions import (Classification, ClassifierConfig, ConditionVerdict, LairInstance,
                         check_keller_osserman, check_lair_proposition,
                         check_remark_implications, check_sublinearity, check_sup_bounded,
                         check_C6, check_ye_zhou, classify, match_lair_form)

__all__ = [
    "__version__",
    "Expr", "EvalError", "ParseError", "evaluate", "evaluate_array", "parse", "unparse",
    "DivergenceVerdict", "GridFunction", "ProbeConfig", "RadialGrid",
    "probe_divergence",
    "FInverseRangeError", "ProblemSpec", "TransformTables",
    "build_A", "build_F", "build_transform_tables",
    "estimate_A_inf", "estimate_F_inf", "eval_F",
    "CentralValues", "SolutionBundle", "VerificationReport",
    "iterate", "residual", "verify_bounds", "verify_solution",
    "Classification", "ClassifierConfig", "ConditionVerdict", "LairInstance",
    "check_keller_osserman", "check_lair_proposition", "check_remark_implications",
    "check_sublinearity", "check_sup_bounded", "check_C6", "check_ye_zhou",
    "classify", "match_lair_form",
]
