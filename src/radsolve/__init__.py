"""radsolve: monotone-iteration solver and classifier for radial quasilinear
elliptic systems with gradient terms.

The layers are the expression language (`exprlang`), the quadrature and
probing layer (`quadrature`), the transform tables (`transforms`), the
fixed-point solver with verification (`solver`), the theorem classifier
(`conditions`), and the config-driven CLI (`cli`).  The package re-exports
the names its scripts use; everything else is imported from its module.
"""

__version__ = "0.1.0"

from .exprlang import parse
from .quadrature import RadialGrid
from .transforms import ProblemSpec, build_A
from .solver import CentralValues, iterate
from .conditions import (LairInstance, check_keller_osserman, check_lair_proposition,
                         check_ye_zhou, classify)

__all__ = [
    "__version__", "parse", "RadialGrid", "ProblemSpec", "build_A", "CentralValues", "iterate",
    "LairInstance", "check_keller_osserman", "check_lair_proposition", "check_ye_zhou",
    "classify",
]
