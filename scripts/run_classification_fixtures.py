#!/usr/bin/env python3
"""Run the classifier over a small gallery of instances and print the verdicts.

Covers the three canonical single-component fixtures (growing source with a
linear nonlinearity, decaying source with linear and with cubic
nonlinearities) plus a saturating nonlinearity and a sublinear one, and shows
the classical blow-up tests alongside.
"""

from radsolve import ProblemSpec, check_keller_osserman, check_ye_zhou, classify
from radsolve.quadrature import ProbeConfig

FIXTURES = [
    ("flat source, linear f", ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1")),
    ("decaying source, linear f",
     ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^(-4)", "u1")),
    ("decaying source, cubic f",
     ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^(-4)", "u1^3")),
    ("flat source, sqrt f", ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1^0.5")),
    ("decaying source, saturating f",
     ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^(-4)", "u1/(1+u1)")),
]


def main() -> None:
    for name, spec in FIXTURES:
        f = spec.diagonals(ProbeConfig())  # sampled once, for the classifier and the tests
        c = classify(spec, (1.2,), ProbeConfig(), f)
        window = (f", beta window ({c.beta_window[0]:.4g}, {c.beta_window[1]:.4g})"
                  if c.beta_window else "")
        print(f"{name:35s} -> {c.theorem}{window}")
        conds = ", ".join(f"{k}={v.status}" for k, v in c.conditions.items())
        print(f"{'':35s}    {conds}")
        ko, yz = check_keller_osserman(f[0], spec.p[0]), check_ye_zhou(f[0], spec.p[0])
        print(f"{'':35s}    blow-up tests: primitive-root {ko.verdict}, "
              f"reciprocal {yz.verdict}")
        print()


if __name__ == "__main__":
    main()
