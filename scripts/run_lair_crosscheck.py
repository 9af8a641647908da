#!/usr/bin/env python3
"""Cross-check the nested-integral explosion criterion against the solver.

For the two-component pure-Laplacian system with cross power couplings the
criterion predicts an explosive (entire large) solution exactly when both
nested tail integrals diverge.  The check here solves the same instance on a
horizon and on its double and reports the growth against the barrier
increment, the witness the prediction should agree with.
"""

import numpy as np

from radsolve import (
    CentralValues,
    LairInstance,
    ProblemSpec,
    RadialGrid,
    build_A,
    check_lair_proposition,
    iterate,
    parse,
)


def crosscheck(a1: str, a2: str, label: str) -> None:
    inst = LairInstance(parse(a1, "radial"), parse(a2, "radial"), 1.0, 1.0, 3)
    v1, v2 = check_lair_proposition(inst)
    predicted = v1.verdict == "diverges" and v2.verdict == "diverges"
    print(f"{label}: probes ({v1.verdict}, {v2.verdict}) -> "
          f"explosive predicted: {predicted}")

    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], [a1, a2],
                                    ["u2", "u1"])
    central = CentralValues.uniform(1.0, 2)
    R, M = 2.5, 250
    small = iterate(spec, RadialGrid(R, M), central, tol=1e-10)
    big = iterate(spec, RadialGrid(2 * R, 2 * M), central, tol=1e-10)
    for j in range(2):
        A = build_A(spec, big.grid, j)
        floor = A[-1] - A[M]
        actual = big.u[j][-1] - small.u[j][-1]
        print(f"  component {j + 1}: growth over [R, 2R] = {actual:.4f}, "
              f"barrier increment = {floor:.4f}, witness "
              f"{'ok' if actual >= floor - 1e-6 else 'VIOLATED'}")
    print()


def main() -> None:
    crosscheck("1", "1", "flat coefficients")
    crosscheck("(1+r)^(-6)", "(1+r)^(-6)", "strongly decaying coefficients")


if __name__ == "__main__":
    main()
