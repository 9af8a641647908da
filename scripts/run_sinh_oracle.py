#!/usr/bin/env python3
"""Solve the classic linear instance and compare against its closed form.

The instance Delta u = u on R^3 with u(0) = 1 has the radial solution
sinh(r)/r, which makes it the standard oracle for the whole pipeline:
iteration count, sup-norm error, and grid convergence order.
"""

import argparse
import time

import numpy as np

from radsolve import CentralValues, ProblemSpec, RadialGrid, iterate


def closed_form(r: np.ndarray) -> np.ndarray:
    out = np.ones_like(r)
    out[1:] = np.sinh(r[1:]) / r[1:]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--R", type=float, default=5.0)
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args()

    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1")
    print(f"horizon R = {args.R}, tol = {args.tol:g}")
    print(f"{'M':>6} {'iters':>6} {'time[s]':>8} {'rel sup err':>12} {'ratio':>7}")
    prev = None
    for M in (500, 1000, 2000, 4000):
        grid = RadialGrid(args.R, M)
        t0 = time.perf_counter()
        bundle = iterate(spec, grid, CentralValues.uniform(1.0, 1), tol=args.tol)
        dt = time.perf_counter() - t0
        exact = closed_form(grid.nodes)
        err = float(np.max(np.abs(bundle.u[0] - exact) / exact))
        ratio = f"{prev / err:7.2f}" if prev else "      -"
        print(f"{M:>6} {bundle.iterations:>6} {dt:>8.3f} {err:>12.3e} {ratio}")
        prev = err


if __name__ == "__main__":
    main()
