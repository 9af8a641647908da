"""Monotone successive approximation for the radial integral system.

Starting from the constant central values, each sweep applies

    u_j <- beta_j + integral_0^r ( (1/H_j(t)) *
              integral_0^t H_j a_j f_j(u_1, .., u_d) ds )^(1/(p_j-1)) dt

in Gauss-Seidel order: u_j reads u_1 .. u_{j-1} from this sweep, the rest from
the last one.  The nested ratio is ``transforms.RadialKernel.ratio`` with f_j at
the iterate as its source, the same kernel whose f = 1 case is the barrier A_j.
For nondecreasing nonnegative nonlinearities the discrete operator preserves
order, so every value read lies between the last sweep's and the minimal fixed
point: the iterates are nondecreasing lower bounds of it, each at least the
Jacobi iterate of its sweep.  The loop stops when the sup-norm update falls
below the tolerance.

Verification is two-sided: the sandwich bounds built from the barrier and
growth-scale tables, and a residual pair (the integral-equation identity as
the primary check, a finite-difference form of the radial differential
operator as a secondary one).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .exprlang import evaluate_array
from .quadrature import RadialGrid, cumulative_trapezoid
from .transforms import (
    FInverseRangeError,
    NegativeCoefficientError,
    ProblemSpec,
    RadialKernel,
    TransformTables,
    eval_F,
    invert_F,
)

__all__ = [
    "CentralValues",
    "IterateDecreaseError",
    "IterateOverflowError",
    "SolutionBundle",
    "VerificationReport",
    "iterate",
    "verify_bounds",
    "residual",
    "verify_solution",
]

# raw nodewise dips beyond this relative size indicate a broken operator, not rounding
_MONOTONE_SLACK = 1e-12
# the ODE residual is judged on [margin, R - margin], to this multiple of h * (1 + sup |rhs|)
_ODE_WINDOW_MARGIN = 0.1
_ODE_TOL_FACTOR = 10.0


class IterateOverflowError(ArithmeticError):
    """An iterate left the floating-point range before the horizon: the solution
    blows up, or outgrows the largest double, at or before the radius named."""


class IterateDecreaseError(RuntimeError):
    """A sweep lowered the iterate beyond rounding: the operator is not monotone here,
    as when an f_j decreases, so the iteration proves nothing."""


@dataclass(frozen=True)
class CentralValues:
    """Prescribed values of the components at r = 0, all positive."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("need at least one central value")
        if any(not (np.isfinite(b) and b > 0) for b in self.values):
            raise ValueError("central values must be positive and finite")

    @classmethod
    def uniform(cls, beta: float, d: int) -> "CentralValues":
        return cls((float(beta),) * d)

    @property
    def is_uniform(self) -> bool:
        return all(b == self.values[0] for b in self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SolutionBundle:
    """Converged (or flagged) iterates, u_j as an array over the grid nodes,
    plus iteration diagnostics."""

    grid: RadialGrid
    central: CentralValues
    u: tuple[np.ndarray, ...]
    iterations: int
    final_update: float
    converged: bool
    tolerance: float
    monotone_iterates: bool
    L_estimate: float


def _f_at(spec: ProblemSpec, u: Sequence[np.ndarray], j: int) -> np.ndarray:
    env = {f"u{i + 1}": u[i] for i in range(spec.d)}
    return NegativeCoefficientError.check(evaluate_array(spec.f[j], env), f"f[{j}]", u)


def _operator(spec: ProblemSpec, kernel: RadialKernel, u: Sequence[np.ndarray],
              central: CentralValues, j: int) -> np.ndarray:
    """Component j of the integral operator at the iterate ``u``, on ``kernel``."""
    return central.values[j] + cumulative_trapezoid(kernel.nodes, kernel.ratio(_f_at(spec, u, j)))


def iterate(spec: ProblemSpec, grid: RadialGrid, central: CentralValues,
            tol: float = 1e-10, max_iter: int = 10_000,
            kernels: Sequence[RadialKernel] | None = None) -> SolutionBundle:
    """Run the monotone iteration until the sup-norm update is at most ``tol``,
    on the components' ``kernels`` on ``grid`` (built here when not given).

    A sweep updates u_1 .. u_d in turn, each reading the components before it
    from this sweep; ``iterations`` counts whole sweeps.  For a nondecreasing f the
    iterates are nondecreasing lower bounds of the minimal fixed point; a raw
    nodewise dip beyond rounding raises ``IterateDecreaseError`` (a decreasing
    f_j, or a broken kernel).  A component that leaves a value inf or NaN raises
    ``IterateOverflowError`` naming the sweep and its first such node, before a
    later component reads it.
    Hitting ``max_iter`` returns a bundle flagged as non-converged (no fixed
    point found at this tolerance), which is a report outcome, not evidence
    of non-existence.
    """
    if len(central) != spec.d:
        raise ValueError(f"expected {spec.d} central values, got {len(central)}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    kernels = kernels or [RadialKernel(spec, j, grid.nodes) for j in range(spec.d)]
    u = [np.full(len(grid), b) for b in central.values]
    iterations = 0
    update = np.inf
    worst_dip = 0.0
    while iterations < max_iter:
        iterations += 1
        u_next = list(u)
        steps = []  # per component: its least and greatest step
        for j, k in enumerate(kernels):
            with np.errstate(over="ignore", invalid="ignore"):  # caught just below
                x = _operator(spec, k, u_next, central, j)
                # a finite sum means finite values; only a non-finite one needs the exact scan
                scan = not np.isfinite(np.add.reduce(x, axis=None))
            if scan and (bad := ~np.isfinite(x)).any():
                r = float(grid.nodes[int(np.argmax(bad))])
                raise IterateOverflowError(
                    f"iterate not finite at sweep {iterations} near r = {r:g}; "
                    "the solution leaves the floating-point range before the horizon")
            step = x - u[j]
            steps.append((float(step.min()), float(step.max())))
            del step  # not held through the next component's operator
            # keep the recorded sequence exactly nondecreasing (dips are rounding noise)
            u_next[j] = np.maximum(x, u[j], out=x)
        lows, highs = zip(*steps)
        dip = min(lows)
        worst_dip = min(worst_dip, dip)
        scale = 1.0 + max(float(np.max(np.abs(x))) for x in u_next)
        if dip < -_MONOTONE_SLACK * scale:
            raise IterateDecreaseError(
                f"iterate decreased by {-dip:g} at some node; the monotone structure is broken")
        update = max(max(highs), 0.0)  # the greatest step of this sweep over the last
        u = u_next
        if update <= tol:
            break
    converged = update <= tol
    total = np.sum(u, axis=0)
    return SolutionBundle(
        grid=grid,
        central=central,
        u=tuple(u),
        iterations=iterations,
        final_update=update,
        converged=converged,
        tolerance=tol,
        monotone_iterates=worst_dip >= -_MONOTONE_SLACK,
        L_estimate=float(np.max(total)),
    )


@dataclass(frozen=True)
class VerificationReport:
    """Signed margins for the sandwich bounds and the two residuals.

    Margins are violations: a bound margin is the worst amount by which the
    solution crosses the bound, a residual margin is the sup of the defect.
    ``passed`` requires every available margin to sit within its tolerance;
    sections that could not be evaluated are None with a reason recorded.
    """

    lower_margins: tuple[float, ...] | None = None
    upper_margins: tuple[float, ...] | None = None
    upper_reason: str = ""
    lower_curves: tuple[np.ndarray, ...] | None = None
    upper_curve: np.ndarray | None = None
    integral_residuals: tuple[float, ...] | None = None
    ode_residuals: tuple[float, ...] | None = None
    ode_window: tuple[float, float] | None = None
    bounds_tolerance: float = 1e-6  # a bound margin passes up to this violation
    integral_tolerance: float = np.nan
    ode_tolerance: float = np.nan
    converged: bool = True
    notes: tuple[str, ...] = ()

    @property
    def bounds_pass(self) -> bool | None:
        if self.lower_margins is None:
            return None
        ok = all(m <= self.bounds_tolerance for m in self.lower_margins)
        if self.upper_margins is not None:
            ok = ok and all(m <= self.bounds_tolerance for m in self.upper_margins)
        return ok

    @property
    def residual_pass(self) -> bool | None:
        if self.integral_residuals is None:
            return None
        ok = all(m <= self.integral_tolerance for m in self.integral_residuals)
        if self.ode_residuals is not None:
            ok = ok and all(m <= self.ode_tolerance for m in self.ode_residuals)
        return ok

    @property
    def passed(self) -> bool:
        parts = [p for p in (self.bounds_pass, self.residual_pass) if p is not None]
        return bool(parts) and all(parts) and self.converged


def verify_bounds(bundle: SolutionBundle, tables: TransformTables,
                  spec: ProblemSpec) -> VerificationReport:
    """Check the two-sided solution estimate at every grid node.

    Lower bound per component:  beta_j + f_j(beta)^(1/(p_j-1)) * A_j(r).
    Upper bound (uniform central values only):  the F-inverse of
    F(d*beta) + sum_j A_j(r), both by ``eval_F`` and ``invert_F`` on ``tables.F``,
    the one F quadrature (the Simpson sums of the F probe's layout, widened to 60
    octaves of the F anchor ``tables.probe.r_start``).  A central value with d*beta
    below that anchor, or a query beyond the table or a finite F limit, leaves the
    upper bound unevaluated with the reason recorded; a finite limit is exactly the
    feasibility boundary of the bounded-solution regime.
    """
    beta = bundle.central.values
    env = {f"u{i + 1}": np.asarray([beta[i]]) for i in range(spec.d)}
    notes: list[str] = []
    lower_curves = []
    lower_margins = []
    for j in range(spec.d):
        fbeta = float(NegativeCoefficientError.check(evaluate_array(spec.f[j], env),
                                                     f"f[{j}]", beta)[0])
        lb = beta[j] + fbeta ** (1.0 / (spec.p[j] - 1.0)) * tables.A[j]
        lower_curves.append(lb)
        lower_margins.append(float(np.max(lb - bundle.u[j])))

    upper_margins = None
    upper_curve = None
    upper_reason = ""
    if bundle.central.is_uniform:
        dbeta = spec.d * beta[0]
        if dbeta < (anchor := tables.probe.r_start):
            upper_reason = (f"d*beta = {dbeta:g} is below the F anchor {anchor:g}; "
                            "upper bound not evaluable")
        else:
            try:
                y0 = float(eval_F(tables.F, dbeta))
                ys = y0 + np.sum(tables.A, axis=0)
                ub = invert_F(tables.F, ys, tables.F_inf)
                upper_curve = ub
                upper_margins = tuple(float(np.max(bundle.u[j] - ub))
                                      for j in range(spec.d))
            except FInverseRangeError as err:
                upper_reason = f"upper bound not evaluable: {err}"
    else:
        upper_reason = "upper bound is stated for uniform central values only; skipped"
    if upper_reason:
        notes.append(upper_reason)

    return VerificationReport(
        lower_margins=tuple(lower_margins),
        upper_margins=upper_margins,
        upper_reason=upper_reason,
        lower_curves=tuple(lower_curves),
        upper_curve=upper_curve,
        converged=bundle.converged,
        notes=tuple(notes),
    )


def residual(bundle: SolutionBundle, spec: ProblemSpec,
             kernels: Sequence[RadialKernel] | None = None) -> VerificationReport:
    """Defect of the stored solution against the equations it should satisfy.

    The primary check recomputes the right side of the integral system from
    the stored components; for a converged fixed point its sup defect is a
    small multiple of the stopping tolerance.  The secondary check forms the
    radial differential operator with centered differences, which is first
    order at best, and is judged only away from the endpoints (the kernel is
    not smooth at the origin for p < 2).  A non-converged bundle still gets a
    report; the gap is simply carried as-is.  ``kernels`` are as for ``iterate``.
    Both checks go one component at a time and drop each temporary once used, so
    at most one component's operator value or ODE terms are held at once.
    """
    kernels = kernels or [RadialKernel(spec, j, bundle.grid.nodes) for j in range(spec.d)]
    u = bundle.u
    integral_residuals = tuple(
        float(np.max(np.abs(u[j] - _operator(spec, k, u, bundle.central, j))))
        for j, k in enumerate(kernels))

    r = bundle.grid.nodes
    hstep = bundle.grid.spacing
    lo, hi = _ODE_WINDOW_MARGIN, bundle.grid.horizon - _ODE_WINDOW_MARGIN
    window = (r >= lo) & (r <= hi) & (r > 0) & (r < bundle.grid.horizon)  # interior nodes
    ode_residuals = []
    rhs_scale = 0.0
    for j, kernel in enumerate(kernels):
        du = np.gradient(u[j], hstep)
        flux = kernel.H * np.sign(du) * np.abs(du) ** (spec.p[j] - 1.0)
        del du
        dflux = np.gradient(flux, hstep)[window]
        del flux
        rhs = evaluate_array(spec.a[j], {"r": r}) * _f_at(spec, u, j)
        rhs_scale = max(rhs_scale, float(np.max(np.abs(rhs))))
        inside = np.abs(dflux / kernel.H[window] - rhs[window])
        ode_residuals.append(float(np.nanmax(inside)) if inside.size else 0.0)

    return VerificationReport(
        integral_residuals=integral_residuals,
        ode_residuals=tuple(ode_residuals),
        ode_window=(lo, hi),
        integral_tolerance=10.0 * bundle.tolerance,
        ode_tolerance=_ODE_TOL_FACTOR * hstep * (1.0 + rhs_scale),
        converged=bundle.converged,
        notes=() if bundle.converged else
        ("bundle is not converged; residuals describe the gap, not a solution",),
    )


def verify_solution(bundle: SolutionBundle, tables: TransformTables,
                    spec: ProblemSpec) -> VerificationReport:
    """Bounds and residual checks in one report.  The residual runs first, so its
    temporaries are gone before the bound curves are built; an error of
    ``verify_bounds`` still comes before one of the residual's."""
    try:
        res = residual(bundle, spec, kernels=tables.kernels)
    except Exception:
        verify_bounds(bundle, tables, spec)  # raises its own error first, if it has one
        raise
    bounds = verify_bounds(bundle, tables, spec)
    return replace(bounds, integral_residuals=res.integral_residuals,
                   ode_residuals=res.ode_residuals, ode_window=res.ode_window,
                   integral_tolerance=res.integral_tolerance,
                   ode_tolerance=res.ode_tolerance, notes=bounds.notes + res.notes)
