import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from radsolve.cli import load_config
from radsolve.quadrature import ProbeConfig, RadialGrid
from radsolve.solver import (CentralValues, IterateDecreaseError, IterateOverflowError,
                             SolutionBundle, _operator, iterate, residual, verify_bounds,
                             verify_solution)
from radsolve.transforms import (
    ProblemSpec,
    RadialKernel,
    build_A,
    build_transform_tables,
    eval_F,
    invert_F,
)

# frozen oracle checkpoints for the radial closed form sinh(r)/r, computed by
# power series at 30-digit precision
SINH_CHECKPOINTS = {1.0: 1.1752011936438014569,
                    2.5: 2.4200817924159149286,
                    5.0: 14.840642115557751795}


def series_sinh_over_r(r: np.ndarray, terms: int = 40) -> np.ndarray:
    """Independent series oracle for the sinh closed form (no solver, no numpy sinh)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    term = np.ones_like(r)
    fact = 1.0
    for k in range(terms):
        if k > 0:
            term = term * r * r
            fact *= (2 * k) * (2 * k + 1)
        out = out + term / fact
    return out


def test_series_oracle_matches_frozen_checkpoints():
    for r, val in SINH_CHECKPOINTS.items():
        assert series_sinh_over_r(np.array([r]))[0] == pytest.approx(val, rel=1e-14)


def linear_spec():
    return ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1")


def test_zero_nonlinearity_converges_immediately():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "0")
    grid = RadialGrid(3.0, 64)
    bundle = iterate(spec, grid, CentralValues.uniform(2.5, 1))
    assert bundle.converged
    assert bundle.iterations == 1
    assert np.all(bundle.u[0] == 2.5)


@pytest.mark.parametrize("p", [1.6, 2.0, 3.0])
def test_constant_nonlinearity_fixed_point_is_the_lower_sandwich_curve(p):
    # with f = c the operator's kernel is c^(1/(p-1)) times the barrier's, so the
    # fixed point is beta + c^(1/(p-1)) * A exactly; the lower bound relies on it
    c, beta = 1.7, 0.9
    spec = ProblemSpec.from_strings(4, 1, p, "0.4/(1+r)", "1 + r^2", repr(c))
    grid = RadialGrid(2.0, 400)
    bundle = iterate(spec, grid, CentralValues.uniform(beta, 1), tol=1e-13)
    assert bundle.converged
    lower = beta + c ** (1.0 / (p - 1.0)) * build_A(spec, grid, 0)
    assert np.max(np.abs(bundle.u[0] - lower) / lower) < 1e-12
    tables = build_transform_tables(spec, grid, ProbeConfig(horizon_count=6))
    report = verify_bounds(bundle, tables, spec)
    assert np.array_equal(report.lower_curves[0], lower)


def test_sinh_oracle_medium_grid():
    grid = RadialGrid(5.0, 1000)
    bundle = iterate(linear_spec(), grid, CentralValues.uniform(1.0, 1), tol=1e-10)
    assert bundle.converged
    exact = series_sinh_over_r(grid.nodes)
    rel = np.max(np.abs(bundle.u[0] - exact) / exact)
    assert rel < 1e-4
    assert bundle.u[0][0] == 1.0


def test_symmetric_pair_reduces_to_the_scalar_oracle():
    # in Gauss-Seidel order the pair f = (u2, u1) runs the scalar iteration of
    # f = u1 twice per sweep: after k sweeps u_1 is its iterate after 2k - 1
    # sweeps and u_2 its iterate after 2k, bit for bit
    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"],
                                    ["u2", "u1"])
    grid = RadialGrid(5.0, 1000)

    def scalar(sweeps):
        return iterate(linear_spec(), grid, CentralValues.uniform(1.0, 1), tol=1e-300,
                       max_iter=sweeps).u[0]

    for k in range(1, 6):
        bundle = iterate(spec, grid, CentralValues.uniform(1.0, 2), tol=1e-300, max_iter=k)
        assert bundle.iterations == k
        assert np.array_equal(bundle.u[0], scalar(2 * k - 1))
        assert np.array_equal(bundle.u[1], scalar(2 * k))
    bundle = iterate(spec, grid, CentralValues.uniform(1.0, 2), tol=1e-10)
    assert bundle.converged and bundle.iterations == 8
    assert np.array_equal(bundle.u[0], scalar(15)) and np.array_equal(bundle.u[1], scalar(16))
    exact = series_sinh_over_r(grid.nodes)
    for x in bundle.u:
        assert np.max(np.abs(x - exact) / exact) < 1e-4


def stress_instance():
    """The benchmark's d = 3 stress instance on M = 20000 (one grid array is 0.15 MB)."""
    spec = ProblemSpec.from_strings(3, 3, [2.0, 2.5, 1.6], ["0.5/(1+r)", "0.1", "0.2*exp(-r)"],
                                    ["4", "4", "exp(-r)"],
                                    ["u2 + sqrt(u3)", "0.5*u1 + sqrt(u3)", "0.2*u1 + sqrt(u2)"])
    return spec, RadialGrid(20.0, 20000), CentralValues((1.0, 1.5, 2.0))


def jacobi_sweeps(spec, grid, central, max_iter=100):
    """The monotone iteration in Jacobi order, every component reading the last
    sweep's iterate, clamped as ``iterate`` clamps: yields each sweep's iterate and
    its greatest step."""
    kernels = [RadialKernel(spec, j, grid.nodes) for j in range(spec.d)]
    u = [np.full(len(grid), b) for b in central.values]
    for _ in range(max_iter):
        nxt = [np.maximum(_operator(spec, k, u, central, j), u[j]) for j, k in enumerate(kernels)]
        update = max(float(np.max(x - y)) for x, y in zip(nxt, u))
        u = nxt
        yield u, update


def _coupled_sweep_cases():
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "coupled_sweep.json")
    return [(cfg.spec, cfg.grid, beta, 7, 12) for beta in cfg.betas]


@pytest.mark.parametrize("spec, grid, central, sweeps, jacobi",
                         [(*stress_instance(), 15, 28), *_coupled_sweep_cases()],
                         ids=["stress", "coupled_beta_1", "coupled_beta_1.5", "coupled_beta_2"])
def test_gauss_seidel_sweeps_dominate_the_jacobi_sweeps(spec, grid, central, sweeps, jacobi):
    # both orders rise from the central values to the same minimal fixed point;
    # the Gauss-Seidel iterate is at least the Jacobi one after every sweep
    # (Pao's comparison of monotone iterations), and gets there in fewer sweeps
    tol = 1e-10
    reference = jacobi_sweeps(spec, grid, central)
    for k in range(1, 12):
        ref, _ = next(reference)
        got = iterate(spec, grid, central, tol=1e-300, max_iter=k)
        assert got.iterations == k or got.final_update == 0.0  # an exact fixed point stops
        assert all(np.all(x >= y) for x, y in zip(got.u, ref))
    for k, (ref, update) in enumerate(reference, start=12):
        if update <= tol:
            break
    assert k == jacobi
    bundle = iterate(spec, grid, central, tol=tol)
    assert bundle.converged and bundle.iterations == sweeps
    assert max(float(np.max(np.abs(x - y))) for x, y in zip(bundle.u, ref)) <= 10 * tol


def test_iterates_and_solution_are_monotone():
    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.5], ["0.1", "0"], ["1", "exp(-r)"],
                                    ["u1 + u2", "u1*u2"])
    grid = RadialGrid(1.5, 128)
    bundle = iterate(spec, grid, CentralValues.uniform(0.8, 2), tol=1e-9)
    assert bundle.converged
    assert bundle.monotone_iterates
    for g in bundle.u:
        assert np.all(np.diff(g) >= 0.0)
        assert g[0] == 0.8


def test_non_convergence_is_flagged_not_raised():
    grid = RadialGrid(5.0, 256)
    bundle = iterate(linear_spec(), grid, CentralValues.uniform(1.0, 1),
                     tol=1e-12, max_iter=3)
    assert not bundle.converged
    assert bundle.iterations == 3
    rep = residual(bundle, linear_spec())
    assert any("not converged" in n for n in rep.notes)


def test_an_overflowing_iterate_raises_at_its_first_non_finite_sweep():
    # beta * sinh(r)/r leaves the double range beyond r = 717, inside R = 800:
    # the iterates overflow on their way up, and iterate names the first sweep
    # and node where one does instead of sweeping on over inf and NaN.  In the
    # pair, u_1 overflows first, and the sweep stops before f_2 = 0.5*u1 reads it
    grid = RadialGrid(800.0, 4000)
    pair = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"], ["u1", "0.5*u1"])
    for spec in (linear_spec(), pair):
        central = CentralValues.uniform(1.0, spec.d)
        with pytest.raises(IterateOverflowError, match=r"at sweep 223 near r = 799\.4;") as info:
            iterate(spec, grid, central)
        assert isinstance(info.value, ArithmeticError)
        # every bundle that iterate returns holds finite values, one per grid node
        bundle = iterate(spec, grid, central, max_iter=222)
        assert not bundle.converged
        assert all(x.shape == (len(grid),) and np.all(np.isfinite(x)) for x in bundle.u)


def test_central_values_validation():
    with pytest.raises(ValueError):
        CentralValues((1.0, -2.0))
    with pytest.raises(ValueError):
        iterate(linear_spec(), RadialGrid(1.0, 8), CentralValues.uniform(1.0, 2))


def test_horizon_consistency():
    # same spacing, doubled horizon: the shared prefix agrees to ~solver tolerance
    tol = 1e-10
    b1 = iterate(linear_spec(), RadialGrid(2.0, 256), CentralValues.uniform(1.0, 1), tol=tol)
    b2 = iterate(linear_spec(), RadialGrid(4.0, 512), CentralValues.uniform(1.0, 1), tol=tol)
    assert np.max(np.abs(b2.u[0][:257] - b1.u[0])) <= 2 * tol


def test_lower_bound_and_upper_bound_margins():
    spec = linear_spec()
    grid = RadialGrid(5.0, 1000)
    tables = build_transform_tables(spec, grid)
    bundle = iterate(spec, grid, CentralValues.uniform(1.0, 1), tol=1e-10)
    rep = verify_bounds(bundle, tables, spec)
    # lower: 1 + A(r) = 1 + r^2/6 sits below sinh(r)/r at every node
    assert rep.lower_margins[0] <= 1e-9
    assert rep.upper_margins is not None
    assert rep.upper_margins[0] <= 1e-9
    assert rep.bounds_pass


def test_upper_chain_on_component_sum():
    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"],
                                    ["u2", "u1"])
    grid = RadialGrid(3.0, 512)
    tables = build_transform_tables(spec, grid)
    bundle = iterate(spec, grid, CentralValues.uniform(1.0, 2), tol=1e-10)
    dbeta = 2.0
    ys = float(eval_F(tables.F, dbeta)) + np.sum(tables.A, axis=0)
    ub = invert_F(tables.F, ys, tables.F_inf)
    total = np.sum(bundle.u, axis=0)
    assert np.max(total - ub) <= 1e-6


def test_upper_bound_starts_at_d_beta():
    # F(d*beta) is evaluated and inverted on one table, so ub(0) = d*beta and
    # the margin at r = 0 is exactly beta - d*beta
    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"],
                                    ["u2", "u1"])
    grid = RadialGrid(4.0, 400)
    tables = build_transform_tables(spec, grid)
    bundle = iterate(spec, grid, CentralValues.uniform(2.0, 2), tol=1e-10)
    rep = verify_bounds(bundle, tables, spec)
    assert rep.upper_curve[0] == pytest.approx(4.0, rel=1e-12)
    assert rep.upper_margins == pytest.approx((-2.0, -2.0), rel=1e-12)


def test_upper_curve_matches_its_closed_form_beyond_the_probe_horizon():
    # F(s) = ln((1 + 2s) / 3) / 2 for f = (u2, u1), so the upper bound is
    # (3 e^(2y) - 1) / 2 with y = F(2 beta) + sum_j A_j(r); at R = 4 it reaches about
    # 2e5, far past the probe horizon r_start * 2^10
    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"],
                                    ["u2", "u1"])
    grid = RadialGrid(4.0, 400)
    tables = build_transform_tables(spec, grid)
    bundle = iterate(spec, grid, CentralValues.uniform(2.0, 2), tol=1e-10)
    rep = verify_bounds(bundle, tables, spec)
    y = 0.5 * np.log(3.0) + np.sum(tables.A, axis=0)
    assert rep.upper_curve[-1] > 1e5
    np.testing.assert_allclose(rep.upper_curve, (3.0 * np.exp(2.0 * y) - 1.0) / 2.0,
                               rtol=1e-9, atol=0.0)


def test_bounds_degenerate_zero_source():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "0", "u1")
    grid = RadialGrid(2.0, 64)
    tables = build_transform_tables(spec, grid)
    bundle = iterate(spec, grid, CentralValues.uniform(1.0, 1))
    rep = verify_bounds(bundle, tables, spec)
    assert rep.lower_margins[0] == 0.0  # bound and solution are both constant beta
    assert rep.upper_margins[0] <= 0.0


def test_upper_bound_skipped_for_nonuniform_central_values():
    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"],
                                    ["u2", "u1"])
    grid = RadialGrid(2.0, 64)
    tables = build_transform_tables(spec, grid)
    bundle = iterate(spec, grid, CentralValues((1.0, 2.0)))
    rep = verify_bounds(bundle, tables, spec)
    assert rep.upper_margins is None
    assert "uniform" in rep.upper_reason
    assert rep.lower_margins is not None and all(m <= 1e-9 for m in rep.lower_margins)


def test_upper_bound_unevaluable_below_anchor():
    spec = linear_spec()  # F starts at the default probes.r_start, 1.0
    grid = RadialGrid(2.0, 64)
    tables = build_transform_tables(spec, grid)
    bundle = iterate(spec, grid, CentralValues.uniform(0.5, 1))
    rep = verify_bounds(bundle, tables, spec)
    assert rep.upper_margins is None
    assert rep.upper_reason == "d*beta = 0.5 is below the F anchor 1; upper bound not evaluable"
    # from r_start 0.25 the same central value is in reach
    tables = build_transform_tables(spec, grid, ProbeConfig(r_start=0.25))
    rep = verify_bounds(bundle, tables, spec)
    assert rep.upper_reason == "" and max(rep.upper_margins) <= 1e-9


def test_residuals_zero_for_constant_solution():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "0")
    grid = RadialGrid(2.0, 128)
    bundle = iterate(spec, grid, CentralValues.uniform(1.0, 1))
    rep = residual(bundle, spec)
    assert rep.integral_residuals[0] <= 1e-14
    assert rep.ode_residuals[0] <= 1e-9


def test_residual_gate_on_sinh():
    spec = linear_spec()
    grid = RadialGrid(5.0, 1000)
    bundle = iterate(spec, grid, CentralValues.uniform(1.0, 1), tol=1e-10)
    rep = residual(bundle, spec)
    assert rep.integral_residuals[0] <= 10.0 * bundle.tolerance
    assert rep.residual_pass


def test_verify_solution_end_to_end():
    spec = linear_spec()
    grid = RadialGrid(5.0, 500)
    tables = build_transform_tables(spec, grid)
    bundle = iterate(spec, grid, CentralValues.uniform(1.0, 1), tol=1e-10)
    rep = verify_solution(bundle, tables, spec)
    assert rep.passed


def test_verify_solution_on_the_stress_grid_peaks_at_a_few_grid_arrays():
    # the stress instance with a stand-in solution: the memory does not depend on
    # the values.  Holding every component's operator value and the bound curves
    # through the residual peaked at 2.31 MB; one component at a time, the curves
    # after it, at 1.09 MB
    spec, grid, central = stress_instance()
    tables = build_transform_tables(spec, grid)
    u = tuple(b + grid.nodes ** 2 for b in central.values)
    bundle = SolutionBundle(grid, central, u, 1, 0.0, True, 1e-10, True, float(np.max(u[2])))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = verify_solution(bundle, tables, spec)
        peak = (tracemalloc.get_traced_memory()[1] - start) / 2.0 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 1.6
    assert len(report.lower_curves) == 3 and report.integral_residuals is not None


def test_a_decreasing_nonlinearity_stops_the_iteration_with_a_typed_error():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "1/(1+u1)")
    with pytest.raises(IterateDecreaseError, match=r"^iterate decreased by 0\.0154605 at some"):
        iterate(spec, RadialGrid(2.0, 200), CentralValues((1.0,)))


def test_grid_refinement_is_second_order():
    errs = {}
    for M in (500, 1000):
        grid = RadialGrid(5.0, M)
        bundle = iterate(linear_spec(), grid, CentralValues.uniform(1.0, 1), tol=1e-12)
        exact = series_sinh_over_r(grid.nodes)
        errs[M] = np.max(np.abs(bundle.u[0] - exact))
    assert errs[500] / errs[1000] >= 3.5
