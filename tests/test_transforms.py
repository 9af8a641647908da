import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from radsolve.quadrature import (
    ProbeConfig,
    RadialGrid,
    cumulative_simpson,
    cumulative_trapezoid,
    octave_nodes,
)
from radsolve.transforms import (
    FInverseRangeError,
    KernelOverflowError,
    ProblemSpec,
    RadialKernel,
    build_A,
    build_F,
    build_transform_tables,
    estimate_A_inf,
    estimate_F_inf,
    eval_F,
    invert_F,
    validate_hypotheses,
)

# independent oracle values (closed forms / high-precision quadrature)
TWO_OVER_THREE_ROOT_THREE = 0.38490017945975050967  # (2/3) * (1/3)^(1/2)
LN2 = 0.69314718055994530942
# barrier limit for a = (1+r)^-4, N = 3, p = 2: swapping the order of
# integration gives integral_0^inf s (1+s)^-4 ds = B(2, 2) = 1/6
A_INF_DECAYING = 1.0 / 6.0


def linear_spec():
    return ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1")


def test_spec_validation():
    with pytest.raises(ValueError, match="N must be"):
        ProblemSpec.from_strings(2, 1, 2.0, "0", "1", "u1")
    with pytest.raises(ValueError, match="p_j must be > 1"):
        ProblemSpec.from_strings(3, 1, 1.0, "0", "1", "u1")


def test_H_without_gradient_term_is_pure_power():
    grid = RadialGrid(2.0, 64)
    H = RadialKernel(linear_spec(), 0, grid.nodes).H
    assert np.allclose(H, grid.nodes ** 2, rtol=1e-14, atol=0.0)
    assert H[0] == 0.0


def test_H_with_constant_gradient_coefficient():
    # cumulative of a constant is exact under the trapezoid rule
    spec = ProblemSpec.from_strings(3, 1, 2.0, "1", "1", "u1")
    grid = RadialGrid(2.0, 128)
    H = RadialKernel(spec, 0, grid.nodes).H
    assert np.allclose(H, grid.nodes ** 2 * np.exp(grid.nodes), rtol=1e-13)


def test_H_and_the_weighted_source_share_the_bits_of_one_exp():
    spec = ProblemSpec.from_strings(4, 1, 2.5, "0.3/(1+r)", "0.5+r", "u1")
    nodes = np.linspace(0.0, 7.0, 501)
    kernel = RadialKernel(spec, 0, nodes)
    h_cum = cumulative_trapezoid(nodes, 0.3 / (1 + nodes))
    assert kernel.H.tobytes() == (nodes ** 3 * np.exp(h_cum)).tobytes()
    assert kernel.weighted_a.tobytes() == (np.exp(h_cum) * (0.5 + nodes)).tobytes()


def test_kernel_ratio_with_unit_source_is_the_barrier_integrand():
    spec = ProblemSpec.from_strings(4, 1, 2.5, "0.3/(1+r)", "exp(-r)", "u1")
    grid = RadialGrid(3.0, 300)
    kernel = RadialKernel(spec, 0, grid.nodes)
    ones = np.ones_like(grid.nodes)
    assert np.array_equal(kernel.ratio(), kernel.ratio(ones))
    assert np.array_equal(kernel.inner(), kernel.inner(ones))
    A = build_A(spec, grid, 0)
    assert np.array_equal(A, cumulative_trapezoid(grid.nodes, kernel.ratio()))
    # a source scales the inner integral linearly
    assert np.allclose(kernel.inner(3.0 * ones), 3.0 * kernel.inner(), rtol=1e-14)


def test_kernel_rejects_negative_coefficients_and_bad_index():
    grid = RadialGrid(2.0, 64)
    with pytest.raises(ValueError, match=r"h\[0\] takes negative values"):
        RadialKernel(ProblemSpec.from_strings(3, 1, 2.0, "r-1", "1", "u1"), 0, grid.nodes)
    with pytest.raises(ValueError, match=r"a\[0\] takes negative values"):
        RadialKernel(ProblemSpec.from_strings(3, 1, 2.0, "0", "1-r", "u1"), 0, grid.nodes)
    with pytest.raises(ValueError, match="out of range"):
        RadialKernel(linear_spec(), 1, grid.nodes)


def test_A_closed_form_quadratic():
    grid = RadialGrid(1.0, 2000)
    A = build_A(linear_spec(), grid, 0)
    assert abs(A[-1] - 1.0 / 6.0) / (1.0 / 6.0) < 1e-6
    assert A[0] == 0.0


def test_A_zero_source():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "0", "u1")
    grid = RadialGrid(1.0, 64)
    A = build_A(spec, grid, 0)
    assert np.all(A == 0.0)


def test_A_closed_form_p3():
    spec = ProblemSpec.from_strings(3, 1, 3.0, "0", "1", "u1")
    grid = RadialGrid(1.0, 2000)
    A = build_A(spec, grid, 0)
    assert abs(A[-1] - TWO_OVER_THREE_ROOT_THREE) / TWO_OVER_THREE_ROOT_THREE < 1e-4


def test_A_nondecreasing_with_zero_start():
    spec = ProblemSpec.from_strings(4, 2, [2.0, 2.5], ["0.2", "0"],
                                    ["1", "exp(-r)"], ["u1 + u2", "u1*u2"])
    grid = RadialGrid(3.0, 200)
    for j in range(2):
        A = build_A(spec, grid, j)
        assert A[0] == 0.0
        assert np.all(np.diff(A) >= 0.0)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_A_scales_linearly_with_source_when_p_is_2(c):
    grid = RadialGrid(1.0, 128)
    base = build_A(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1"), grid, 0)
    scaled = build_A(ProblemSpec.from_strings(3, 1, 2.0, "0", repr(c), "u1"), grid, 0)
    assert np.allclose(scaled, c * base, rtol=1e-12, atol=1e-300)


def test_F_closed_form_log():
    table = build_F(linear_spec())
    assert abs(eval_F(table, 3.0) - LN2) < 1e-8


def test_F_unit_integrand_for_zero_nonlinearity():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "0")
    table = build_F(spec)
    ss = np.linspace(1.0, 5.0, 11)
    assert np.allclose(eval_F(table, ss), ss - 1.0, atol=1e-12)


def test_F_starts_where_the_probes_start():
    # F(s) = s - r_start for f = 0, in build_F's table and the tables' own alike
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "0")
    probe = ProbeConfig(r_start=0.25)
    tables = build_transform_tables(spec, RadialGrid(1.0, 16), probe)
    for table in (build_F(spec, probe), tables.F):
        assert table.s[0] == 0.25
        assert eval_F(table, 3.0) == pytest.approx(2.75, abs=1e-12)
    assert estimate_F_inf(spec, probe).horizons[0] == 0.5  # its first octave edge


def test_F_strictly_increasing():
    table = build_F(ProblemSpec.from_strings(3, 2, [2.0, 3.0], ["0", "0"],
                                             ["1", "1"], ["u1^2", "u1 + u2"]))
    assert table.s[-1] >= 6.0
    assert np.all(np.diff(table.values) > 0.0)


# F of the shipped sinh_oracle (f = u1) and coupled_sweep (f = (u2, u1)) configs
F_CLOSED_FORMS = (
    (ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1"),
     lambda s: np.log((1.0 + s) / 2.0)),
    (ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"], ["u2", "u1"]),
     lambda s: 0.5 * np.log((1.0 + 2.0 * s) / 3.0)),
)


@pytest.mark.parametrize("spec, exact", F_CLOSED_FORMS)
def test_F_table_and_inverse_match_closed_form_up_to_2e5(spec, exact):
    table = build_transform_tables(spec, RadialGrid(1.0, 16)).F  # 60 octaves from r_start = 1
    nodes = table.s[table.s <= 2e5]
    # nodes carry the quadrature error, midpoints the interpolation error too
    s = np.concatenate([nodes, (nodes[:-1] + nodes[1:]) / 2.0])
    assert np.max(np.abs(eval_F(table, s) - exact(s))) <= 1e-9
    s_back = invert_F(table, exact(s), estimate_F_inf(spec))
    assert np.max(np.abs(s_back - s) / s) <= 1e-9


@pytest.mark.parametrize("spec", [spec for spec, _ in F_CLOSED_FORMS])
def test_F_table_on_the_widened_layout_extends_the_probes_F_table(spec):
    # one F quadrature: the upper bound's table over 60 octaves holds, bit for bit on
    # its first K octaves, the table that C6 reads off the F probe's block
    probe_F = build_F(spec)
    wide = build_transform_tables(spec, RadialGrid(1.0, 16)).F
    assert len(probe_F.s) == 10 * 256 + 1 and len(wide.s) == 60 * 256 + 1
    assert (probe_F.reach, wide.reach) == ("10 octaves of the anchor", "60 octaves of the anchor")
    for name in ("s", "values", "slopes"):
        assert np.array_equal(getattr(wide, name)[:len(probe_F.s)], getattr(probe_F, name))


def test_F_table_ends_before_a_nonlinearity_turns_negative():
    # f = u1 (2e6 - u1) is negative past 2e6: F stops at the octave edge 2^20 before,
    # and a query beyond says why instead of the solve failing on a value it never needs
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1*(2e6-u1)")
    table = build_transform_tables(spec, RadialGrid(1.0, 16)).F
    assert table.s[-1] == 2.0 ** 20
    with pytest.raises(FInverseRangeError, match=r"F at 4e\+06 lies beyond 20 octaves of the "
                       r"anchor \(f\[0\] takes negative values on \[1\.04858e\+06, "):
        eval_F(table, 4e6)


def test_invert_F_round_trip():
    table = build_F(linear_spec())
    f_inf = estimate_F_inf(linear_spec())
    for s in np.linspace(1.0, 7.5, 100):
        y = float(eval_F(table, s))
        s_back = invert_F(table, np.array([y]), f_inf)
        assert abs(float(s_back[0]) - s) < 1e-8


def test_invert_F_known_value():
    table = build_F(linear_spec())
    s = invert_F(table, np.array([LN2]), estimate_F_inf(linear_spec()))
    assert abs(float(s[0]) - 3.0) < 1e-6


def test_invert_F_linear_case_up_to_the_tables_reach():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "0")
    table, f_inf = build_F(spec), estimate_F_inf(spec)
    s = invert_F(table, np.array([100.0]), f_inf)  # F(s) = s - 1: s = 101
    assert float(s[0]) == pytest.approx(101.0, abs=1e-9)
    with pytest.raises(FInverseRangeError, match="not reached within 10 octaves of the anchor"):
        invert_F(table, np.array([2000.0]), f_inf)  # F(2^10) = 1023
    with pytest.raises(FInverseRangeError, match="F at 2000 lies beyond 10 octaves"):
        eval_F(table, 2000.0)


def test_invert_F_beyond_finite_range():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1^3")
    f_inf = estimate_F_inf(spec)
    assert f_inf.verdict == "converges"
    table = build_F(spec)
    with pytest.raises(FInverseRangeError, match="beyond the range"):
        invert_F(table, np.array([1.0]), f_inf)


def test_estimate_F_inf_fixtures():
    assert estimate_F_inf(linear_spec()).verdict == "diverges"
    cubic = estimate_F_inf(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1^3"))
    assert cubic.verdict == "converges"
    assert cubic.limit == pytest.approx(0.37355072789142418, rel=0.01)


def test_estimate_A_inf_fixtures():
    diverging = estimate_A_inf(linear_spec(), 0)
    assert diverging.verdict == "diverges"
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^(-4)", "u1")
    converging = estimate_A_inf(spec, 0)
    assert converging.verdict == "converges"
    assert converging.limit == pytest.approx(A_INF_DECAYING, rel=0.02)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_estimate_A_inf_partials_match_the_closed_form(N):
    # a = 1, h = 0, p = 2: the ratio is t/N, so the partial over [1, 2^k] is
    # (4^k - 1) / (2N), and Simpson's rule of the ratio is exact
    v = estimate_A_inf(ProblemSpec.from_strings(N, 1, 2.0, "0", "1", "u1"), 0)
    k = np.arange(1, len(v.partials) + 1)
    assert v.horizons == tuple(2.0 ** k)
    np.testing.assert_allclose(v.partials, (4.0 ** k - 1.0) / (2 * N), rtol=1e-13, atol=0.0)


def test_estimate_A_inf_zero_source():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "0", "u1")
    v = estimate_A_inf(spec, 0)
    assert v.verdict == "converges"
    assert v.limit == 0.0


def test_estimate_A_inf_overflowing_weight_is_inconclusive():
    # exp of the cumulative gradient coefficient overflows far out; the probe
    # reports that honestly instead of raising
    spec = ProblemSpec.from_strings(3, 1, 2.0, "1", "1", "u1")
    v = estimate_A_inf(spec, 0)
    assert v.verdict == "inconclusive"
    assert v.note


def test_a_ratio_of_two_overflows_is_not_finite_without_an_invalid_value_warning():
    # inner and H both overflow near r = 988, so the ratio there is inf / inf; the
    # probe reports that in its note, with no overflow or invalid-value warning
    spec = ProblemSpec.from_strings(5, 1, 2.0, "0.69", "1", "u1")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ratio = RadialKernel(spec, 0, octave_nodes(1024.0)).ratio()
        v = estimate_A_inf(spec, 0)
    assert np.isnan(ratio[-1])
    assert v.verdict == "inconclusive"
    assert v.note == "integrand not finite near r = 988.5"


def test_a_ratio_that_stops_being_finite_far_out_leaves_the_octaves_before_it():
    # the kernel's first non-finite node is 988.5, in the octave [512, 1024]
    spec = ProblemSpec.from_strings(5, 1, 2.0, "0.69", "1", "u1")
    nodes = octave_nodes(1024.0)
    A = cumulative_simpson(nodes, RadialKernel(spec, 0, nodes).ratio())
    v = estimate_A_inf(spec, 0)
    assert v.horizons == tuple(2.0 ** np.arange(1, 10))
    ends = A[np.searchsorted(nodes, (1.0,) + v.horizons)]
    assert v.partials == tuple(ends[1:] - ends[0])


@pytest.mark.parametrize("N", [3, 5])
def test_estimate_A_inf_partials_are_differences_of_the_barrier_trapezoid(N):
    # the probe takes Simpson's rule, not build_A's trapezoid, on the same kernel ratio
    spec = ProblemSpec.from_strings(N, 1, 2.5, "0.3/(1+r)", "exp(-r)", "u1")
    nodes = octave_nodes(1024.0)
    A = cumulative_simpson(nodes, RadialKernel(spec, 0, nodes).ratio())
    v = estimate_A_inf(spec, 0)
    ends = A[np.searchsorted(nodes, 2.0 ** np.arange(11))]
    assert v.horizons == tuple(2.0 ** np.arange(1, 11))
    assert v.partials == tuple(ends[1:] - ends[0])  # bit for bit
    assert v.verdict == "converges" and v.limit >= A[-1]


@pytest.mark.parametrize("r_start", [0.5, 3.0])
def test_estimate_A_inf_probes_from_its_start(r_start):
    probe = ProbeConfig(r_start=r_start)
    nodes = octave_nodes(probe.t_max, head=r_start)
    assert len(nodes) == 2049 + 10 * 1024 and nodes[2048] == r_start
    diverging = estimate_A_inf(linear_spec(), 0, probe)
    assert diverging.verdict == "diverges"
    assert diverging.horizons == tuple(r_start * 2.0 ** np.arange(1, 11))
    converging = estimate_A_inf(ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^(-4)", "u1"), 0, probe)
    assert converging.verdict == "converges"
    assert converging.horizons == diverging.horizons
    assert converging.limit == pytest.approx(A_INF_DECAYING, rel=0.02)
    assert converging.note.endswith(f"; limit includes head over [0, {r_start:g}]")


def test_a_kernel_or_barrier_that_overflows_on_its_grid_is_a_kernel_overflow_error():
    # exp(100 t) leaves the double range near t = 7.1
    spec = ProblemSpec.from_strings(3, 1, 2.0, "100", "1", "u1")
    with pytest.raises(KernelOverflowError, match="^integrand not finite near t = 7.1$"):
        RadialKernel(spec, 0, RadialGrid(10.0, 200).nodes)
    # the weighted source stays finite out to r = 1000, the barrier does not past 988
    spec = ProblemSpec.from_strings(5, 1, 2.0, "0.69", "1", "u1")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(KernelOverflowError, match=r"^barrier A\[0\] not finite near r = 988.5$"):
            build_A(spec, RadialGrid(1000.0, 2000), 0)
        assert np.all(np.isfinite(build_A(spec, RadialGrid(980.0, 2000), 0)))


def test_estimate_A_inf_negative_coefficient_is_inconclusive():
    # negative values on the probe nodes, beyond any solver grid, are reported
    for h, a in (("0", "2-r"), ("1-r", "1")):
        v = estimate_A_inf(ProblemSpec.from_strings(3, 1, 2.0, h, a, "u1"), 0)
        assert v.verdict == "inconclusive"
        assert "takes negative values" in v.note


def test_tables_immutable_assembly():
    spec = linear_spec()
    grid = RadialGrid(2.0, 64)
    tables = build_transform_tables(spec, grid, ProbeConfig(horizon_count=6))
    assert tables.F_inf.verdict == "diverges"
    assert estimate_A_inf(spec, 0, ProbeConfig(horizon_count=6)).verdict == "diverges"
    assert RadialKernel(spec, 0, grid.nodes).H[0] == 0.0
    assert not hasattr(tables, "H")
    assert not hasattr(tables, "A_inf")
    with pytest.raises((AttributeError, TypeError)):
        tables.F = None


def test_validate_hypotheses_flags_bad_instance():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "1/(1+u1)")
    reports = validate_hypotheses(spec, 2.0, 10.0, samples=21)
    assert not reports["f[0] nondecreasing"].passed
    assert all(reports[k].passed for k in reports if k != "f[0] nondecreasing")
