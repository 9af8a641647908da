import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from radsolve.quadrature import (
    CumulativeInterpolant,
    DivergenceVerdict,
    ProbeConfig,
    RadialGrid,
    classify_tail,
    cumulative_trapezoid,
    octave_nodes,
    SharedSamples,
    _octaves,
    probe_divergence,
    probe_from_origin,
)
from radsolve.exprlang import ExprError, evaluate_array, parse
from radsolve.transforms import ProblemSpec, RadialKernel


def test_grid_basics():
    g = RadialGrid(2.0, 10)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.0
    assert len(g) == 11
    assert g.spacing == pytest.approx(0.2)


def test_grid_rejects_small_m():
    with pytest.raises(ValueError, match="M >= 8"):
        RadialGrid(1.0, 4)


def test_cumulative_zero_integrand():
    g = RadialGrid(3.0, 16)
    out = cumulative_trapezoid(g.nodes, np.zeros(17))
    assert np.all(out == 0.0)


def test_cumulative_constant_is_exact():
    g = RadialGrid(2.0, 64)
    out = cumulative_trapezoid(g.nodes, np.ones(65))
    assert out[-1] == pytest.approx(2.0, abs=1e-14)


def test_cumulative_affine_is_exact():
    g = RadialGrid(1.0, 1000)
    out = cumulative_trapezoid(g.nodes, g.nodes)
    assert out[-1] == pytest.approx(0.5, abs=1e-14)
    assert out[0] == 0.0


def test_cumulative_second_order_on_cubic():
    # integral of r^3 over [0,1] is 1/4; halving the spacing cuts the error ~4x
    errs = []
    for M in (100, 200, 400):
        g = RadialGrid(1.0, M)
        out = cumulative_trapezoid(g.nodes, g.nodes ** 3)
        errs.append(abs(out[-1] - 0.25))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=9, max_size=60))
def test_cumulative_monotone_for_nonnegative_integrands(vals):
    g = RadialGrid(1.0, len(vals) - 1)
    out = cumulative_trapezoid(g.nodes, np.array(vals))
    assert np.all(np.isfinite(out))
    assert np.all(np.diff(out) >= 0.0)


def _flat_kernel(N: int, x: np.ndarray) -> RadialKernel:
    # h = 0 and a = 1: ``inner(w)`` is the power-weighted rule for s^(N-1) * w
    return RadialKernel(ProblemSpec.from_strings(N, 1, 2.0, "0", "1", "u1"), 0, x)


def test_power_weighted_matches_monomial_exactly():
    # integrating s^2 * 1 must give t^3/3 to rounding on any grid
    x = np.linspace(0.0, 2.0, 33)
    out = _flat_kernel(3, x).inner(np.ones_like(x))
    assert np.allclose(out, x ** 3 / 3.0, rtol=1e-14, atol=1e-14)


def test_power_weighted_linear_smooth_part_exact():
    x = np.linspace(0.0, 1.0, 17)
    out = _flat_kernel(4, x).inner(2.0 * x)  # integral of 2 s^4
    assert np.allclose(out, 2.0 * x ** 5 / 5.0, rtol=1e-13, atol=1e-15)


def _power_weighted_reference(nodes, smooth, q):
    """The rule as one function that recomputes the node factors per call."""
    x0, x1 = nodes[:-1], nodes[1:]
    m0 = (x1 ** (q + 1) - x0 ** (q + 1)) / (q + 1)
    m1 = (x1 ** (q + 2) - x0 ** (q + 2)) / (q + 2)
    slope = np.diff(smooth) / np.diff(nodes)
    segs = smooth[:-1] * m0 + slope * (m1 - x0 * m0)
    if np.all(smooth >= 0):
        segs = np.maximum(segs, 0.0)
    return np.concatenate([[0.0], np.cumsum(segs)])


@pytest.mark.parametrize("N", [3, 4, 6])
def test_power_weighted_node_factors_once_match_the_per_call_rule(N):
    x = np.linspace(0.0, 3.0, 200) ** 1.5
    spec = ProblemSpec.from_strings(N, 1, 2.0, "0.3/(1+r)", "1+r", "u1")
    kernel = RadialKernel(spec, 0, x)
    for source in (None, np.cos(x) + 1.5, np.sin(3.0 * x)):  # the last is signed
        smooth = kernel.weighted_a if source is None else kernel.weighted_a * source
        assert np.array_equal(kernel.inner(source),
                              _power_weighted_reference(x, smooth, N - 1))


def test_gauss2_is_fourth_order():
    x = np.linspace(0.0, 1.0, 101)
    table = CumulativeInterpolant(np.exp, 1.0, intervals=50)
    assert np.array_equal(table.s, x)
    assert abs(table.values[-1] - (np.e - 1.0)) < 1e-11


# --- probing ----------------------------------------------------------------

def test_probe_convergent_quadratic_tail():
    v = probe_divergence(lambda r: 1.0 / (1.0 + r) ** 2, 1.0, ProbeConfig(horizon_count=8))
    assert v.verdict == "converges"
    assert v.limit == pytest.approx(0.5, rel=0.05)


def test_probe_divergent_harmonic_tail():
    v = probe_divergence(lambda r: 1.0 / (1.0 + r), 1.0, ProbeConfig(horizon_count=8))
    assert v.verdict == "diverges"
    assert v.limit is None


def test_probe_zero_integrand():
    v = probe_divergence(lambda r: np.zeros_like(np.asarray(r)), 1.0, ProbeConfig(horizon_count=6))
    assert v.verdict == "converges"
    assert v.limit == 0.0


def test_probe_domain_error_is_inconclusive():
    def bad(r):
        raise ZeroDivisionError("boom")

    v = probe_divergence(bad, 1.0, ProbeConfig(horizon_count=5))
    assert v.verdict == "inconclusive"
    assert "boom" in v.note


def test_probe_nonfinite_integrand_is_inconclusive():
    v = probe_divergence(lambda r: np.full_like(np.asarray(r, dtype=float), np.inf), 1.0,
                         ProbeConfig(horizon_count=5))
    assert v.verdict == "inconclusive"


def test_probe_rejects_negative_integrand():
    with pytest.raises(ValueError, match="nonnegative"):
        probe_divergence(lambda r: -np.ones_like(np.asarray(r)), 1.0, ProbeConfig(horizon_count=5))


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_probe_scaling_invariance(c):
    base = probe_divergence(lambda r: 1.0 / (1.0 + r) ** 2, 1.0, ProbeConfig(horizon_count=8))
    scaled = probe_divergence(lambda r: c / (1.0 + r) ** 2, 1.0, ProbeConfig(horizon_count=8))
    assert scaled.verdict == base.verdict
    assert scaled.limit == pytest.approx(c * base.limit, rel=1e-9)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_probe_scaling_preserves_divergence(c):
    scaled = probe_divergence(lambda r: c / (1.0 + r), 1.0, ProbeConfig(horizon_count=6))
    assert scaled.verdict == "diverges"


def test_probe_rejects_nonpositive_start():
    for start in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="start must be positive"):
            probe_divergence(lambda r: 1.0 / (1.0 + r) ** 2, start, ProbeConfig())


def test_probe_config_t_max_is_last_horizon():
    cfg = ProbeConfig(horizon_count=7, r_start=0.5)
    assert cfg.t_max == 0.5 * 2.0 ** 7
    v = probe_divergence(lambda r: 1.0 / (1.0 + r) ** 2, cfg.r_start, cfg)
    assert v.horizons[-1] == cfg.t_max


def test_probe_from_origin_includes_head():
    # integral of (1+r)^-2 over [0, inf) is 1; the head over [0, 1] is 1/2
    cfg = ProbeConfig(horizon_count=8)
    v = probe_from_origin(lambda r: 1.0 / (1.0 + r) ** 2, cfg)
    tail = probe_divergence(lambda r: 1.0 / (1.0 + r) ** 2, 1.0, cfg)
    assert v.verdict == "converges"
    assert v.limit == pytest.approx(tail.limit + 0.5, rel=1e-6)
    assert v.limit == pytest.approx(1.0, rel=0.05)
    assert "head over [0, 1]" in v.note
    assert v.partials == tail.partials


def test_probe_from_origin_passes_divergence_through():
    v = probe_from_origin(lambda r: 1.0 / (1.0 + r), ProbeConfig(horizon_count=8))
    assert v.verdict == "diverges"
    assert v.limit is None


def test_probe_from_origin_guards_the_head():
    def sqrt_shifted(r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.5):
            raise ArithmeticError("sqrt of a negative number")
        return np.sqrt(r - 0.5)

    v = probe_from_origin(sqrt_shifted, ProbeConfig())
    assert v.verdict == "inconclusive"
    assert "sqrt of a negative number" in v.note
    with np.errstate(divide="ignore"):
        v = probe_from_origin(lambda r: 1.0 / np.asarray(r, dtype=float), ProbeConfig())
    assert v.verdict == "inconclusive"
    assert "not finite near r = 0" in v.note


def test_verdict_invariants():
    with pytest.raises(ValueError):
        DivergenceVerdict("converges")  # no limit
    with pytest.raises(ValueError):
        DivergenceVerdict("diverges", limit=1.0)
    with pytest.raises(ValueError):
        DivergenceVerdict("converges", limit=0.5, partials=(0.9,))


def test_classify_tail_needs_three_increments():
    with pytest.raises(ValueError):
        classify_tail([1.0, 0.5], 0.9)


def test_octave_nodes_layout_from_origin():
    expected = np.concatenate([np.linspace(0.0, 1.0, 2049), np.linspace(1.0, 2.0, 1025)[1:],
                               np.linspace(2.0, 4.0, 1025)[1:], np.linspace(4.0, 5.0, 1025)[1:]])
    assert np.array_equal(octave_nodes(5.0), expected)


@pytest.mark.parametrize("start, count, n", [(1.0, 10, 2048), (0.37, 6, 100), (3.3, 4, 8)])
def test_octave_block_is_read_only_with_row_views_and_widths(start, count, n):
    nodes, rows, widths = _octaves(start, count, n)
    want = np.concatenate([np.linspace(start * 2.0 ** (k - 1), start * 2.0 ** k, n + 1)
                           for k in range(1, count + 1)])
    assert nodes.tobytes() == want.tobytes()
    assert not nodes.flags.writeable and not widths.flags.writeable
    assert len(rows) == count
    for k, row in enumerate(rows):
        assert not row.flags.writeable and np.shares_memory(row, nodes)
        assert row.tobytes() == want[k * (n + 1):(k + 1) * (n + 1)].tobytes()
        assert widths[k].tobytes() == np.diff(row).tobytes()
    assert _octaves(start, count, n)[0] is nodes  # the same block for the next probe


def test_cumulative_interpolant_samples_inside_and_extends_without_resampling():
    seen = []

    def fn(t):
        seen.append(np.asarray(t))
        return np.ones_like(seen[-1])

    table = CumulativeInterpolant(fn, 5.0)
    assert min(x.min() for x in seen) > 0.0 and max(x.max() for x in seen) < 5.0
    seen.clear()
    table.extend(12.0)  # whole octaves [5, 10] and [10, 20]
    assert table.t_max == 20.0
    assert min(x.min() for x in seen) > 5.0 and max(x.max() for x in seen) < 20.0
    assert table(20.0) == pytest.approx(20.0, rel=1e-13)


def test_cumulative_interpolant_inverse_solves_its_linear_pieces():
    table = CumulativeInterpolant(np.exp, 8.0, lo=1.0, intervals=16)
    t = np.random.default_rng(1).uniform(1.0, 8.0, 200)
    assert np.allclose(table.inverse(table(t)), t, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError, match="outside"):
        table(0.5)


def test_cumulative_interpolant_tracks_primitive():
    ci = CumulativeInterpolant(lambda t: np.asarray(t), 64.0)
    for t in (0.5, 1.0, 7.3, 64.0):
        assert ci(t) == pytest.approx(t * t / 2.0, rel=1e-6)
    ci3 = CumulativeInterpolant(lambda t: np.asarray(t) ** 2, 32.0)
    assert ci3(8.0) == pytest.approx(8.0 ** 3 / 3.0, rel=1e-9)


def _reference_probe(integrand, start, cfg):
    """The per-octave probe loop with fresh ``np.linspace`` nodes and no shared
    state: sample one octave, check it on its own scale, add its trapezoid."""
    partials, horizons, total, left = [], [], 0.0, start
    for k in range(1, cfg.horizon_count + 1):
        right = start * 2.0 ** k
        xs = np.linspace(left, right, cfg.nodes_per_octave + 1)
        try:
            ys = np.asarray(integrand(xs), dtype=float)
        except (ExprError, ArithmeticError) as err:
            return DivergenceVerdict("inconclusive", horizons=tuple(horizons),
                                     partials=tuple(partials),
                                     note=f"integrand error on [{xs[0]:g},{xs[-1]:g}]: {err}")
        if not np.all(np.isfinite(ys)):
            bad = float(xs[int(np.argmax(~np.isfinite(ys)))])
            return DivergenceVerdict("inconclusive", horizons=tuple(horizons),
                                     partials=tuple(partials),
                                     note=f"integrand not finite near r = {bad:g}")
        if ys.min() < -1e-12 * max(1.0, float(np.abs(ys).max())):
            raise ValueError(f"integrand is negative (min {float(ys.min()):g}); "
                             "probe requires nonnegative data")
        total += float(np.trapezoid(np.maximum(ys, 0.0), xs))
        partials.append(total)
        horizons.append(right)
        left = right
    verdict, extra, ratios = classify_tail(np.diff(partials, prepend=0.0), cfg.rho_conv)
    note = f"tail ratios: {', '.join(f'{q:.3g}' for q in ratios)}"
    limit = partials[-1] + extra if verdict == "converges" else None
    return DivergenceVerdict(verdict, limit=limit, horizons=tuple(horizons),
                             partials=tuple(partials), note=note)


def _radial(text):
    expr = parse(text, "radial")
    return lambda r: evaluate_array(expr, {"r": np.asarray(r, dtype=float)})


@pytest.mark.parametrize("start", [1.0, 0.37, 3.3])
@pytest.mark.parametrize("text", [
    "1/(1+r)^2", "1/(1+r)", "exp(-r)", "sqrt(r)", "r^-1.5 + 0*r",
    "1/(1+r) + 0.5*exp(-r)*r^2", "abs(r-2.5)/(1+r^3)",
    "exp(-r) - 1e-15",  # rounding-negative past r = 34.5, clipped to 0
    "-0*r",  # -0.0 everywhere
])
@pytest.mark.parametrize("cfg", [ProbeConfig(), ProbeConfig(horizon_count=6, nodes_per_octave=100)])
def test_probe_is_bit_equal_to_the_per_octave_reference(start, text, cfg):
    integrand = _radial(text)
    want = repr(_reference_probe(integrand, start, cfg))  # repr tells -0.0 from 0.0
    assert repr(probe_divergence(integrand, start, cfg)) == want
    # a second probe on the now shared octave arrays reads the same bits
    assert repr(probe_divergence(integrand, start, cfg)) == want


# the second is negative in the last octave only
@pytest.mark.parametrize("text", ["exp(-r) - 1e-9", "1/(1+r)^2 - 1e-6"])
def test_probe_of_a_clearly_negative_integrand_still_raises(text):
    for probe in (probe_divergence, _reference_probe):
        with pytest.raises(ValueError, match="negative"):
            probe(_radial(text), 1.0, ProbeConfig())


@pytest.mark.parametrize("start", [1.0, 0.37, 3.3])
def test_probe_domain_error_stops_at_its_octave_like_the_reference(start):
    # sqrt(40 - r) is undefined past r = 40: the probe keeps the octaves before it
    integrand = _radial("1/(1+r)^2 + sqrt(40 - r)*0")
    got = probe_divergence(integrand, start, ProbeConfig())
    want = _reference_probe(integrand, start, ProbeConfig())
    assert got == want
    assert got.verdict == "inconclusive" and got.note.startswith("integrand error on [")
    assert 0 < len(got.horizons) < 10 and got.horizons[-1] <= 40.0


def test_probe_negativity_scale_is_per_octave():
    # a -1e-9 dip among first-octave values of at most 1 is clearly negative there,
    # although it is tiny next to the 1e100-sized values of the last octave; the
    # dip sits at the node r = 1.5, whatever array of nodes the probe passes
    def integrand(xs):
        ys = (xs / 2.0) ** 40
        ys[xs == 1.5] = -1e-9
        return ys

    with pytest.raises(ValueError, match="negative"):
        probe_divergence(integrand, 1.0, ProbeConfig())
    with pytest.raises(ValueError, match="negative"):
        _reference_probe(integrand, 1.0, ProbeConfig())


def _probe_outcome(probe, integrand, start, cfg):
    """The verdict of a probe, or the type and text of the exception it raised."""
    try:
        return probe(integrand, start, cfg)
    except Exception as err:  # compared, not handled
        return type(err), str(err)


def _bump(xs):
    return 1.0 / (1.0 + xs) ** 2


def _expr_error_past(edge):
    def integrand(xs):
        if np.max(xs) > edge:
            raise ExprError(f"undefined past {edge}")
        return _bump(xs)
    return integrand


# values are placed by node value, so that one octave holds them whatever array
# of nodes the probe passes; each integrand raises an ExprError somewhere, so
# the probe's call on all octaves at once fails and it goes octave by octave

def _not_finite_then_expr_error(xs):
    if np.max(xs) > 100.0:
        raise ExprError("undefined past 100")
    ys = _bump(xs)
    ys[(xs > 6.0) & (xs < 6.1)] = np.inf
    return ys


def _dip_then_not_finite(xs):
    ys = _expr_error_past(300.0)(xs)
    ys[(xs > 1.2) & (xs < 1.21)] = -1e-3
    ys[xs > 40.0] = np.nan
    return ys


def _not_finite_then_dip(xs):
    ys = _expr_error_past(300.0)(xs)
    ys[(xs > 6.0) & (xs < 6.1)] = np.inf
    ys[(xs > 100.0) & (xs < 101.0)] = -1e-3
    return ys


@pytest.mark.parametrize("start", [1.0, 0.37])
@pytest.mark.parametrize("integrand, kind", [
    (_expr_error_past(20.0), "inconclusive"),      # an ExprError in an octave past the first
    (_expr_error_past(0.5), "inconclusive"),       # an ExprError in the first octave
    (_not_finite_then_expr_error, "inconclusive"),  # a non-finite octave, an ExprError later
    (_dip_then_not_finite, ValueError),            # a dip before a non-finite octave raises
    (_not_finite_then_dip, "inconclusive"),        # a dip after one does not
])
def test_probe_fallback_is_bit_equal_to_the_reference(start, integrand, kind):
    cfg = ProbeConfig(nodes_per_octave=256)
    got = _probe_outcome(probe_divergence, integrand, start, cfg)
    assert got == _probe_outcome(_reference_probe, integrand, start, cfg)
    if kind is ValueError:
        assert got[0] is ValueError and "negative" in got[1]
    else:
        assert got.verdict == kind and got.note.startswith(("integrand error", "integrand not"))


@pytest.mark.parametrize("start", [1.0, 0.37])
def test_a_scalar_callable_is_a_type_error_naming_the_shape(start):
    # integrands take and return arrays; a scalar result is refused, not looped over
    cfg = ProbeConfig(r_start=start, nodes_per_octave=64)
    with pytest.raises(TypeError, match=r"array of shape \(65,\), the shape of its input, not \(\)"):
        probe_divergence(lambda t: 1.0, start, cfg)
    with pytest.raises(TypeError, match=r"array of shape \(4097,\)"):
        probe_from_origin(lambda t: 1.0, cfg)
    with pytest.raises(TypeError, match=r"array of shape \(2048,\)"):
        CumulativeInterpolant(lambda t: 1.0, 2.0 * start, lo=start)


def test_probe_reraises_a_non_domain_error_unless_an_earlier_octave_stops_it():
    def type_error_past_20(xs):
        if np.max(xs) > 20.0:
            raise TypeError("not an array function")
        return _bump(xs)

    def not_finite_then_type_error(xs):
        ys = type_error_past_20(xs)
        ys[(xs > 3.0) & (xs < 3.1)] = np.inf
        return ys

    for start in (1.0, 0.37):
        for integrand in (type_error_past_20, not_finite_then_type_error):
            got = _probe_outcome(probe_divergence, integrand, start, ProbeConfig())
            assert got == _probe_outcome(_reference_probe, integrand, start, ProbeConfig())
        assert _probe_outcome(probe_divergence, type_error_past_20, start, ProbeConfig()) == (
            TypeError, "not an array function")
        assert got.verdict == "inconclusive" and got.note.startswith("integrand not finite")


def test_shared_samples_evaluate_once_per_read_only_array():
    calls = []

    def fn(xs):
        calls.append(xs)
        if xs[-1] > 100:
            raise ExprError("out of range")
        return 2.0 * xs

    shared = SharedSamples(fn)
    nodes = np.linspace(0.0, 200.0, 11)
    nodes.flags.writeable = False
    first = shared(nodes[:6])  # a new view each call: not the same array object
    kept = nodes[:6]
    assert shared(kept) is shared(kept)
    assert np.array_equal(first, shared(kept))
    for _ in range(2):
        with pytest.raises(ExprError, match="out of range"):
            shared(nodes)
    writeable = np.linspace(0.0, 1.0, 5)
    shared(writeable)
    shared(writeable)
    assert len(calls) == 5  # first, kept, nodes once, the writeable array twice
    assert shared.primitive(64.0) is shared.primitive(64.0)
    assert shared.primitive(64.0) is not shared.primitive(32.0)
    assert shared.primitive(32.0)(32.0) == pytest.approx(32.0 ** 2)
