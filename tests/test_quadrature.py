import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from radsolve.quadrature import (
    BlockSamples,
    DivergenceVerdict,
    ProbeConfig,
    RadialGrid,
    classify_tail,
    cumulative_simpson,
    cumulative_trapezoid,
    octave_nodes,
    _octaves,
    probe_block,
    probe_divergence,
    sample_block,
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


def test_cumulative_simpson_is_exact_for_cubics_at_even_nodes_and_quadratics_at_odd():
    x = np.linspace(1.0, 3.0, 41)
    cubic = cumulative_simpson(x, x ** 3)
    np.testing.assert_allclose(cubic[::2], (x[::2] ** 4 - 1.0) / 4.0, rtol=1e-14, atol=1e-14)
    quadratic = cumulative_simpson(x, x ** 2)
    np.testing.assert_allclose(quadratic, (x ** 3 - 1.0) / 3.0, rtol=1e-14, atol=1e-14)
    # on the first nodes only, and on none
    assert cumulative_simpson(x, np.ones(5)).tolist() == pytest.approx(x[:5] - 1.0)
    assert cumulative_simpson(x, np.empty(0)).shape == (0,)


# --- probing ----------------------------------------------------------------

def _probe(integrand, start, cfg):
    """The probe from ``start`` of the callable ``integrand``: ``probe_divergence`` of its
    ``sample_block`` samples."""
    return probe_divergence(*sample_block(integrand, start, cfg), cfg, start)


def test_probe_convergent_quadratic_tail():
    v = _probe(lambda r: 1.0 / (1.0 + r) ** 2, 1.0, ProbeConfig(horizon_count=8))
    assert v.verdict == "converges"
    assert v.limit == pytest.approx(0.5, rel=0.05)


def test_probe_divergent_harmonic_tail():
    v = _probe(lambda r: 1.0 / (1.0 + r), 1.0, ProbeConfig(horizon_count=8))
    assert v.verdict == "diverges"
    assert v.limit is None


def test_probe_zero_integrand():
    v = _probe(lambda r: np.zeros_like(np.asarray(r)), 1.0, ProbeConfig(horizon_count=6))
    assert v.verdict == "converges"
    assert v.limit == 0.0


def test_probe_domain_error_is_inconclusive():
    def bad(r):
        raise ZeroDivisionError("boom")

    v = _probe(bad, 1.0, ProbeConfig(horizon_count=5))
    assert v.verdict == "inconclusive"
    assert "boom" in v.note


def test_probe_nonfinite_integrand_is_inconclusive():
    v = _probe(lambda r: np.full_like(np.asarray(r, dtype=float), np.inf), 1.0,
               ProbeConfig(horizon_count=5))
    assert v.verdict == "inconclusive"


def test_probe_rejects_negative_integrand():
    # a clearly negative value ends the evidence at the octave edge before it, here the start
    v = _probe(lambda r: -np.ones_like(np.asarray(r)), 1.0, ProbeConfig(horizon_count=5))
    assert v.verdict == "inconclusive" and v.partials == v.horizons == ()
    assert v.note == "integrand negative near r = 1"


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_probe_scaling_invariance(c):
    base = _probe(lambda r: 1.0 / (1.0 + r) ** 2, 1.0, ProbeConfig(horizon_count=8))
    scaled = _probe(lambda r: c / (1.0 + r) ** 2, 1.0, ProbeConfig(horizon_count=8))
    assert scaled.verdict == base.verdict
    assert scaled.limit == pytest.approx(c * base.limit, rel=1e-9)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_probe_scaling_preserves_divergence(c):
    scaled = _probe(lambda r: c / (1.0 + r), 1.0, ProbeConfig(horizon_count=6))
    assert scaled.verdict == "diverges"


def test_probe_rejects_a_negative_or_nan_start():
    # from 0 a probe reads the block with the head over [0, r_start]; below 0 there is none
    for start in (-1.0, np.nan):
        with pytest.raises(ValueError, match="need 0 <= lo < t_max"):
            sample_block(lambda r: 1.0 / (1.0 + r) ** 2, start, ProbeConfig())
        with pytest.raises(ValueError, match="need 0 <= lo < t_max"):
            probe_divergence(np.ones(3073), "", ProbeConfig(), start)


@pytest.mark.parametrize("start", [0.0, 1.0])
def test_probe_partials_of_a_cubic_are_exact(start):
    # Simpson's rule is exact for cubics: the partials of r^3 over [1, 2^k] are (16^k - 1) / 4,
    # from 1 and from 0 (where partial k is the running integral at 2^k less its value at 1)
    cfg = ProbeConfig()
    v = _probe(lambda r: r ** 3, start, cfg)
    k = np.arange(1, cfg.horizon_count + 1)
    assert v.horizons == tuple(2.0 ** k)
    np.testing.assert_allclose(v.partials, (16.0 ** k - 1.0) / 4.0, rtol=1e-13, atol=0.0)


def test_probe_config_rejects_an_odd_nodes_per_octave():
    with pytest.raises(ValueError, match="must be even"):
        ProbeConfig(nodes_per_octave=255)
    assert ProbeConfig(nodes_per_octave=254).nodes_per_octave == 254


def test_probe_config_t_max_is_last_horizon():
    cfg = ProbeConfig(horizon_count=7, r_start=0.5)
    assert cfg.t_max == 0.5 * 2.0 ** 7
    v = _probe(lambda r: 1.0 / (1.0 + r) ** 2, cfg.r_start, cfg)
    assert v.horizons[-1] == cfg.t_max


def _running_probe(integrand, cfg):
    """The probe of ``integrand`` on the head and octaves from 0, as the Lair probe."""
    return _probe(integrand, 0.0, cfg)


def test_probe_running_of_an_integrand_includes_the_head():
    # integral of (1+r)^-2 over [0, inf) is 1; the head over [0, 1] is 1/2
    def integrand(r):
        return 1.0 / (1.0 + r) ** 2

    cfg = ProbeConfig(horizon_count=8)
    v = _running_probe(integrand, cfg)
    tail = _probe(integrand, 1.0, cfg)
    assert v.verdict == "converges"
    assert v.limit == pytest.approx(tail.limit + 0.5, rel=1e-6)
    assert v.limit == pytest.approx(1.0, rel=0.05)
    assert "head over [0, 1]" in v.note
    # the octaves are the tail probe's nodes, so its octave areas and tail ratios
    assert v.note.startswith(tail.note + ";")
    # the partials are differences of the running Simpson sum at r_start * 2^k
    nodes = octave_nodes(cfg.t_max, intervals=cfg.nodes_per_octave)
    A = cumulative_simpson(nodes, integrand(nodes))
    ends = A[np.searchsorted(nodes, 2.0 ** np.arange(9))]
    assert v.horizons == tail.horizons == tuple(2.0 ** np.arange(1, 9))
    assert v.partials == tuple(ends[1:] - ends[0])  # bit for bit


def test_probe_running_of_an_integrand_passes_divergence_through():
    v = _running_probe(lambda r: 1.0 / (1.0 + r), ProbeConfig(horizon_count=8))
    assert v.verdict == "diverges"
    assert v.limit is None


def test_probe_running_of_an_integrand_guards_the_head():
    def sqrt_shifted(r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.5):
            raise ArithmeticError("sqrt of a negative number")
        return np.sqrt(r - 0.5)

    v = _running_probe(sqrt_shifted, ProbeConfig())
    assert v.verdict == "inconclusive" and v.partials == v.horizons == ()
    assert v.note == "integrand error on [0,1]: sqrt of a negative number"
    with np.errstate(divide="ignore"):
        v = _running_probe(lambda r: 1.0 / np.asarray(r, dtype=float), ProbeConfig())
    assert v.verdict == "inconclusive" and v.partials == v.horizons == ()
    # the first value that is not finite is 1/r at the head's first node
    assert v.note == "integrand not finite near r = 0"


def test_probe_running_of_an_integrand_keeps_the_octaves_before_a_domain_error():
    def undefined_past_40(xs):
        if xs[-1] > 40.0:
            raise ExprError("undefined")
        return 1.0 / (1.0 + xs) ** 2

    cfg = ProbeConfig()
    v = _running_probe(undefined_past_40, cfg)
    whole = _running_probe(lambda xs: 1.0 / (1.0 + xs) ** 2, cfg)
    assert v.verdict == "inconclusive"
    assert v.note == "integrand error on [32,64]: undefined"  # the octave's own edges
    assert v.horizons == (2.0, 4.0, 8.0, 16.0, 32.0)
    assert v.partials == whole.partials[:5]


def test_probe_running_of_an_integrand_stops_before_a_negative_value():
    # negative from r = 5 on: the octaves up to 4 are evidence, nothing is a limit
    cfg = ProbeConfig()
    v = _running_probe(lambda r: (5.0 - r) / (1.0 + r) ** 4, cfg)
    whole = _running_probe(lambda r: 1.0 / (1.0 + r) ** 4, cfg)
    assert v.verdict == "inconclusive" and v.limit is None
    assert v.note == f"integrand negative near r = {5.0 + 4.0 / 256:g}"  # [4, 8] in 256
    assert v.horizons == (2.0, 4.0) and len(v.partials) == 2
    # negative in the head, and after a rounding-sized dip only
    v = _running_probe(lambda r: -1.0 / (1.0 + r) ** 4, cfg)
    assert v.verdict == "inconclusive" and v.partials == v.horizons == ()
    assert v.note == "integrand negative near r = 0"
    dip = _running_probe(lambda r: np.where(r == 3.0, -1e-14, 1.0 / (1.0 + r) ** 4), cfg)
    assert dip.verdict == whole.verdict == "converges"


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
    # the block keeps no widths: Simpson's rule takes its pairs off the nodes
    cfg = ProbeConfig(horizon_count=count, nodes_per_octave=n, r_start=start)
    nodes, per_octave, head, rows = _octaves(start, start, count, n)
    octaves = [np.linspace(start * 2.0 ** (k - 1), start * 2.0 ** k, n + 1)
               for k in range(1, count + 1)]
    assert len(nodes) == count * n + 1 and (per_octave, head) == (n, 0)
    assert not nodes.flags.writeable
    assert len(rows) == count
    for k, (row, octave) in enumerate(zip(rows, octaves)):  # views of the block, edges shared
        assert row.base is nodes and not row.flags.writeable
        assert row.tobytes() == nodes[k * n:(k + 1) * n + 1].tobytes() == octave.tobytes()
    again = _octaves(start, start, count, n)  # the same block and views for the next probe
    assert again[0] is nodes and all(a is b for a, b in zip(again[3], rows))
    assert probe_block(start, cfg) is nodes
    # from 0 the block is octave_nodes with the head over [0, r_start], read-only too
    origin = probe_block(0.0, cfg)
    assert origin.tobytes() == octave_nodes(cfg.t_max, intervals=n, head=start).tobytes()
    assert not origin.flags.writeable and probe_block(0.0, cfg) is origin


def _simpson(ys, xs):
    """Simpson's rule over the pairs of intervals of one octave, summed."""
    return ((xs[2::2] - xs[:-2:2]) / 6.0 * (ys[:-2:2] + 4.0 * ys[1::2] + ys[2::2])).sum()


def _reference_probe(integrand, start, cfg):
    """The per-octave probe loop with fresh ``np.linspace`` nodes and no shared
    state: sample one octave, check it, add its Simpson sum."""
    partials, horizons, total, left, peak = [], [], 0.0, start, 1.0
    for k in range(1, cfg.horizon_count + 1):
        right = start * 2.0 ** k
        xs = np.linspace(left, right, cfg.nodes_per_octave + 1)
        try:
            ys = np.asarray(integrand(xs), dtype=float)
        except (ExprError, ArithmeticError) as err:
            return DivergenceVerdict("inconclusive", horizons=tuple(horizons),
                                     partials=tuple(partials),
                                     note=f"integrand error on [{xs[0]:g},{xs[-1]:g}]: {err}")
        # below -1e-12 of the largest |value| before it (at least 1), and before any
        # value that is not finite: after one the running maximum is inf or nan
        low = ys < -1e-12 * np.maximum(peak, np.maximum.accumulate(np.abs(ys)))
        if low.any():
            return DivergenceVerdict("inconclusive", horizons=tuple(horizons),
                                     partials=tuple(partials),
                                     note=f"integrand negative near r = {xs[np.argmax(low)]:g}")
        if not np.all(np.isfinite(ys)):
            bad = float(xs[int(np.argmax(~np.isfinite(ys)))])
            return DivergenceVerdict("inconclusive", horizons=tuple(horizons),
                                     partials=tuple(partials),
                                     note=f"integrand not finite near r = {bad:g}")
        peak = max(peak, float(np.abs(ys).max()))
        total += float(_simpson(np.maximum(ys, 0.0), xs))
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


def _refusing_the_block(integrand, start, cfg):
    """``integrand``, but a non-domain error on the whole ``probe_block(start, cfg)``, so that
    ``sample_block`` takes it octave by octave."""
    def fn(xs):
        if len(xs) == len(probe_block(start, cfg)):
            raise TypeError("not on the whole block")
        return integrand(xs)
    return fn


@pytest.mark.parametrize("start", [0.0, 1.0])
@pytest.mark.parametrize("text", ["exp(r/64)", "log(1+r)", "sqrt(r)", "r^1.7", "1/(1+r)",
                                  "min(r, 50)", "max(r, 50)"])
def test_samples_taken_octave_by_octave_have_the_bits_of_one_call(start, text):
    # F's integrand is made from each f_j's samples, some taken in one call on the block and
    # some octave by octave after that call failed: both must give the same bits, and so
    # must F's power of their sum
    cfg = ProbeConfig()
    f, g = _radial(text), _radial("sqrt(r) + 0.5")

    def integrand(xs):
        return np.power(1.0 + (0 + f(xs) + g(xs)), 1.0 / (1.0 - 2.5))

    for fn in (f, integrand):
        whole, why = sample_block(fn, start, cfg)
        pieces, why_pieces = sample_block(_refusing_the_block(fn, start, cfg), start, cfg)
        assert why == why_pieces == "" and len(whole) == len(probe_block(start, cfg))
        assert whole.tobytes() == pieces.tobytes()


# clearly negative past r = 20.7, and past r = 999 (for the default probe from 1, in its
# last octave only): the probe stops at the last octave edge before, as the reference does
NEGATIVE_PAST = {"exp(-r) - 1e-9": 20.7, "1/(1+r)^2 - 1e-6": 999.0}


@pytest.mark.parametrize("start", [1.0, 0.37, 3.3])
@pytest.mark.parametrize("text", [
    "1/(1+r)^2", "1/(1+r)", "exp(-r)", "sqrt(r)", "r^-1.5 + 0*r",
    "1/(1+r) + 0.5*exp(-r)*r^2", "abs(r-2.5)/(1+r^3)",
    "exp(-r) - 1e-15",  # rounding-negative past r = 34.5, clipped to 0
    "-0*r",  # -0.0 everywhere
    *NEGATIVE_PAST,
])
@pytest.mark.parametrize("cfg", [ProbeConfig(), ProbeConfig(horizon_count=6, nodes_per_octave=100)])
def test_probe_is_bit_equal_to_the_per_octave_reference(start, text, cfg):
    integrand = _radial(text)
    want = repr(_reference_probe(integrand, start, cfg))  # repr tells -0.0 from 0.0
    got = _probe(integrand, start, cfg)
    assert repr(got) == want
    # a second probe on the now shared octave arrays reads the same bits
    assert repr(_probe(integrand, start, cfg)) == want
    if start * 2.0 ** cfg.horizon_count > NEGATIVE_PAST.get(text, np.inf):
        assert got.verdict == "inconclusive" and got.note.startswith("integrand negative near")
        assert all(r < NEGATIVE_PAST[text] for r in got.horizons)


@pytest.mark.parametrize("start", [1.0, 0.37, 3.3])
def test_probe_domain_error_stops_at_its_octave_like_the_reference(start):
    # sqrt(40 - r) is undefined past r = 40: the probe keeps the octaves before it
    integrand = _radial("1/(1+r)^2 + sqrt(40 - r)*0")
    got = _probe(integrand, start, ProbeConfig())
    want = _reference_probe(integrand, start, ProbeConfig())
    assert got == want
    assert got.verdict == "inconclusive" and got.note.startswith("integrand error on [")
    assert 0 < len(got.horizons) < 10 and got.horizons[-1] <= 40.0


def test_probe_negativity_scale_is_per_octave():
    # a -1e-9 dip among first-octave values of at most 1 is clearly negative there,
    # although it is tiny next to the 1e100-sized values of the last octave: the scale
    # is the largest value before the dip (at least 1); the dip sits at the node r = 1.5,
    # whatever array of nodes the probe passes
    def integrand(xs):
        ys = (xs / 2.0) ** 40
        ys[xs == 1.5] = -1e-9
        return ys

    got = _probe(integrand, 1.0, ProbeConfig())
    assert got == _reference_probe(integrand, 1.0, ProbeConfig())
    assert got.verdict == "inconclusive" and got.partials == ()
    assert got.note == "integrand negative near r = 1.5"


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
    (_dip_then_not_finite, "inconclusive"),        # a dip before a non-finite octave stops it
    (_not_finite_then_dip, "inconclusive"),        # a dip after one does not
])
def test_probe_fallback_is_bit_equal_to_the_reference(start, integrand, kind):
    cfg = ProbeConfig(nodes_per_octave=256)
    got = _probe_outcome(_probe, integrand, start, cfg)
    assert got == _probe_outcome(_reference_probe, integrand, start, cfg)
    assert got.verdict == kind
    assert got.note.startswith(("integrand error", "integrand not", "integrand negative"))


@pytest.mark.parametrize("start", [1.0, 0.37])
def test_a_scalar_callable_is_a_type_error_naming_the_shape(start):
    # integrands take and return arrays; a scalar result is refused, not looped over
    cfg = ProbeConfig(r_start=start, nodes_per_octave=64)
    with pytest.raises(TypeError, match=r"array of shape \(65,\), the shape of its input, not \(\)"):
        _probe(lambda t: 1.0, start, cfg)
    with pytest.raises(TypeError, match=r"array of shape \(129,\)"):  # the head's 2 * 64 intervals
        _running_probe(lambda t: 1.0, cfg)


def test_probe_reraises_a_non_domain_error_unless_an_earlier_octave_stops_it():
    def type_error_past_20(xs):
        if np.max(xs) > 20.0:
            raise TypeError("not an array function")
        return _bump(xs)

    def not_finite_then_type_error(xs):
        ys = type_error_past_20(xs)
        ys[(xs > 3.0) & (xs < 3.1)] = np.inf
        return ys

    def negative_then_type_error(xs):
        ys = type_error_past_20(xs)
        ys[(xs > 3.0) & (xs < 3.1)] = -1.0
        return ys

    for start in (1.0, 0.37):
        for integrand in (type_error_past_20, not_finite_then_type_error):
            got = _probe_outcome(_probe, integrand, start, ProbeConfig())
            assert got == _probe_outcome(_reference_probe, integrand, start, ProbeConfig())
        assert _probe_outcome(_probe, type_error_past_20, start, ProbeConfig()) == (
            TypeError, "not an array function")
        assert got.verdict == "inconclusive" and got.note.startswith("integrand not finite")
        # a clearly negative value is an earlier stop too
        got = _probe_outcome(_probe, negative_then_type_error, start, ProbeConfig())
        assert got == _probe_outcome(_reference_probe, negative_then_type_error, start, ProbeConfig())
        assert got.verdict == "inconclusive" and got.note.startswith("integrand negative near r = 3")


def test_block_samples_take_fn_once_on_the_block_and_hold_why_they_stop():
    calls = []

    def fn(xs):
        calls.append(xs)
        if xs[-1] > 100:
            raise ExprError("out of range")
        return 2.0 * xs

    cfg = ProbeConfig(horizon_count=8, nodes_per_octave=64)
    nodes = probe_block(1.0, cfg)
    f = BlockSamples(fn, cfg)
    # one call on the block, which raises, then one per octave up to [64, 128], which does
    octaves = _octaves(1.0, 1.0, 8, 64)[3]
    assert len(calls) == 8 and calls[0] is nodes
    assert all(a is b for a, b in zip(calls[1:], octaves))  # the same read-only views
    assert f.why == "integrand error on [64,128]: out of range"
    assert f.values.tolist() == (2.0 * nodes[:6 * 64 + 1]).tolist()
    # the probes read the record: fn is evaluated again only on the primitive's head
    v = probe_divergence(f.values, f.why, cfg, 1.0)
    assert v.verdict == "inconclusive" and len(v.horizons) == 6
    assert f.primitive is f.primitive and len(calls) == 9
    assert calls[-1] is _octaves(0.0, 1.0, 8, 64)[3][0]


def test_primitive_rows_are_made_once_per_probe_block_from_its_own_samples():
    calls = []

    def fn(xs):
        calls.append(xs)
        return 2.0 * xs

    cfg = ProbeConfig(horizon_count=5, nodes_per_octave=64)
    shared = BlockSamples(fn, cfg)
    nodes = probe_block(1.0, cfg)
    P, why = shared.primitive
    assert shared.primitive[0] is P and why == ""
    # the block, then the head of the block from 0, 2 * 64 intervals on [0, 1], once each:
    # both are read-only views, the same for every probe that reads them
    head = _octaves(0.0, 1.0, 5, 64)[3][0]
    assert len(calls) == 2 and calls[0] is nodes and calls[1] is head
    assert head.tolist() == np.linspace(0.0, 1.0, 129).tolist() and not head.flags.writeable
    # P = t^2 on the block's nodes: Simpson's and the three-point rule of 2t are exact
    assert P.shape == nodes.shape
    np.testing.assert_allclose(P, nodes ** 2, rtol=1e-14)
    other = BlockSamples(fn, ProbeConfig(horizon_count=5, nodes_per_octave=64, r_start=2.0))
    assert other.primitive[0] is not P and other.primitive[0][0] == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("f, closed, head_rtol, block_rtol", [
    ("u1", lambda t: t ** 2 / 2.0, 1e-13, 1e-13),
    # at the odd nodes the three-point rule is exact for quadratics only
    ("u1^3", lambda t: t ** 4 / 4.0, 1e-13, 1e-9),
    # t^0.5 is not smooth at the endpoint 0, so Simpson's rule on the head [0, 1] errs by
    # ~ h^1.5 there, 7.0e-6 absolute; every P on the block carries that error
    ("u1^0.5", lambda t: 2.0 / 3.0 * t ** 1.5, 2e-5, 2e-5),
])
def test_primitive_head_and_block_match_the_closed_form(f, closed, head_rtol, block_rtol):
    cfg = ProbeConfig()
    P, why = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", f).diagonals(cfg)[0].primitive
    nodes = probe_block(cfg.r_start, cfg)
    assert why == "" and P.shape == nodes.shape
    assert P[0] == pytest.approx(closed(cfg.r_start), rel=head_rtol, abs=0.0)  # the head
    np.testing.assert_allclose(P, closed(nodes), rtol=block_rtol, atol=0.0)


def test_primitive_of_an_f_not_finite_at_0_is_not_computable():
    # the head samples f at 0, where f = u1^-1 is undefined and 1/t infinite: the paper's
    # f_j are continuous on [0, inf), and the integral of 1/t over [0, 1] diverges anyway
    P, why = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1^-1").diagonals(
        ProbeConfig())[0].primitive
    assert P.shape == (0,) and why.startswith("primitive not computable: zero base")

    def reciprocal(xs):
        with np.errstate(divide="ignore"):
            return 1.0 / xs

    P, why = BlockSamples(reciprocal, ProbeConfig()).primitive
    assert P.shape == (0,) and why == "primitive not computable: integral over [0, 1] not finite"


def test_primitive_rows_stop_at_the_octave_where_f_is_unusable_and_never_raise():
    cfg = ProbeConfig(horizon_count=6, nodes_per_octave=64)

    def overflowing(xs):  # finite up to r = 20
        return np.where(xs < 20.0, 1.0, np.inf)

    P, why = BlockSamples(overflowing, cfg).primitive  # four octaves, up to r = 16
    assert P.shape == (4 * 64 + 1,) and why == "primitive not computable: integrand not finite near r = 20"

    def undefined(xs):  # a domain error from r = 40 on
        if xs[-1] > 40.0:
            raise ExprError("undefined")
        return np.ones_like(xs)

    P, why = BlockSamples(undefined, cfg).primitive
    assert P.shape == (5 * 64 + 1,) and why == "primitive not computable: integrand error on [32,64]: undefined"

    def negative(xs):  # clearly negative past r = 10, in the octave [8, 16]
        return np.where(xs <= 10.0, 1.0, -1.0)

    P, why = BlockSamples(negative, cfg).primitive
    assert P.shape == (3 * 64 + 1,) and why == "primitive not computable: integrand negative near r = 10.125"

    def undefined_at_the_head(xs):
        raise ExprError("undefined")

    P, why = BlockSamples(undefined_at_the_head, cfg).primitive
    assert P.shape == (0,) and why == "primitive not computable: undefined"
