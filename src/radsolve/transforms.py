"""Problem instances and their derived transform tables.

For a component ``j`` of a problem instance the radial weight is

    H_j(r) = r^(N-1) * exp(integral_0^r h_j)

and the barrier function is

    A_j(r) = integral_0^r ( (1/H_j(t)) * integral_0^t H_j a_j )^(1/(p_j-1)) dt.

The growth scale F maps s >= r_start (``ProbeConfig.r_start``, where every probe
starts, and the "F anchor" of the messages; the paper leaves the lower limit free,
and no condition depends on it) to

    F(s) = integral_r_start^s (1 + sum_j f_j(t, ..., t))^(1/(1 - min_j p_j)) dt,

a strictly increasing function whose inverse gives the upper solution bound
(``solver.verify_bounds``) and whose values give the C6 window
(``conditions.check_C6``).  The nonlinearities take d arguments; inside F they
are evaluated on the diagonal ``f_j(s, ..., s)``.  There is one F quadrature:
``build_F`` samples the integrand on a probe layout from r_start (``probe_block``)
and takes F as the ``cumulative_simpson`` of those samples, which are also its
slopes, so ``eval_F`` is the cubic Hermite interpolant of values and slopes and
``invert_F`` bisects that same cubic.  C6 reads the F probe's own block;
``TransformTables.F`` the same layout over ``_F_OCTAVES`` octaves.
``ProblemSpec.diagonal(j)`` is f_j on the diagonal, one shared callable per spec,
so the F tail probe, C6 and the classifier's diagonal probes sample it once;
``release_diagonals`` drops them and their samples after the last reader.  The
barrier tail probe reads the kernel's ratio on the probe block from 0,
``A_INTERVALS`` intervals per octave, by Simpson's rule like every probe.

``RadialKernel`` is the one implementation of H_j and of the nested ratio
((1/H_j) * integral_0^t H_j a_j f)^(1/(p_j-1)): A_j and its tail probe
integrate it with f = 1, the solver's operator with f at the iterate; the kernels
on one node set share its ``node_factors``.  The ratio is a 0/0 at t = 0 (H_j
vanishes there); its limit is 0, and the kernel defines it so.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import exprlang
from .exprlang import Expr, ExprError, ValidationReport, evaluate_array, validate_sampled
from .quadrature import (
    DivergenceVerdict,
    ProbeConfig,
    RadialGrid,
    SharedSamples,
    cumulative_simpson,
    cumulative_trapezoid,
    probe_block,
    probe_divergence,
    probe_samples,
    sample_block,
    usable_samples,
)

__all__ = [
    "ProblemSpec",
    "FInverseRangeError",
    "NegativeCoefficientError",
    "KernelOverflowError",
    "TransformTables",
    "RadialKernel",
    "build_A",
    "build_F",
    "eval_F",
    "invert_F",
    "estimate_A_inf",
    "estimate_F_inf",
    "build_transform_tables",
    "node_factors",
    "validate_hypotheses",
]

# how far past r_start the F table of the upper bound reaches, in octaves
_F_OCTAVES = 60
# intervals per octave of the barrier tail probe, whatever ProbeConfig.nodes_per_octave is
A_INTERVALS = 1024


class FInverseRangeError(Exception):
    """Requested value lies at or beyond the finite limit of F."""


class NegativeCoefficientError(ValueError):
    """Coefficient ``key`` (h[j], a[j] or f[j]) takes negative values for arguments
    in ``interval``."""

    def __init__(self, key: str, interval: str):
        self.key, self.detail = key, f"takes negative values on {interval}"
        super().__init__(f"{key} {self.detail}")

    @classmethod
    def check(cls, values: np.ndarray, key: str, args) -> np.ndarray:
        """``values`` of ``key`` at ``args``, raised over the range of ``args`` if one is < 0."""
        if np.any(values < 0):
            raise cls(key, f"[{np.min(args):g}, {np.max(args):g}]")
        return values


class KernelOverflowError(ValueError):
    """A kernel's weighted source, or its barrier A_j, overflows on the kernel's nodes."""


@dataclass(frozen=True)
class ProblemSpec:
    """A full problem instance.

    N      space dimension (integer >= 3)
    d      number of components (integer >= 1)
    p      exponent of the p-Laplacian per component, each > 1
    h      gradient-term coefficient per component, radial expression
    a      source coefficient per component, radial expression
    f      nonlinearity per component, expression in u1 .. ud
    """

    N: int
    d: int
    p: tuple[float, ...]
    h: tuple[Expr, ...]
    a: tuple[Expr, ...]
    f: tuple[Expr, ...]
    _diagonals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 3:
            raise ValueError("N must be an integer >= 3")
        if int(self.d) != self.d or self.d < 1:
            raise ValueError("d must be an integer >= 1")
        for name in ("p", "h", "a", "f"):
            if len(getattr(self, name)) != self.d:
                raise ValueError(f"{name} must have exactly d = {self.d} entries")
        if any(not pj > 1.0 for pj in self.p):
            raise ValueError("every exponent p_j must be > 1")

    @classmethod
    def from_strings(cls, N: int, d: int, p, h, a, f) -> "ProblemSpec":
        """Build a spec from expression strings (single items allowed for d = 1)."""
        def listify(x):
            return [x] * d if isinstance(x, (str, int, float)) else list(x)
        p_list = [float(x) for x in listify(p)]
        h_list = [exprlang.parse(s, "radial") for s in listify(h)]
        a_list = [exprlang.parse(s, "radial") for s in listify(a)]
        f_list = [exprlang.parse(s, "nonlinearity", d) for s in listify(f)]
        return cls(int(N), int(d), tuple(p_list), tuple(h_list), tuple(a_list), tuple(f_list))

    @property
    def min_p(self) -> float:
        return min(self.p)

    def diagonal(self, j: int) -> SharedSamples:
        """s -> f_j(s, .., s), one shared callable per component of this spec; a negative
        value raises ``NegativeCoefficientError`` before any caller takes a power of it."""
        if j not in self._diagonals:
            names = [f"u{i}" for i in range(1, self.d + 1)]
            check = NegativeCoefficientError.check
            self._diagonals[j] = SharedSamples(lambda s, f=self.f[j]: check(
                evaluate_array(f, dict.fromkeys(names, s)), f"f[{j}]", s))
        return self._diagonals[j]

    def release_diagonals(self) -> None:
        """Drop every ``diagonal(j)`` and its samples; a later call builds a fresh one."""
        self._diagonals.clear()

    def diagonal_integrand(self) -> Callable[[np.ndarray], np.ndarray]:
        """Integrand of F: (1 + sum_j f_j(s, .., s)) ** (1 / (1 - min_p))."""
        expo = 1.0 / (1.0 - self.min_p)
        diagonals = [self.diagonal(j) for j in range(self.d)]

        def fn(s: np.ndarray) -> np.ndarray:
            s = np.asarray(s, dtype=float)
            total = np.zeros_like(s)
            for f_j in diagonals:
                total = total + f_j(s)
            return np.power(1.0 + total, expo)

        return fn


def node_factors(nodes: np.ndarray, N: int) -> tuple[np.ndarray, ...]:
    """``nodes`` and what ``RadialKernel`` takes from them alone in dimension N: the
    monomial moments m0 and m1 of each interval, the widths and r^(N-1)."""
    q = N - 1
    pow1, pow2 = nodes ** (q + 1), nodes ** (q + 2)
    m0 = (pow1[1:] - pow1[:-1]) / (q + 1)
    return nodes, m0, (pow2[1:] - pow2[:-1]) / (q + 2) - nodes[:-1] * m0, np.diff(nodes), nodes ** q


class RadialKernel:
    """H_j and the nested ratio of component ``j``, evaluated once on ``nodes``.

    With h_cum the running integral of h_j, ``weighted_a`` = exp(h_cum) * a_j and
    ``H`` = r^(N-1) * exp(h_cum), from one exp(h_cum); a_j itself is not kept (the ODE
    residual, its one other reader, evaluates it on the grid).  A negative h_j or a_j
    raises ``NegativeCoefficientError``, a weighted a_j that overflows
    ``KernelOverflowError``.  ``inner`` integrates s^(N-1) * w with w piecewise
    linear, taking the monomial moments of each interval exactly (second order even
    where s^(N-1) vanishes); ``nodes`` may be ``node_factors(nodes, spec.N)``, shared.
    """

    def __init__(self, spec: ProblemSpec, j: int, nodes: np.ndarray | tuple[np.ndarray, ...]):
        factors = nodes if isinstance(nodes, tuple) else node_factors(nodes, spec.N)
        nodes = factors[0]
        if not 0 <= j < spec.d:
            raise ValueError(f"component index {j} out of range for d = {spec.d}")
        check = NegativeCoefficientError.check
        hv = check(evaluate_array(spec.h[j], {"r": nodes}), f"h[{j}]", nodes)
        av = check(evaluate_array(spec.a[j], {"r": nodes}), f"a[{j}]", nodes)
        self.nodes = nodes
        self.expo = 1.0 / (spec.p[j] - 1.0)
        h_cum = cumulative_trapezoid(nodes, hv)
        _, self._m0, self._m1, self._widths, r_power = factors
        with np.errstate(over="ignore"):
            self.H = np.exp(h_cum)  # times r^(N-1) once weighted_a is taken
            self.weighted_a = self.H * av
            self.H *= r_power
        if not np.all(np.isfinite(self.weighted_a)):
            bad = float(nodes[int(np.argmax(~np.isfinite(self.weighted_a)))])
            raise KernelOverflowError(f"integrand not finite near t = {bad:g}")

    def inner(self, source: np.ndarray | None = None) -> np.ndarray:
        """Running integral of H_j * a_j * source (source = 1 when omitted);
        rounding-negative intervals of a nonnegative integrand are clipped to 0."""
        with np.errstate(over="ignore"):  # far out under a steep h_j; ratio() then reads inf
            smooth = self.weighted_a if source is None else self.weighted_a * source
            segs = smooth[:-1] * self._m0 + np.diff(smooth) / self._widths * self._m1
            if np.all(smooth >= 0):
                segs = np.maximum(segs, 0.0)
            return np.concatenate([[0.0], np.cumsum(segs)])

    def ratio(self, source: np.ndarray | None = None) -> np.ndarray:
        """((1/H_j) * inner(source))^(1/(p_j-1)), taken as 0 at the origin."""
        inner = self.inner(source)
        ratio = np.zeros_like(self.nodes)
        with np.errstate(invalid="ignore"):  # inf / inf far out under a steep h_j
            ratio[1:] = inner[1:] / self.H[1:]
        if np.any(ratio < 0):
            raise RuntimeError("negative inner kernel value; nonnegative inputs cannot produce this")
        return np.power(ratio, self.expo)


def build_A(spec: ProblemSpec, grid: RadialGrid, j: int,
            kernel: RadialKernel | None = None) -> np.ndarray:
    """Barrier A_j at the grid nodes as an array, the running integral of the ratio of
    ``kernel`` (component j's on the grid, built when not given) with f = 1;
    nondecreasing with A_j(0) = 0; ``KernelOverflowError`` if it is not finite."""
    kernel = kernel or RadialKernel(spec, j, grid.nodes)
    A = cumulative_trapezoid(grid.nodes, kernel.ratio())
    if not np.isfinite(A[-1]):  # nondecreasing, so a finite end means finite values
        bad = float(grid.nodes[int(np.argmax(~np.isfinite(A)))])
        raise KernelOverflowError(f"barrier A[{j}] not finite near r = {bad:g}")
    return A


@dataclass(frozen=True)
class FTable:
    """F on the nodes ``s`` of a probe layout from r_start: its running Simpson integral
    ``values`` and the integrand samples ``slopes``, as far as ``reach`` says ("60 octaves
    of the anchor", and why they stop short if they do)."""

    s: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    reach: str


def build_F(spec: ProblemSpec, probe: ProbeConfig = ProbeConfig()) -> FTable:
    """F on ``probe_block(probe.r_start, probe)`` up to the last octave edge before its
    integrand is unusable, or an f_j negative: ``cumulative_simpson`` of the integrand's
    samples there (those of the F probe, through ``spec.diagonal(j)``), which are F's
    slopes."""
    values, why = sample_block(spec.diagonal_integrand(), probe.r_start, probe)
    if isinstance(why, NegativeCoefficientError):  # F ends there, as at a domain error
        why = str(why)
    slopes, why = usable_samples(values, why, probe.r_start, probe)
    s = probe_block(probe.r_start, probe)[:len(slopes)]
    reach = f"{max(len(s) - 1, 0) // probe.nodes_per_octave} octaves of the anchor"
    return FTable(s, cumulative_simpson(s, slopes), slopes, reach + (f" ({why})" if why else ""))


def _hermite(table: FTable, knots: np.ndarray, at: np.ndarray) -> tuple:
    """The interval ``i`` of ``table`` whose ``knots`` (its nodes or its values) bracket each
    ``at``, its width, and the cubic Hermite interpolant of F's values and slopes over it as a
    function of t in [0, 1]."""
    s, F, slope = table.s, table.values, table.slopes
    i = np.clip(np.searchsorted(knots, at) - 1, 0, len(s) - 2)
    w, rise = s[i + 1] - s[i], F[i + 1] - F[i]
    c1, c3 = w * slope[i], w * (slope[i] + slope[i + 1]) - 2.0 * rise
    c2 = rise - c1 - c3
    return i, w, lambda t: F[i] + t * (c1 + t * (c2 + t * c3))


def eval_F(table: FTable, s) -> float | np.ndarray:
    """F at ``s`` >= r_start by the cubic Hermite interpolant of ``table``; an ``s`` beyond
    the table raises ``FInverseRangeError``."""
    x = np.asarray(s, dtype=float)
    if not table.s.size or np.max(x) > table.s[-1] * (1 + 1e-12):
        raise FInverseRangeError(f"F at {np.max(x):g} lies beyond {table.reach}")
    if np.min(x) < table.s[0]:
        raise ValueError(f"F is tabulated from r_start = {table.s[0]:g}")
    i, w, cubic = _hermite(table, table.s, x)
    out = cubic((x - table.s[i]) / w)
    return float(out) if x.ndim == 0 else out


def invert_F(table: FTable, ys, f_inf: DivergenceVerdict) -> np.ndarray:
    """F^-1 at ``ys`` >= 0: on the interval of ``table`` whose values bracket each y, the
    least t in [0, 1] of 53-bit resolution at which the cubic of ``eval_F`` reaches y, by
    bisection (so the result stays in that interval).

    Raises ``FInverseRangeError`` when a value lies beyond the table: at or beyond the
    limit ``f_inf`` estimates for a convergent F, or else not reached within its reach.
    """
    ys = np.asarray(ys, dtype=float)
    if np.any(ys < 0):
        raise ValueError("inverse queries must be nonnegative")
    y_max = float(ys.max()) if ys.size else 0.0
    if not table.values.size or table.values[-1] < y_max:
        if f_inf.verdict == "converges" and f_inf.limit <= y_max:
            raise FInverseRangeError(
                f"value {y_max:g} is beyond the range of the inverse "
                f"(estimated F limit {f_inf.limit:g})")
        raise FInverseRangeError(f"value {y_max:g} not reached within {table.reach}")
    i, w, cubic = _hermite(table, table.values, ys)
    lo, step = np.zeros_like(ys), 1.0
    for _ in range(53):  # to the resolution of t in [0, 1]
        step /= 2.0
        lo = lo + step * (cubic(lo + step) < ys)  # up by step where the cubic is below y
    return table.s[i] + (lo + step) * w


def estimate_F_inf(spec: ProblemSpec, probe: ProbeConfig = ProbeConfig()) -> DivergenceVerdict:
    """Tail probe of the F integral from ``probe.r_start``; a convergent limit estimates F(inf)."""
    return probe_divergence(spec.diagonal_integrand(), probe.r_start, probe)


def estimate_A_inf(spec: ProblemSpec, j: int, probe: ProbeConfig = ProbeConfig(),
                   factors: tuple[np.ndarray, ...] | None = None) -> DivergenceVerdict:
    """Tail probe of the barrier integral; a convergent limit estimates A_j(inf).

    ``probe_samples`` reads it off Simpson's rule of the kernel's ratio that ``build_A``
    takes by the trapezoid, on ``probe_block(0, probe, A_INTERVALS)`` (or its
    ``node_factors``, shared): partial k is A_j(r_start 2^k) - A_j(r_start), a convergent
    limit the full A_j(inf).
    A kernel that cannot be built (negative h_j or a_j, overflow, domain errors) is
    inconclusive, not an exception.
    """
    if not 0 <= j < spec.d:
        raise ValueError(f"component index {j} out of range for d = {spec.d}")
    try:
        kernel = RadialKernel(spec, j, factors or probe_block(0.0, probe, A_INTERVALS))
    except (ExprError, ValueError, FloatingPointError) as err:
        return DivergenceVerdict("inconclusive", note=f"barrier kernel not probeable: {err}")
    return probe_samples(kernel.ratio(), "", probe, 0.0, A_INTERVALS)


@dataclass(frozen=True)
class TransformTables:
    """What solving and verifying on one working grid needs: the kernels (built
    once, for every iteration and residual), A_j as arrays over the grid nodes,
    F and F's tail estimate (the A_j tails are the classifier's, via
    ``estimate_A_inf``).

    F and its tail estimate are made on first use (only the upper bound of a
    uniform central value reads them), once for every central value verified:
    ``build_F`` on the probe layout widened to ``_F_OCTAVES`` octaves, or to as many
    as stay below the largest double.
    """

    A: tuple[np.ndarray, ...]
    kernels: tuple[RadialKernel, ...]
    spec: ProblemSpec
    probe: ProbeConfig

    @functools.cached_property
    def F(self) -> FTable:
        # r_start = m * 2^e with m < 1, so r_start * 2^k is finite up to k = 1024 - e
        octaves = min(_F_OCTAVES, 1024 - math.frexp(self.probe.r_start)[1])
        return build_F(self.spec, replace(self.probe, horizon_count=octaves))

    @functools.cached_property
    def F_inf(self) -> DivergenceVerdict:
        return estimate_F_inf(self.spec, self.probe)


def build_transform_tables(spec: ProblemSpec, grid: RadialGrid,
                           probe: ProbeConfig = ProbeConfig()) -> TransformTables:
    """Assemble the kernels and A_j; the F table and its tail estimate follow on first use."""
    factors = node_factors(grid.nodes, spec.N)
    kernels = tuple(RadialKernel(spec, j, factors) for j in range(spec.d))
    A = tuple(build_A(spec, grid, j, kernel) for j, kernel in enumerate(kernels))
    return TransformTables(A, kernels, spec, probe)


def validate_hypotheses(spec: ProblemSpec, r_max: float, u_max: float,
                        samples: int = 50) -> dict[str, ValidationReport]:
    """Sampled evidence for the structural hypotheses: h, a nonnegative and
    f nonnegative and nondecreasing.  Failures do not stop the solver; callers
    tag the run instead."""
    out: dict[str, ValidationReport] = {}
    rbox = {"r": (0.0, r_max)}
    ubox = {f"u{i}": (0.0, u_max) for i in range(1, spec.d + 1)}
    for j in range(spec.d):
        out[f"h[{j}] nonnegative"] = validate_sampled(spec.h[j], "nonnegativity", rbox, samples)
        out[f"a[{j}] nonnegative"] = validate_sampled(spec.a[j], "nonnegativity", rbox, samples)
        fsamples = max(2, min(samples, 20 if spec.d >= 3 else samples))
        out[f"f[{j}] nonnegative"] = validate_sampled(spec.f[j], "nonnegativity", ubox, fsamples)
        out[f"f[{j}] nondecreasing"] = validate_sampled(spec.f[j], "monotone", ubox, fsamples)
    return out
