"""Problem instances and their derived transform tables.

For a component ``j`` of a problem instance the radial weight is

    H_j(r) = r^(N-1) * exp(integral_0^r h_j)

and the barrier function is

    A_j(r) = integral_0^r ( (1/H_j(t)) * integral_0^t H_j a_j )^(1/(p_j-1)) dt.

The growth scale F maps s >= anchor to

    F(s) = integral_anchor^s (1 + sum_j f_j(t, ..., t))^(1/(1 - min_j p_j)) dt,

a strictly increasing function whose tabulated inverse gives the upper
solution bound and the right end of the C6 window (``conditions.check_C6``).
The nonlinearities take d arguments; inside F they are evaluated on the
diagonal ``f_j(s, ..., s)``.  F is a ``quadrature.CumulativeInterpolant`` from
the anchor: ``build_F`` tabulates its first octave, and ``eval_F`` and
``invert_F`` extend it in place by whole octaves as queries need, so every
query against one table reads the same tabulation.  ``ProblemSpec.diagonal(j)``
is f_j on the diagonal, one shared callable per spec, so the F tail probe and
the classifier's diagonal probes sample it once.

``RadialKernel`` is the one implementation of H_j and of the nested ratio
((1/H_j) * integral_0^t H_j a_j f)^(1/(p_j-1)): A_j and its tail probe
integrate it with f = 1, the solver's operator with f at the iterate.  The ratio
is a 0/0 at t = 0 (H_j vanishes there); its limit is 0, and the kernel defines it so.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import exprlang
from .exprlang import Expr, ExprError, ValidationReport, evaluate_array, validate_sampled
from .quadrature import (
    CumulativeInterpolant,
    DivergenceVerdict,
    ProbeConfig,
    RadialGrid,
    SharedSamples,
    cumulative_trapezoid,
    octave_nodes,
    probe_divergence,
    probe_from_origin,
)

__all__ = [
    "ProblemSpec",
    "FInverseRangeError",
    "NegativeCoefficientError",
    "TransformTables",
    "RadialKernel",
    "build_A",
    "build_F",
    "eval_F",
    "invert_F",
    "estimate_A_inf",
    "estimate_F_inf",
    "build_transform_tables",
    "validate_hypotheses",
]

# intervals per octave of the F table: linear interpolation between nodes then
# errs by at most s^2 |F''| / (8 * 4096^2), which is 7.5e-9 where s^2 |F''| <= 1
# (as for the shipped configs)
_F_INTERVALS = 4096
# how far past the anchor the inverse looks for a value before giving up
_F_OCTAVES = 60


class FInverseRangeError(Exception):
    """Requested value lies at or beyond the finite limit of F."""


class NegativeCoefficientError(ValueError):
    """Coefficient ``key`` (h[j] or a[j]) takes negative values on ``interval``."""

    def __init__(self, key: str, interval: str):
        self.key, self.detail = key, f"takes negative values on {interval}"
        super().__init__(f"{key} {self.detail}")


@dataclass(frozen=True)
class ProblemSpec:
    """A full problem instance.

    N      space dimension (integer >= 3)
    d      number of components (integer >= 1)
    p      exponent of the p-Laplacian per component, each > 1
    h      gradient-term coefficient per component, radial expression
    a      source coefficient per component, radial expression
    f      nonlinearity per component, expression in u1 .. ud
    anchor lower limit of the F integral, > 0
    """

    N: int
    d: int
    p: tuple[float, ...]
    h: tuple[Expr, ...]
    a: tuple[Expr, ...]
    f: tuple[Expr, ...]
    anchor: float = 1.0
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
        if not (np.isfinite(self.anchor) and self.anchor > 0):
            raise ValueError("anchor must be positive and finite")

    @classmethod
    def from_strings(cls, N: int, d: int, p, h, a, f, anchor: float = 1.0) -> "ProblemSpec":
        """Build a spec from expression strings (single items allowed for d = 1)."""
        def listify(x):
            return [x] * d if isinstance(x, (str, int, float)) else list(x)
        p_list = [float(x) for x in listify(p)]
        h_list = [exprlang.parse(s, "radial") for s in listify(h)]
        a_list = [exprlang.parse(s, "radial") for s in listify(a)]
        f_list = [exprlang.parse(s, "nonlinearity", d) for s in listify(f)]
        return cls(int(N), int(d), tuple(p_list), tuple(h_list), tuple(a_list),
                   tuple(f_list), float(anchor))

    @property
    def min_p(self) -> float:
        return min(self.p)

    def diagonal(self, j: int) -> SharedSamples:
        """s -> f_j(s, .., s), one shared callable per component of this spec."""
        if j not in self._diagonals:
            names = [f"u{i}" for i in range(1, self.d + 1)]
            self._diagonals[j] = SharedSamples(
                lambda s, f=self.f[j]: evaluate_array(f, dict.fromkeys(names, s)))
        return self._diagonals[j]

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


class RadialKernel:
    """H_j and the nested ratio of component ``j``, evaluated once on ``nodes``.

    ``h_cum`` is the running integral of h_j, ``weighted_a`` = exp(h_cum) * a_j
    and ``H`` = r^(N-1) * exp(h_cum), from one exp(h_cum).  A negative h_j or a_j
    raises ``NegativeCoefficientError``, a weighted a_j that overflows
    ``ValueError``.  ``inner`` integrates s^(N-1) * w with w piecewise linear,
    taking the monomial moments of each interval exactly (second order even where
    s^(N-1) vanishes); the moments and widths, node-only, are computed here once.
    """

    def __init__(self, spec: ProblemSpec, j: int, nodes: np.ndarray):
        if not 0 <= j < spec.d:
            raise ValueError(f"component index {j} out of range for d = {spec.d}")
        hv = evaluate_array(spec.h[j], {"r": nodes})
        if np.any(hv < 0):
            raise NegativeCoefficientError(f"h[{j}]", f"[0, {nodes[-1]:g}]")
        av = evaluate_array(spec.a[j], {"r": nodes})
        if np.any(av < 0):
            raise NegativeCoefficientError(f"a[{j}]", f"[0, {nodes[-1]:g}]")
        self.nodes = nodes
        self.expo = 1.0 / (spec.p[j] - 1.0)
        self.a = av
        self.h_cum = cumulative_trapezoid(nodes, hv)
        q = spec.N - 1
        pow1, pow2 = nodes ** (q + 1), nodes ** (q + 2)
        self._m0 = (pow1[1:] - pow1[:-1]) / (q + 1)
        self._m1 = (pow2[1:] - pow2[:-1]) / (q + 2) - nodes[:-1] * self._m0
        self._widths = np.diff(nodes)
        with np.errstate(over="ignore"):
            self.H = np.exp(self.h_cum)  # times r^(N-1) once weighted_a is taken
            self.weighted_a = self.H * av
            self.H *= nodes ** q
        if not np.all(np.isfinite(self.weighted_a)):
            bad = float(nodes[int(np.argmax(~np.isfinite(self.weighted_a)))])
            raise ValueError(f"integrand not finite near t = {bad:g}")

    def inner(self, source: np.ndarray | None = None) -> np.ndarray:
        """Running integral of H_j * a_j * source (source = 1 when omitted);
        rounding-negative intervals of a nonnegative integrand are clipped to 0."""
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
    nondecreasing with A_j(0) = 0."""
    kernel = kernel or RadialKernel(spec, j, grid.nodes)
    return cumulative_trapezoid(grid.nodes, kernel.ratio())


def build_F(spec: ProblemSpec) -> CumulativeInterpolant:
    """The first octave [anchor, 2 * anchor] of the F table."""
    return CumulativeInterpolant(spec.diagonal_integrand(), 2.0 * spec.anchor,
                                 lo=spec.anchor, intervals=_F_INTERVALS)


def eval_F(table: CumulativeInterpolant, s) -> float | np.ndarray:
    """F at ``s`` >= anchor, extending the table in place to cover ``s``; an ``s``
    beyond ``_F_OCTAVES`` octaves of the anchor, the reach of ``invert_F``, raises
    ``FInverseRangeError``."""
    s_max = float(np.max(s))
    if s_max > table.lo * 2.0 ** _F_OCTAVES:
        raise FInverseRangeError(f"F at {s_max:g} lies beyond {_F_OCTAVES} octaves of the anchor")
    table.extend(s_max)
    return table(s)


def invert_F(table: CumulativeInterpolant, ys: np.ndarray,
             f_inf: DivergenceVerdict) -> np.ndarray:
    """F^-1 at ``ys`` >= 0, extending the table in place until it covers them.

    Raises ``FInverseRangeError`` when a value lies at or beyond the limit
    ``f_inf`` estimates for a convergent F, or is not reached within
    ``_F_OCTAVES`` octaves of the anchor.
    """
    ys = np.asarray(ys, dtype=float)
    if np.any(ys < 0):
        raise ValueError("inverse queries must be nonnegative")
    y_max = float(ys.max()) if ys.size else 0.0
    while table.values[-1] < y_max:
        if f_inf.verdict == "converges" and f_inf.limit <= y_max:
            raise FInverseRangeError(
                f"value {y_max:g} is beyond the range of the inverse "
                f"(estimated F limit {f_inf.limit:g})")
        if table.t_max >= table.lo * 2.0 ** _F_OCTAVES:
            raise FInverseRangeError(
                f"value {y_max:g} not reached within {_F_OCTAVES} octaves of the anchor")
        table.extend(2.0 * table.t_max)
    if not np.all(np.diff(table.values) > 0):
        raise RuntimeError("F table is not strictly increasing; integrand underflowed")
    return table.inverse(ys)


def estimate_F_inf(spec: ProblemSpec, probe: ProbeConfig = ProbeConfig()) -> DivergenceVerdict:
    """Tail probe of the F integral from the anchor; a convergent limit estimates F(inf)."""
    return probe_divergence(spec.diagonal_integrand(), spec.anchor, probe)


def estimate_A_inf(spec: ProblemSpec, j: int,
                   probe: ProbeConfig = ProbeConfig()) -> DivergenceVerdict:
    """Tail probe of the barrier integral; a convergent limit estimates A_j(inf).

    The kernel's ratio on ``octave_nodes(probe.t_max)`` is probed from the origin,
    interpolated linearly, so each partial is the trapezoid ``build_A`` takes of the
    same ratio and a convergent limit is the full A_j(inf).  (Interpolating the
    running integral and H_j apart misreads the ratio near 0, where the integral
    grows like t^N.)  A kernel that cannot be built (negative h_j or a_j, overflow
    far out, domain errors) yields an inconclusive verdict, not an exception.
    """
    if not 0 <= j < spec.d:
        raise ValueError(f"component index {j} out of range for d = {spec.d}")
    nodes = octave_nodes(probe.t_max)
    try:
        kernel = RadialKernel(spec, j, nodes)
    except (ExprError, ValueError, FloatingPointError) as err:
        return DivergenceVerdict("inconclusive", note=f"barrier kernel not probeable: {err}")
    ratio = kernel.ratio()
    return probe_from_origin(lambda t: np.interp(t, nodes, ratio), probe)


@dataclass(frozen=True)
class TransformTables:
    """What solving and verifying on one working grid needs: the kernels (built
    once, for every iteration and residual), A_j as arrays over the grid nodes,
    F and F's tail estimate (the A_j tails are the classifier's, via
    ``estimate_A_inf``).

    F and its tail estimate are made on first use (only the upper bound of a
    uniform central value reads them); the F table then grows in place as
    ``eval_F`` and ``invert_F`` need, shared by every central value verified.
    """

    A: tuple[np.ndarray, ...]
    kernels: tuple[RadialKernel, ...]
    spec: ProblemSpec
    probe: ProbeConfig

    @functools.cached_property
    def F(self) -> CumulativeInterpolant:
        return build_F(self.spec)

    @functools.cached_property
    def F_inf(self) -> DivergenceVerdict:
        return estimate_F_inf(self.spec, self.probe)


def build_transform_tables(spec: ProblemSpec, grid: RadialGrid,
                           probe: ProbeConfig = ProbeConfig()) -> TransformTables:
    """Assemble the kernels and A_j; the F table and its tail estimate follow on first use."""
    kernels = tuple(RadialKernel(spec, j, grid.nodes) for j in range(spec.d))
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
