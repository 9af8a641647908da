"""Radial grids, cumulative quadrature, and improper-integral tail probing.

``cumulative_trapezoid`` is the composite trapezoid running integral of given
node values (exact for affine integrands).  The product rule for the nested
radial kernels, which integrates ``s^(N-1) * w(s)`` with exact monomial
moments, lives in ``transforms.RadialKernel``, where its node-only factors are
computed once per grid.

``CumulativeInterpolant`` is the one running-integral table of a callable:
two-point Gauss segment integrals on ``octave_nodes``, linear interpolation
between nodes, an exact inverse on the same linear pieces, and ``extend``,
which appends whole octaves without re-sampling what is already tabulated.
It is the only mutable object here; everything else is pure.

Improper integrals over ``[start, inf)`` are probed on geometric horizons
``start * 2^k`` by ``probe_divergence`` (``probe_samples`` on given samples), and
integrals over ``[0, inf)`` by ``probe_running`` (on samples ``sample_running``
takes), off the running trapezoid on ``octave_nodes`` with a dense head over
``[0, r_start]``; all share one tail verdict, three-valued with an explicit
``inconclusive`` outcome, since divergence is not decidable numerically.  A probe
calls its integrand once on all its nodes (octave by octave only if that call
raises).  Probes with the same start and knobs share one read-only block of
nodes, ``probe_block``, on which ``SharedSamples`` evaluates a function probed
several times, and its primitive, only once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .exprlang import ExprError

__all__ = [
    "RadialGrid",
    "DivergenceVerdict",
    "ProbeConfig",
    "cumulative_trapezoid",
    "probe_block",
    "probe_divergence",
    "probe_running",
    "probe_samples",
    "sample_running",
    "classify_tail",
    "octave_nodes",
    "CumulativeInterpolant",
    "SharedSamples",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid 0 = r_0 < r_1 < ... < r_M = R."""

    horizon: float
    intervals: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon R must be positive and finite")
        if self.intervals < 8:
            raise ValueError("M >= 8 is required")
        nodes = np.linspace(0.0, self.horizon, self.intervals + 1)
        nodes.flags.writeable = False
        object.__setattr__(self, "_nodes", nodes)

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes  # type: ignore[attr-defined]

    @property
    def spacing(self) -> float:
        return self.horizon / self.intervals

    def __len__(self) -> int:
        return self.intervals + 1


def cumulative_trapezoid(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Composite trapezoid running integral; output[0] = 0."""
    return np.concatenate([[0.0], np.cumsum(_trapezoids(nodes, values))])


def _trapezoids(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    return (values[1:] + values[:-1]) / 2.0 * np.diff(nodes)


@dataclass(frozen=True)
class ProbeConfig:
    """Knobs for improper-integral probing."""

    horizon_count: int = 10
    r_start: float = 1.0
    rho_conv: float = 0.9
    nodes_per_octave: int = 2048

    def __post_init__(self):
        if self.horizon_count < 4:
            raise ValueError("horizon_count must be >= 4")
        if not self.r_start > 0:
            raise ValueError("r_start must be positive")
        if not (0.0 < self.rho_conv < 1.0):
            raise ValueError("rho_conv must lie in (0, 1)")
        if self.nodes_per_octave < 8:
            raise ValueError("nodes_per_octave must be >= 8")
        # 2.0 ** 1024 raises OverflowError rather than giving inf
        if self.horizon_count >= 1024 or not math.isfinite(self.t_max):
            raise ValueError("the outermost horizon r_start * 2^horizon_count must be finite")

    @property
    def t_max(self) -> float:
        """Outermost probe horizon, ``r_start * 2^horizon_count``."""
        return self.r_start * 2.0 ** self.horizon_count


@dataclass(frozen=True)
class DivergenceVerdict:
    """Outcome of probing an improper integral of a nonnegative integrand.

    ``limit`` is set only for ``converges`` and is a geometric-tail
    extrapolation, so it is never below the last computed partial value.
    ``horizons`` and ``partials`` are the evidence trail.
    """

    verdict: str
    limit: float | None = None
    horizons: tuple[float, ...] = ()
    partials: tuple[float, ...] = ()
    note: str = ""

    def __post_init__(self):
        if self.verdict not in ("converges", "diverges", "inconclusive"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "converges":
            if self.limit is None or not np.isfinite(self.limit):
                raise ValueError("a convergent verdict needs a finite limit")
            if self.partials and self.limit < self.partials[-1] - 1e-12 * (1 + abs(self.limit)):
                raise ValueError("extrapolated limit below last partial value")
        elif self.limit is not None:
            raise ValueError("limit is only meaningful for a convergent verdict")


def classify_tail(deltas: Sequence[float], rho_conv: float) -> tuple[str, float, tuple[float, ...]]:
    """Classify a sequence of nonnegative increments.

    The tail is the last ``max(2, n // 2)`` increments.  Returns
    ``(verdict, tail_extrapolation, tail_ratios)`` where the extrapolation is
    ``delta_last * q / (1 - q)`` for a convergent tail (0 when the increments
    vanished) and 0 otherwise.
    """
    d = np.asarray(deltas, dtype=float)
    n = len(d)
    if n < 3:
        raise ValueError("need at least 3 increments")
    tail_len = max(2, n // 2)
    ks = range(n - tail_len, n)

    ratios = []
    for k in ks:
        prev, cur = d[k - 1], d[k]
        if prev == 0.0:
            ratios.append(0.0 if cur == 0.0 else np.inf)
        else:
            ratios.append(cur / prev)
    ratios_t = tuple(float(x) for x in ratios)

    if all(q <= rho_conv for q in ratios):
        q = ratios[-1]
        extra = 0.0 if d[-1] == 0.0 else float(d[-1] * q / (1.0 - q))
        return "converges", extra, ratios_t
    slack = 1e-12
    nondecreasing = all(d[k] >= d[k - 1] * (1.0 - slack) for k in ks)
    if nondecreasing:
        return "diverges", 0.0, ratios_t
    return "inconclusive", 0.0, ratios_t


def _eval_segment(integrand: Callable, xs: np.ndarray) -> np.ndarray:
    arr = np.asarray(integrand(xs), dtype=float)
    if arr.shape != xs.shape:
        raise TypeError(f"integrand must return an array of shape {xs.shape}, "
                        f"the shape of its input, not {arr.shape}")
    return arr


def _samples(integrand: Callable, nodes: np.ndarray, rows: Sequence[np.ndarray],
             joint: int = 0) -> tuple[np.ndarray, str | Exception]:
    """Integrand values on ``nodes`` as far as they go, and what stopped them ("" if nothing
    did): one call on ``nodes``, and if that raises, one per row of ``rows`` (views covering
    ``nodes`` in order, each repeating ``joint`` nodes of the one before) up to one that raises."""
    try:
        return _eval_segment(integrand, nodes), ""
    except Exception:  # whatever it is, found again below octave by octave
        done, failure = [], ""
        for xs in rows:
            try:
                done.append(_eval_segment(integrand, xs)[joint if done else 0:])
            except (ExprError, ArithmeticError) as err:
                failure = f"integrand error on [{xs[0]:g},{xs[-1]:g}]: {err}"
                break
            except Exception as err:  # raised below unless an earlier octave stops
                failure = err
                break
        return np.concatenate([np.empty(0), *done]), failure


def _usable(values: np.ndarray, failure: str | Exception,
            rows: Sequence[np.ndarray]) -> tuple[np.ndarray, str]:
    """``values`` as rows of ``rows``, clipped at zero up to the first unusable one, and why:
    a non-finite value, else ``failure`` (raised if an exception).  Clear negatives raise."""
    values = np.reshape(values, (-1, len(rows[0])))
    finite = np.isfinite(values)
    usable = finite.all(axis=1)
    stop = len(values) if usable.all() else int(np.argmin(usable))
    ys = values[:stop]
    low = ys.min(axis=1)
    if (low < 0).any():  # only then is there anything to check or clip
        negative = low < -1e-12 * np.maximum(1.0, np.abs(ys).max(axis=1))
        if negative.any():
            raise ValueError(f"integrand is negative (min {float(low[np.argmax(negative)]):g}); "
                             "probe requires nonnegative data")
        ys = np.maximum(ys, 0.0)
    if stop < len(values):
        failure = f"integrand not finite near r = {float(rows[stop][np.argmin(finite[stop])]):g}"
    elif isinstance(failure, Exception):
        raise failure
    return ys, failure


@functools.lru_cache(maxsize=4)
def _octaves(start: float, horizon_count: int, nodes_per_octave: int) -> tuple:
    """Read-only nodes of the octaves [start 2^(k-1), start 2^k], k = 1 ..
    horizon_count, as one flat array, as one view of it per octave, and the
    interval widths of each octave (one row per octave)."""
    edges = [start * 2.0 ** k for k in range(horizon_count + 1)]
    nodes = np.concatenate([np.linspace(left, right, nodes_per_octave + 1)
                            for left, right in zip(edges, edges[1:])])
    widths = np.diff(nodes.reshape(horizon_count, -1), axis=1)
    nodes.flags.writeable = widths.flags.writeable = False
    return nodes, tuple(nodes.reshape(horizon_count, -1)), widths


def probe_block(start: float, cfg: ProbeConfig) -> np.ndarray:
    """The read-only nodes on which a probe from ``start`` samples its integrand: the
    ``cfg.horizon_count`` octaves' nodes in order, each inner octave edge twice."""
    return _octaves(start, cfg.horizon_count, cfg.nodes_per_octave)[0]


def probe_divergence(integrand: Callable, start: float, cfg: ProbeConfig) -> DivergenceVerdict:
    """Probe ``integral of integrand over [start, inf)`` for divergence.

    Partial integrals ``I_k`` over ``[start, start * 2^k]``, k = 1 ..
    ``cfg.horizon_count``, are computed by composite trapezoid with
    ``cfg.nodes_per_octave`` intervals per octave.  With
    ``delta_k = I_k - I_{k-1}``: if every tail ratio ``delta_k / delta_{k-1}``
    is at most ``cfg.rho_conv`` the verdict is ``converges`` with limit
    ``I_K + delta_K * q / (1 - q)`` (q the last ratio); if the tail increments
    are nondecreasing the verdict is ``diverges``; anything else, or a domain
    error or non-finite integrand value at a probe point, is ``inconclusive``
    with the octaves before that point as evidence.  The integrand is
    evaluated once, on the ``probe_block`` shared by probes with the same start
    and knobs; each octave is checked on its own scale.
    """
    if not start > 0:
        raise ValueError("start must be positive")
    nodes, rows, _ = _octaves(start, cfg.horizon_count, cfg.nodes_per_octave)
    return probe_samples(*_samples(integrand, nodes, rows), cfg, start)


def probe_samples(values: np.ndarray, why: str | Exception, cfg: ProbeConfig,
                  start: float | None = None) -> DivergenceVerdict:
    """``probe_divergence`` from ``start`` (``cfg.r_start`` if None) on integrand
    ``values`` taken on its probe block already, up to the octave ``why`` stops at."""
    _, rows, widths = _octaves(start or cfg.r_start, cfg.horizon_count, cfg.nodes_per_octave)
    ys, why = _usable(values, why, rows)
    areas = (widths[:len(ys)] * (ys[:, 1:] + ys[:, :-1]) / 2.0).sum(1)  # np.trapezoid's, per octave
    return _tail_verdict(areas, tuple(float(xs[-1]) for xs in rows[:len(ys)]), why, cfg.rho_conv)


def _tail_verdict(areas: np.ndarray, horizons: tuple[float, ...], why: str, rho_conv: float,
                  at: np.ndarray | None = None) -> DivergenceVerdict:
    """Verdict on octave ``areas`` up to ``horizons``, usable up to ``why``: increments
    from the areas summed from 0.0, partials and limit from ``at`` [start, *horizons]."""
    tail = np.cumsum(np.concatenate([[0.0], areas]))
    at = tail if at is None else at
    partials = tuple((at[1:] - at[:1]).tolist())
    if why:
        return DivergenceVerdict("inconclusive", horizons=horizons, partials=partials, note=why)
    verdict, extra, ratios = classify_tail(np.diff(tail), rho_conv)
    note = f"tail ratios: {', '.join(f'{q:.3g}' for q in ratios)}"
    limit = float(at[-1]) + extra if verdict == "converges" else None
    return DivergenceVerdict(verdict, limit, horizons, partials, note)


def sample_running(integrand: Callable, nodes: np.ndarray,
                   cfg: ProbeConfig) -> tuple[np.ndarray, str | Exception]:
    """``integrand`` on ``probe_running``'s nodes (one call, else the head, then by octave)
    up to what stops it, and why ("" if nothing did): an error, or, before any non-finite
    value, one below -1e-12 of the largest so far (at least 1): "integrand negative near r = x"."""
    n = (len(nodes) - 1) // (cfg.horizon_count + 2)  # per octave; twice over the head
    rows = [nodes[:2 * n + 1]] + [nodes[i:i + n + 1] for i in range(2 * n, len(nodes) - 1, n)]
    values, why = _samples(integrand, nodes, rows, joint=1)
    ys = values[:np.argmin(np.isfinite(np.append(values, np.inf)))]  # up to a non-finite one
    negative = np.flatnonzero(ys < -1e-12 * np.maximum(1.0, np.maximum.accumulate(np.abs(ys))))
    if negative.size:  # the values end at the last octave edge before the first one
        k = negative[0]
        values = values[:2 * n + 1 + n * ((k - 2 * n - 1) // n) if k > 2 * n else 0]
        why = f"integrand negative near r = {nodes[k]:g}"
    return values, why


def probe_running(nodes: np.ndarray, values: np.ndarray, why: str | Exception,
                  cfg: ProbeConfig) -> DivergenceVerdict:
    """Probe ``integral over [0, inf)`` off A = ``cumulative_trapezoid`` of ``values`` on
    ``nodes = octave_nodes(cfg.t_max, intervals=n, head=cfg.r_start)`` (or up to the octave
    edge where ``why`` stopped them): I_k = A(r_start 2^k) - A(r_start), increments the
    octave sums of A's trapezoids (so a tail far below the head keeps its digits),
    evidence up to a non-finite value or ``why``."""
    n = (len(nodes) - 1) // (cfg.horizon_count + 2)  # per octave; twice over the head
    segs = _trapezoids(nodes[:len(values)], values)
    running = np.cumsum(segs)  # A at nodes[1:]
    at = running[2 * n - 1::n]  # A(r_start 2^k), k = 0 .. as far as the values go
    if not np.isfinite(running[-1:]).all():  # a running sum stays non-finite once it is
        bad = nodes[1 + np.argmin(np.isfinite(running))]
        at, why = at[np.isfinite(at)], f"integrand not finite near r = {bad:g}"
    elif isinstance(why, Exception):
        raise why
    areas = segs[2 * n:].reshape(-1, n)[:max(len(at) - 1, 0)].sum(1)
    v = _tail_verdict(areas, tuple(nodes[2 * n::n][1:len(at)].tolist()), why, cfg.rho_conv, at)
    return v if v.verdict != "converges" else replace(
        v, note=f"{v.note}; limit includes head over [0, {cfg.r_start:g}]")


def octave_nodes(t_max: float, lo: float = 0.0, intervals: int = 1024,
                 head: float = 1.0) -> np.ndarray:
    """Nodes on [lo, t_max] in octaves [t, 2t] of ``intervals`` intervals each,
    the last one clipped at ``t_max``, so the relative resolution stays roughly
    constant out to large ``t_max``.  From ``lo = 0`` the first piece is
    [0, head] with ``2 * intervals`` intervals."""
    if not t_max > lo >= 0:
        raise ValueError("need 0 <= lo < t_max")
    if lo == 0.0:
        pieces, left = [np.linspace(0.0, min(head, t_max), 2 * intervals + 1)], head
    else:
        pieces, left = [np.array([lo])], lo
    while left < t_max:
        right = min(2.0 * left, t_max)
        pieces.append(np.linspace(left, right, intervals + 1)[1:])
        left = right
    return np.concatenate(pieces)


class CumulativeInterpolant:
    """Running integral of ``fn`` from ``lo``, tabulated on ``octave_nodes``.

    ``s`` holds the nodes and ``values`` the running integral there, built
    from a two-point Gauss rule per interval, so ``fn`` is never evaluated
    outside (lo, t_max).  Between nodes the integral is linear, and
    ``inverse`` solves those same linear pieces exactly.  ``extend`` appends
    whole octaves and accumulates them in one sequential sum with the last
    tabulated value, so a table grown octave by octave holds the same bits as
    one built in a single step.
    """

    def __init__(self, fn: Callable, t_max: float, lo: float = 0.0, intervals: int = 1024):
        self._fn = fn
        self._intervals = intervals
        self.lo = float(lo)
        self.s = octave_nodes(t_max, self.lo, intervals)
        self.values = self._running(self.s, 0.0)

    @property
    def t_max(self) -> float:
        return float(self.s[-1])

    def _running(self, nodes: np.ndarray, start: float) -> np.ndarray:
        """``start`` followed by the running integral over consecutive ``nodes``."""
        mid = (nodes[:-1] + nodes[1:]) / 2.0
        half = np.diff(nodes) / 2.0
        off = half / np.sqrt(3.0)
        xs = np.concatenate([mid - off, mid + off])
        vals = _eval_segment(self._fn, xs)
        if not np.all(np.isfinite(vals)):
            bad = float(xs[int(np.argmax(~np.isfinite(vals)))])
            raise ValueError(f"integrand not finite near t = {bad:g}")
        segs = half * (vals[:len(mid)] + vals[len(mid):])
        return np.cumsum(np.concatenate([[start], segs]))

    def extend(self, t: float) -> None:
        """Append whole octaves until the table reaches ``t``."""
        if t <= self.t_max:
            return
        octaves = math.ceil(math.log2(t / self.t_max))
        nodes = octave_nodes(self.t_max * 2.0 ** octaves, self.t_max, self._intervals)
        self.values = np.concatenate([self.values, self._running(nodes, self.values[-1])[1:]])
        self.s = np.concatenate([self.s, nodes[1:]])

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.lo * (1 - 1e-12)) or np.any(t_arr > self.t_max * (1 + 1e-12)):
            raise ValueError(f"query outside [{self.lo:g}, {self.t_max:g}]")
        out = np.interp(t_arr, self.s, self.values)
        return float(out) if t_arr.ndim == 0 else out

    def inverse(self, ys: np.ndarray) -> np.ndarray:
        """The node-linear inverse at ``ys`` in [0, values[-1]]; the table
        must increase strictly."""
        hi = np.clip(np.searchsorted(self.values, ys, side="left"), 1, len(self.values) - 1)
        f0, f1 = self.values[hi - 1], self.values[hi]
        s0, s1 = self.s[hi - 1], self.s[hi]
        return s0 + (ys - f0) * (s1 - s0) / (f1 - f0)


class SharedSamples:
    """``fn`` evaluated once per read-only array such as a probe block, and its
    ``primitive_rows`` once per block: kept by identity, with the array held so that
    its id stays unique, as are domain errors; writeable arrays are not kept."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self._fn, self._values = fn, {}

    def __call__(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.flags.writeable:
            return self._fn(xs)
        if self._values.get(id(xs), (None,))[0] is not xs:
            try:
                self._values[id(xs)] = xs, self._fn(xs)
            except (ExprError, ArithmeticError) as err:
                self._values[id(xs)] = xs, err.with_traceback(None)
        out = self._values[id(xs)][1]
        if isinstance(out, Exception):
            raise out
        return out

    def primitive_rows(self, cfg: ProbeConfig) -> tuple[np.ndarray, str]:
        """P(t) = integral of ``fn`` over [0, t] on the probe block from ``cfg.r_start``, up
        to the first octave where ``fn`` is unusable, and why ("primitive not computable:
        ..."; "" if none is): the Gauss rule of ``CumulativeInterpolant`` on [0, r_start],
        which never evaluates ``fn`` at 0, plus the trapezoids of the block's samples."""
        nodes, rows, _ = _octaves(cfg.r_start, cfg.horizon_count, cfg.nodes_per_octave)
        if self._values.get(id(rows), (None,))[0] is not rows:
            try:
                head = CumulativeInterpolant(self, float(nodes[0])).values[-1]
                ys, why = _usable(*_samples(self, nodes, rows), rows)
            except (ExprError, ArithmeticError, ValueError) as err:
                ys, why, head = np.empty((0, len(rows[0]))), str(err), 0.0
            steps = _trapezoids(nodes[:ys.size], ys.ravel())  # 0 across repeated octave edges
            P = np.cumsum(np.concatenate([[head], steps]))[:ys.size].reshape(ys.shape)
            self._values[id(rows)] = rows, (P, why and f"primitive not computable: {why}")
        return self._values[id(rows)][1]
