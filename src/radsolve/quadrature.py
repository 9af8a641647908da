"""Radial grids, cumulative quadrature, and improper-integral tail probing.

``cumulative_trapezoid`` is the composite trapezoid running integral of given
node values (exact for affine integrands), the solver's.  ``cumulative_simpson`` is the
probes' fourth-order one on an even number of intervals: Simpson's rule over pairs of
intervals, and the three-point rule at the odd nodes between them.  F, the primitive of the
Keller-Osserman test and the Lair checker's nested integrals are such Simpson sums on probe
blocks (from 0, a block's head holds 2n intervals on [0, r_start]).  The product rule
for the nested radial kernels, which integrates ``s^(N-1) * w(s)`` with exact monomial
moments, lives in ``transforms.RadialKernel``, where its node-only factors are
computed once per grid.

Improper integrals are probed on geometric horizons ``start * 2^k`` on one layout,
``probe_block``: the contiguous ``octave_nodes`` of the probe's octaves (from ``start``,
or from 0 with a head of 2n intervals over ``[0, r_start]``), read-only and shared by the
probes with the same start and knobs.  ``sample_block`` is the one sampler (one call on
the block, octave by octave only if that call raises), ``probe_samples`` the one reader,
and ``probe_divergence`` both over ``[start, inf)``, each octave's area by Simpson's rule;
``usable_samples`` is the sampler's values as far as a reader takes them.
A probe's evidence ends at the last octave edge before a domain error, a non-finite or a
clearly negative value; its verdict is three-valued with an explicit ``inconclusive``
outcome, since divergence is not decidable numerically.  ``SharedSamples`` evaluates a
function probed several times, and its primitive on a block, only once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exprlang import ExprError

__all__ = [
    "RadialGrid",
    "DivergenceVerdict",
    "ProbeConfig",
    "cumulative_trapezoid",
    "cumulative_simpson",
    "probe_block",
    "probe_divergence",
    "probe_samples",
    "sample_block",
    "usable_samples",
    "classify_tail",
    "octave_nodes",
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
    return np.concatenate([[0.0], np.cumsum((values[1:] + values[:-1]) / 2.0 * np.diff(nodes))])


def _simpson_pairs(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Simpson's rule (x2 - x0) / 6 * (y0 + 4 y1 + y2) over each pair of intervals of
    ``nodes[:len(values)]``, an even number of them."""
    x = nodes[:len(values)]
    return (x[2::2] - x[:-2:2]) / 6.0 * (values[:-2:2] + 4.0 * values[1::2] + values[2::2])


def cumulative_simpson(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running integral from ``nodes[0]`` at each of ``nodes[:len(values)]``, an even number of
    intervals (or none): Simpson's rule at the even nodes (exact for cubics), and at each odd
    node the value before it plus the three-point rule w (5 y0 + 8 y1 - y2) / 12 over the
    interval of width w between them (exact for quadratics)."""
    x, out = nodes[:len(values)], np.zeros(len(values))
    out[2::2] = np.cumsum(_simpson_pairs(x, values))
    out[1::2] = out[:-1:2] + (x[1::2] - x[:-1:2]) / 12.0 * (
        5.0 * values[:-1:2] + 8.0 * values[1::2] - values[2::2])
    return out


@dataclass(frozen=True)
class ProbeConfig:
    """Knobs for improper-integral probing.  ``nodes_per_octave`` is even, since Simpson's
    rule takes the intervals in pairs.  The barrier probe (``transforms.estimate_A_inf``)
    keeps 1024 intervals per octave, whatever ``nodes_per_octave`` is."""

    horizon_count: int = 10
    r_start: float = 1.0
    rho_conv: float = 0.9
    nodes_per_octave: int = 256

    def __post_init__(self):
        if self.horizon_count < 4:
            raise ValueError("horizon_count must be >= 4")
        if not self.r_start > 0:
            raise ValueError("r_start must be positive")
        if not (0.0 < self.rho_conv < 1.0):
            raise ValueError("rho_conv must lie in (0, 1)")
        if self.nodes_per_octave < 8:
            raise ValueError("nodes_per_octave must be >= 8")
        if self.nodes_per_octave % 2:
            raise ValueError("nodes_per_octave must be even, for Simpson's pairs of intervals")
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


def _block(start: float, cfg: ProbeConfig, intervals: int | None) -> tuple:
    """``_octaves`` of a probe from ``start`` (from 0: with the head over [0, cfg.r_start]) with
    ``intervals`` per octave (None: ``cfg.nodes_per_octave``)."""
    return _octaves(start, start or cfg.r_start, cfg.horizon_count,
                    intervals or cfg.nodes_per_octave)


@functools.lru_cache(maxsize=4)
def _octaves(start: float, first: float, horizon_count: int, intervals: int) -> tuple:
    """Read-only ``octave_nodes`` from ``start`` to ``first * 2^horizon_count`` (``first`` is
    ``start``, or, from 0, the head's end), the intervals per octave, those of the head (0
    from ``start`` > 0) and a view of the nodes of each octave with both its edges (the head
    is one), the same views on every call."""
    nodes = octave_nodes(first * 2.0 ** horizon_count, start, intervals, head=first)
    nodes.flags.writeable = False
    head = 0 if start else 2 * intervals
    edges = [0, *range(head or intervals, len(nodes), intervals)]
    return nodes, intervals, head, tuple(nodes[a:b + 1] for a, b in zip(edges, edges[1:]))


def probe_block(start: float, cfg: ProbeConfig, intervals: int | None = None) -> np.ndarray:
    """The read-only nodes on which a probe from ``start`` samples its integrand, shared by
    the probes with the same start and knobs: the ``cfg.horizon_count`` octaves from ``start``,
    ``intervals`` each (``cfg.nodes_per_octave`` if None), and from 0 the head before them."""
    return _block(start, cfg, intervals)[0]


def sample_block(integrand: Callable, start: float, cfg: ProbeConfig,
                 intervals: int | None = None) -> tuple[np.ndarray, str | Exception]:
    """``integrand`` on ``probe_block(start, cfg, intervals)`` as far as it goes, and what
    stopped it ("" if nothing did): one call on the block, and if that raises, one per octave
    (the head is one) up to one that raises, whose domain error is a note and whose other
    exceptions ``probe_samples`` raises unless an earlier value ends the evidence."""
    nodes, *_, octaves = _block(start, cfg, intervals)
    try:
        return _eval_segment(integrand, nodes), ""
    except Exception:  # whatever it is, found again below octave by octave
        done, failure = [], ""
        for xs in octaves:
            try:
                done.append(_eval_segment(integrand, xs)[1 if done else 0:])
            except (ExprError, ArithmeticError) as err:
                failure = f"integrand error on [{xs[0]:g},{xs[-1]:g}]: {err}"
                break
            except Exception as err:  # raised later unless an earlier value stops the probe
                failure = err
                break
        return np.concatenate([np.empty(0), *done]), failure


def _usable(values: np.ndarray, why: str | Exception, block: tuple) -> tuple[np.ndarray, str]:
    """``values`` on ``block`` up to the last octave edge before the first unusable one, and
    why they end: that value (non-finite, or below -1e-12 of the largest |value| before it,
    at least 1), else ``why`` (raised if an exception).  Rounding negatives are clipped to 0."""
    nodes, n, head, _ = block
    finite = np.isfinite(values)
    k = len(values) if finite.all() else int(np.argmin(finite))
    clip = k > 0 and values[:k].min() < 0  # only then is there anything to check or clip
    if clip:
        low = values[:k] < -1e-12 * np.maximum(1.0, np.maximum.accumulate(np.abs(values[:k])))
        k = int(np.argmax(low)) if low.any() else k
    if k < len(values):
        why = f"integrand {'negative' if finite[k] else 'not finite'} near r = {nodes[k]:g}"
        first = head or n  # intervals of the first octave
        values = values[:0 if k <= first else k - (k - 1 - first) % n]
    elif isinstance(why, Exception):
        raise why
    return np.maximum(values, 0.0) if clip else values, why


def usable_samples(values: np.ndarray, why: str | Exception, start: float,
                   cfg: ProbeConfig) -> tuple[np.ndarray, str]:
    """``values`` and ``why`` as ``sample_block`` returns them from ``start``, cut by ``_usable``
    at the last octave edge before the first unusable value, and why they end ("" if they do
    not; an exception is raised unless an earlier value ends them)."""
    return _usable(values, why, _block(start, cfg, None))


def probe_divergence(integrand: Callable, start: float, cfg: ProbeConfig) -> DivergenceVerdict:
    """Probe ``integral of integrand over [start, inf)`` for divergence.

    Partial integrals ``I_k`` over ``[start, start * 2^k]``, k = 1 ..
    ``cfg.horizon_count``, are computed by Simpson's rule with
    ``cfg.nodes_per_octave`` intervals per octave.  With
    ``delta_k = I_k - I_{k-1}``: if every tail ratio ``delta_k / delta_{k-1}``
    is at most ``cfg.rho_conv`` the verdict is ``converges`` with limit
    ``I_K + delta_K * q / (1 - q)`` (q the last ratio); if the tail increments
    are nondecreasing the verdict is ``diverges``; anything else, or a domain
    error, a non-finite or a clearly negative integrand value at a probe point,
    is ``inconclusive`` with the octaves before that point as evidence.  The
    integrand is evaluated once, on the ``probe_block`` shared by probes with the
    same start and knobs.
    """
    if not start > 0:
        raise ValueError("start must be positive")
    return probe_samples(*sample_block(integrand, start, cfg), cfg, start)


def probe_samples(values: np.ndarray, why: str | Exception, cfg: ProbeConfig, start: float,
                  intervals: int | None = None) -> DivergenceVerdict:
    """The probe from ``start`` of an integrand given by its ``values`` on ``probe_block(start,
    cfg, intervals)`` and ``why`` they stop, as ``sample_block`` returns them.  The increments
    are the octave sums of the block's Simpson pairs (so a tail far below a head keeps its
    digits) and the partials their running sum; from 0 (``nodes[0] == 0``) partial k is
    A(r_start 2^k) - A(r_start), A the running Simpson sum (``cumulative_simpson`` at its even
    nodes), and a convergent limit includes the head."""
    nodes, n, head, _ = block = _block(start, cfg, intervals)
    ys, why = _usable(values, why, block)
    pairs = _simpson_pairs(nodes, ys)
    areas = pairs[head // 2:].reshape(-1, n // 2).sum(1)
    tail = np.cumsum(np.concatenate([[0.0], areas]))
    at = np.cumsum(pairs)[head // 2 - 1::n // 2] if head else tail  # at start, at each horizon
    horizons = tuple(nodes[head + n::n][:len(areas)].tolist())
    partials = tuple((at[1:] - at[:1]).tolist())
    if why:
        return DivergenceVerdict("inconclusive", horizons=horizons, partials=partials, note=why)
    verdict, extra, ratios = classify_tail(np.diff(tail), cfg.rho_conv)
    note = f"tail ratios: {', '.join(f'{q:.3g}' for q in ratios)}"
    limit = float(at[-1]) + extra if verdict == "converges" else None
    if head and limit is not None:
        note += f"; limit includes head over [0, {cfg.r_start:g}]"
    return DivergenceVerdict(verdict, limit, horizons, partials, note)


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


class SharedSamples:
    """``fn`` evaluated once per read-only array such as a probe block, and its
    ``primitive`` once per block: kept by identity, with the array held so that
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

    def primitive(self, cfg: ProbeConfig) -> tuple[np.ndarray, str]:
        """P(t) = integral of ``fn`` over [0, t] on ``probe_block(cfg.r_start, cfg)``, up to the
        last octave edge before ``fn`` is unusable, and why ("primitive not computable: ...";
        "" if it is usable throughout): Simpson's rule on the head of ``probe_block(0, cfg)``,
        2n intervals on [0, r_start] (so ``fn`` is sampled at 0 and must be finite there),
        plus ``cumulative_simpson`` of the block's samples."""
        block = _block(cfg.r_start, cfg, None)
        nodes, key = block[0], ("primitive", id(block[0]))
        if self._values.get(key, (None,))[0] is not nodes:
            try:
                xs = _block(0.0, cfg, None)[3][0]  # read-only, so sampled once
                head = _simpson_pairs(xs, _eval_segment(self, xs)).sum()
                if not np.isfinite(head):
                    raise ValueError(f"integral over [0, {cfg.r_start:g}] not finite")
                ys, why = _usable(*sample_block(self, cfg.r_start, cfg), block)
            except (ExprError, ArithmeticError, ValueError) as err:
                ys, why, head = np.empty(0), str(err), 0.0
            P = head + cumulative_simpson(nodes, ys)
            self._values[key] = nodes, (P, why and f"primitive not computable: {why}")
        return self._values[key][1]
