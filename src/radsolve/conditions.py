"""Classification of problem instances and the auxiliary growth conditions.

The classifier turns finite-horizon probe evidence into one of six verdicts:

* Thm1-large      growth scale F diverges and every barrier A_j diverges
* Thm1-bounded    F diverges and every A_j converges
* Thm2-bounded    F and every A_j converge and a feasible central value exists
* Thm3-large      every A_j diverges and the diagonal bracket is sublinear
* Thm3-bounded    every A_j converges and the diagonal bracket stays bounded
* inconclusive    the evidence does not settle any of the above

Every limit condition is probed on finite geometric horizons, so each
sub-verdict is three-valued (holds / fails / inconclusive) and carries its
numeric evidence.  The classifier never claims more certainty than the probes
provide: an inconclusive sub-verdict on anything required forces an
inconclusive overall verdict.

The module also houses stand-alone checkers for two classical blow-up
criteria of the p-Laplacian, each at a component's own p (the Keller-Osserman
test, the integral of P^(-1/p) with P the primitive of f, from the probe block's
samples of f and those on the head [0, r_start] of the block from 0, and the
reciprocal test, the integral of f^(-1/(p-1))), two implication cross-checks against
the divergence of F, which are the same tests at min_p, and the nested-integral
criterion for the sublinear two-component Laplacian system (which the solver can
cross-check), whose nested integrals are running Simpson sums on the block from 0.

Every probe here (F, the barriers, the growth tests, the Lair integrals) is read by
``quadrature.probe_divergence`` on a shared ``probe_block``, by Simpson's rule; a domain error,
a non-finite or a clearly negative value makes it inconclusive, with the octaves before as
evidence.  The F probe, the growth tests, C6 and the monotonicity check read f_j off the
``spec.diagonals(probe)`` its caller holds, sampled once on ``probe_block(r_start)`` (the
check, like the probes, up to a domain error), and C6 reads F itself through
``transforms.build_F``, the one F quadrature, off the F probe's integrand; Theorem 3's
diagonal bracket is read at its K + 1 octave edges r_start * 2^k (those before a domain
error), so its checks see f only up to r_start * 2^K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exprlang import Expr, ExprError, evaluate_array
from .quadrature import (
    BlockSamples,
    DivergenceVerdict,
    ProbeConfig,
    classify_tail,
    cumulative_simpson,
    probe_block,
    probe_divergence,
    sample_block,
)
from .transforms import (F_integrand, ProblemSpec, build_F, estimate_A_inf, estimate_F_inf,
                         eval_F, invert_F, node_factors)

__all__ = [
    "ConditionVerdict",
    "Classification",
    "LairInstance",
    "RemarkReport",
    "classify",
    "decide_theorem",
    "check_C6",
    "check_sublinearity",
    "check_sup_bounded",
    "check_keller_osserman",
    "check_ye_zhou",
    "check_remark_implications",
    "check_lair_proposition",
    "match_lair_form",
]

THEOREMS = ("Thm1-large", "Thm1-bounded", "Thm2-bounded",
            "Thm3-large", "Thm3-bounded", "inconclusive")


@dataclass(frozen=True)
class ConditionVerdict:
    status: str  # holds | fails | inconclusive
    evidence: dict
    note: str = ""

    def __post_init__(self):
        if self.status not in ("holds", "fails", "inconclusive"):
            raise ValueError(f"bad status {self.status!r}")


@dataclass(frozen=True)
class Classification:
    theorem: str
    conditions: dict[str, ConditionVerdict]
    beta_window: tuple[float, float] | None
    F_inf: DivergenceVerdict
    A_inf: tuple[DivergenceVerdict, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem tag {self.theorem!r}")


def _tri_from_probe(v: DivergenceVerdict, want: str) -> ConditionVerdict:
    """holds when the probe verdict equals ``want`` ('diverges' or 'converges')."""
    other = "converges" if want == "diverges" else "diverges"
    evidence = {"verdict": v.verdict, "partials": list(v.partials),
                "horizons": list(v.horizons), "limit": v.limit}
    return ConditionVerdict({want: "holds", other: "fails"}.get(v.verdict, "inconclusive"),
                            evidence, v.note)


def _barrier_tail_state(a_inf: tuple[DivergenceVerdict, ...]) -> str:
    kinds = {v.verdict for v in a_inf}
    if kinds == {"diverges"}:
        return "all_diverge"
    if kinds == {"converges"}:
        return "all_converge"
    if "inconclusive" in kinds:
        return "uncertain"
    return "mixed"


def _probe_barriers(spec: ProblemSpec, probe: ProbeConfig) -> tuple[DivergenceVerdict, ...]:
    """``estimate_A_inf`` of every component, on one set of probe nodes and kernel factors."""
    factors = node_factors(probe_block(0.0, probe), spec.N)
    return tuple(estimate_A_inf(spec, j, probe, factors) for j in range(spec.d))


def decide_theorem(*, uniform_beta: bool, c3: str, c4: str, c5: str, c6: str,
                   sublinearity: str, sup_bounded: str, barrier_tail: str) -> str:
    """Pure verdict table; every argument is a tri-state status string.

    The infinitely-many-solutions verdicts take precedence when their
    hypotheses hold, so upgrading other evidence can only refine a verdict
    within the same bounded/large facet, never flip it.  Non-uniform central
    values only ever map to those verdicts.
    """
    if barrier_tail == "all_diverge" and sublinearity == "holds":
        return "Thm3-large"
    if barrier_tail == "all_converge" and sup_bounded == "holds":
        return "Thm3-bounded"
    if not uniform_beta:
        return "inconclusive"
    if c3 == "holds":
        if barrier_tail == "all_diverge":
            return "Thm1-large"
        if barrier_tail == "all_converge":
            return "Thm1-bounded"
        return "inconclusive"
    if c4 == "holds" and c5 == "holds" and c6 == "holds":
        return "Thm2-bounded"
    return "inconclusive"


def classify(spec: ProblemSpec, central_values: tuple[float, ...] | None = None,
             probe: ProbeConfig = ProbeConfig(),
             diagonals: Sequence[BlockSamples] | None = None) -> Classification:
    """Probe all conditions and map them to the applicable theorem verdict, reading f_j off
    ``diagonals`` (``spec.diagonals(probe)`` when not given)."""
    beta = central_values if central_values is not None else (1.0,) * spec.d
    if len(beta) != spec.d:
        raise ValueError(f"expected {spec.d} central values")
    uniform = all(b == beta[0] for b in beta)

    diagonals = diagonals or spec.diagonals(probe)
    integrand = F_integrand(spec, diagonals)
    f_inf = estimate_F_inf(*integrand, probe)
    a_inf = _probe_barriers(spec, probe)
    tail = _barrier_tail_state(a_inf)

    c3 = _tri_from_probe(f_inf, "diverges")
    c4 = _tri_from_probe(f_inf, "converges")
    a_states = {"all_converge": "holds", "mixed": "fails", "all_diverge": "fails",
                "uncertain": "inconclusive"}
    c5 = ConditionVerdict(a_states[tail],
                          {"per_component": [v.verdict for v in a_inf],
                           "limits": [v.limit for v in a_inf]})

    beta_window = None
    notes: list[str] = []
    if c4.status == "holds" and c5.status == "holds":
        c6, beta_window = check_C6(spec, f_inf, a_inf, integrand, probe)
    else:
        c6 = ConditionVerdict("inconclusive", {},
                              "not applicable: requires convergent F and barrier tails")

    sublin = check_sublinearity(spec, diagonals)
    supb = check_sup_bounded(spec, diagonals)

    theorem = decide_theorem(
        uniform_beta=uniform, c3=c3.status, c4=c4.status, c5=c5.status,
        c6=c6.status, sublinearity=sublin.status, sup_bounded=supb.status,
        barrier_tail=tail)
    block = probe_block(probe.r_start, probe)  # where the F probe sampled every f_j
    for j, f in enumerate(samples.values for samples in diagonals):  # up to a domain error
        if (drop := np.flatnonzero(np.diff(f) < -1e-12 * np.maximum(1.0, np.abs(f[:-1])))).size:
            theorem = "inconclusive"  # f_j nondecreasing in each argument is so on the diagonal
            notes.append(f"f[{j}] decreases on the diagonal near s = {block[drop[0]]:g}, "
                         "against the monotonicity every theorem assumes")
    if theorem == "inconclusive" and c3.status == "holds" and tail == "mixed":
        notes.append("existence is supported (F diverges) but the barrier tails are mixed, "
                     "so neither the bounded nor the large verdict applies")
    if not uniform:
        notes.append("central values are not uniform; only the multi-solution verdicts apply")
    if theorem.startswith("Thm2") and beta_window is not None:
        inside = beta_window[0] < beta[0] < beta_window[1] if uniform else False
        notes.append(f"given central value {'lies inside' if inside else 'lies outside'} "
                     f"the feasible window ({beta_window[0]:g}, {beta_window[1]:g})")

    return Classification(
        theorem=theorem,
        conditions={"C3": c3, "C4": c4, "C5": c5, "C6": c6,
                    "sublinearity": sublin, "sup_bounded": supb},
        beta_window=beta_window,
        F_inf=f_inf,
        A_inf=a_inf,
        notes=tuple(notes),
    )


def check_C6(spec: ProblemSpec, f_inf: DivergenceVerdict, a_inf: tuple[DivergenceVerdict, ...],
             integrand: tuple[np.ndarray, str | Exception], probe: ProbeConfig
             ) -> tuple[ConditionVerdict, tuple[float, float] | None]:
    """Feasible central values for the bounded-solution condition.

    Requires convergent estimates for F and every barrier.  The condition,
    sum_j A_j(inf) < F(inf) - F(d*beta) for some beta > r_start/d, is monotone:
    F increases, so feasibility at any beta implies feasibility of everything
    below it.  F(inf) is the F probe's limit and F is ``build_F`` of that probe's
    ``integrand`` (``F_integrand``), r_start to r_start * 2^K: one quadrature for both.
    We test just above r_start/d with ``eval_F`` and, when feasible, take ``invert_F`` at
    F(inf) - sum_j A_j(inf) for the right end, capped at r_start * 2^K / d if F stays
    below that value.  The window is the open interval between the two.
    """
    if f_inf.verdict != "converges":
        raise ValueError("C6 requires a convergent F tail estimate")
    if any(v.verdict != "converges" for v in a_inf):
        raise ValueError("C6 requires convergent barrier tail estimates")
    F_lim = float(f_inf.limit)
    total_A = float(sum(v.limit for v in a_inf))
    d, anchor = spec.d, probe.r_start

    F = build_F(*integrand, probe)
    beta_lo = (anchor / d) * (1.0 + 1e-6)
    g_lo = F_lim - eval_F(F, d * beta_lo) - total_A
    evidence = {"F_limit": F_lim, "sum_A_limit": total_A, "gap_at_low": g_lo}
    if g_lo <= 0.0:
        return (ConditionVerdict("fails", evidence, "the barrier tails already exceed the "
                                 "remaining F range just above anchor/d"), None)

    target = F_lim - total_A
    if F.values[-1] < target:
        cap = float(F.s[-1]) / d
        return (ConditionVerdict("holds", {**evidence, "beta_max": cap, "capped": True},
                                 "feasible everywhere probed; right end capped at the "
                                 "probe horizon"), (anchor / d, cap))

    beta_max = float(invert_F(F, target, f_inf)) / d
    g_final = F_lim - eval_F(F, d * beta_max) - total_A
    return (ConditionVerdict("holds", {**evidence, "beta_max": beta_max,
                                       "gap_at_beta_max": g_final, "capped": False}),
            (anchor / d, beta_max))


def _bracket_at_edges(spec: ProblemSpec,
                      diagonals: Sequence[BlockSamples]) -> tuple[np.ndarray, np.ndarray, str]:
    """The octave edges r_start * 2^k of the ``diagonals``' block before the first domain
    error of an f_i, the diagonal bracket sum_i (1 + f_i(s, .., s)) ** (1 / (min_p - 1))
    there, read off their samples, and that error ("" if none)."""
    probe = diagonals[0].probe
    if isinstance(why := next((f.why for f in diagonals if f.why), ""), Exception):
        raise why  # not a domain error, and no earlier one stops the samples
    k, n = min(len(f.values) for f in diagonals), probe.nodes_per_octave
    return (probe_block(probe.r_start, probe)[:k:n],
            sum(np.power(1.0 + f.values[:k:n], 1.0 / (spec.min_p - 1.0)) for f in diagonals), why)


def check_sublinearity(spec: ProblemSpec, diagonals: Sequence[BlockSamples]) -> ConditionVerdict:
    """Does the diagonal bracket grow slower than s?

    Classifies bracket(s)/s at the probe block's octave edges like the increments of a tail
    probe: holds when its tail shrinks geometrically (so it tends to 0), fails when the tail
    is nondecreasing (bounded away from zero), inconclusive otherwise or on a domain error,
    with the edges before it as evidence.
    """
    s, bracket, why = _bracket_at_edges(spec, diagonals)
    ratios = bracket / s
    evidence = {"s": s.tolist(), "ratios": ratios.tolist()}
    if why:
        return ConditionVerdict("inconclusive", {**evidence, "error": why},
                                "bracket not evaluable on the whole probe block")
    verdict, _, tail = classify_tail(ratios, diagonals[0].probe.rho_conv)
    evidence["tail_ratios"] = list(tail)
    if verdict == "converges":
        return ConditionVerdict("holds", evidence)
    if verdict == "diverges":
        return ConditionVerdict("fails", evidence,
                                "tail ratios are nondecreasing, hence bounded away from zero")
    return ConditionVerdict("inconclusive", evidence)


def check_sup_bounded(spec: ProblemSpec, diagonals: Sequence[BlockSamples]) -> ConditionVerdict:
    """Does the diagonal bracket stay bounded as s grows?

    The bracket is nondecreasing for monotone nonlinearities, so its increments between
    the probe block's octave edges are classified exactly like the partial integrals of a
    tail probe: geometrically shrinking increments mean a finite plateau (holds),
    nondecreasing increments mean growth (fails); a domain error is inconclusive, with the
    edges before it as evidence.
    """
    s, vals, why = _bracket_at_edges(spec, diagonals)
    evidence = {"s": s.tolist(), "bracket": vals.tolist()}
    if why:
        return ConditionVerdict("inconclusive", {**evidence, "error": why},
                                "bracket not evaluable on the whole probe block")
    verdict, extra, ratios = classify_tail(np.maximum(np.diff(vals), 0.0),
                                           diagonals[0].probe.rho_conv)
    evidence["tail_ratios"] = list(ratios)
    if verdict == "converges":
        evidence["plateau"] = float(vals[-1] + extra)
        return ConditionVerdict("holds", evidence)
    if verdict == "diverges":
        return ConditionVerdict("fails", evidence, "bracket keeps growing")
    return ConditionVerdict("inconclusive", evidence)


def check_keller_osserman(f: BlockSamples, p: float) -> DivergenceVerdict:
    """Probe the Keller-Osserman test of Delta_p u = f(u) (Keller 1957, Osserman 1957), dt /
    P(t)^(1/p) from r_start, P the ``primitive`` of f from 0 on its samples' block: its
    divergence allows blow-up solutions.  f is sampled at 0, so it must be finite there, as
    the paper assumes; a primitive that vanishes or cannot be computed makes the verdict
    inconclusive with a note."""
    primitive, why = f.primitive
    with np.errstate(divide="ignore"):
        return probe_divergence(np.power(primitive, -1.0 / p), why, f.probe, f.probe.r_start)


def check_ye_zhou(f: BlockSamples, p: float) -> DivergenceVerdict:
    """Probe the reciprocal test of Delta_p u = f(u), ds / f(s)^(1/(p - 1)) from r_start, off
    the samples of f (inconclusive where f vanishes)."""
    with np.errstate(divide="ignore"):
        return probe_divergence(np.power(f.values, -1.0 / (p - 1.0)), f.why, f.probe,
                                f.probe.r_start)


@dataclass(frozen=True)
class RemarkReport:
    """Cross-check of the two integral conditions implied by a divergent F."""

    applicable: bool
    reciprocal_power: tuple[DivergenceVerdict, ...]
    primitive_root: tuple[DivergenceVerdict, ...]
    consistent: bool | None
    note: str = ""


def check_remark_implications(spec: ProblemSpec, c3_status: str,
                              diagonals: Sequence[BlockSamples],
                              known: tuple[Sequence, Sequence] | None = None) -> RemarkReport:
    """When F diverges, two companion integrals must diverge as well.

    Both are the growth tests at min_p, per component: Ye-Zhou's ds over
    f_j(s,..,s)^(1/(min_p - 1)) and Keller-Osserman's.  ``known`` holds both verdicts of
    every component at its own p, the same integrals for p_j = min_p, which then reuse
    them.  A convergent probe against a divergent F is flagged as a numerical
    contradiction worth investigating; nothing here can prove the implication.
    """
    r1, r2 = zip(*[(known[1][j], known[0][j]) if known is not None and spec.p[j] == spec.min_p
                   else (check_ye_zhou(f, spec.min_p), check_keller_osserman(f, spec.min_p))
                   for j, f in enumerate(diagonals)])

    if c3_status != "holds":
        return RemarkReport(False, r1, r2, None,
                            "not applicable: F divergence is not established")
    if any(v.verdict == "converges" for v in r1):
        return RemarkReport(True, r1, r2, False,
                            "numerical contradiction: F diverges but a reciprocal-power "
                            "integral converges; investigate probe horizons")
    if any(v.verdict == "inconclusive" for v in r1):
        return RemarkReport(True, r1, r2, None,
                            "implication undecided: some probes are inconclusive")
    return RemarkReport(True, r1, r2, True, "")


@dataclass(frozen=True)
class LairInstance:
    """Two-component Laplacian system with sublinear power couplings."""

    a1: Expr
    a2: Expr
    alpha: float
    beta_exp: float
    N: int

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 3:
            raise ValueError("N must be an integer >= 3")
        if self.alpha <= 0 or self.beta_exp <= 0:
            raise ValueError("exponents must be positive")

    @property
    def within_sublinear_range(self) -> bool:
        return self.alpha <= 1.0 and self.beta_exp <= 1.0


def check_lair_proposition(inst: LairInstance,
                           probe: ProbeConfig = ProbeConfig()) -> tuple[DivergenceVerdict, DivergenceVerdict]:
    """Probe the pair of nested integrals whose joint divergence predicts an
    explosive solution of the two-component system.

    Each integrand is t * a_out(t) * (t^(2-N) * nested(t))^exponent where nested stacks
    two weighted primitives of the other coefficient, both ``cumulative_simpson`` on
    ``probe_block(0, probe)``, the nodes where ``probe_divergence`` reads the integrand.  A
    domain error of either coefficient, or a negative or NaN value (a negative
    coefficient), ends that side's probe and makes it inconclusive.
    Outside the sublinear exponent range the probes still run, but the prediction
    is not theorem-backed; callers should consult ``within_sublinear_range``.
    """
    nodes = probe_block(0.0, probe)

    def one_side(a_out: Expr, a_in: Expr, expo: float) -> DivergenceVerdict:
        try:
            inner = cumulative_simpson(nodes, nodes * evaluate_array(a_in, {"r": nodes}))
        except ExprError as err:
            return DivergenceVerdict("inconclusive", note=f"nested kernel not probeable: {err}")
        nested = cumulative_simpson(nodes, nodes ** (inst.N - 3) * inner)
        ratio = np.concatenate([[0.0], nodes[1:] ** (2.0 - inst.N) * nested[1:]])  # 0 at t = 0
        values, why = sample_block(lambda t: t * evaluate_array(a_out, {"r": t}), 0.0, probe)
        with np.errstate(invalid="ignore"):  # a negative a_in: NaN, where the probe ends
            values = values * np.power(ratio[:len(values)], expo)
        return probe_divergence(values, why, probe, 0.0)

    return (one_side(inst.a1, inst.a2, inst.alpha),
            one_side(inst.a2, inst.a1, inst.beta_exp))


def _power_of(e: Expr, var: str) -> float | None:
    """Exponent c when ``e`` is exactly ``var`` or ``var ^ c`` with numeric c."""
    if e.kind == "var" and e.name == var:
        return 1.0
    if (e.kind == "pow" and e.args[0].kind == "var" and e.args[0].name == var
            and e.args[1].kind == "num"):
        return e.args[1].value
    return None


def match_lair_form(spec: ProblemSpec) -> LairInstance | None:
    """Recognize the two-component pure-Laplacian cross-power shape.

    Requires d = 2, both exponents equal to 2, vanishing gradient
    coefficients, and nonlinearities that are plain powers of the opposite
    component.  Returns None when the instance does not match.
    """
    if spec.d != 2 or spec.p != (2.0, 2.0):
        return None
    if not all(h.kind == "num" and h.value == 0 for h in spec.h):
        return None
    alpha = _power_of(spec.f[0], "u2")
    beta_exp = _power_of(spec.f[1], "u1")
    if alpha is None or beta_exp is None or alpha <= 0 or beta_exp <= 0:
        return None
    return LairInstance(spec.a[0], spec.a[1], alpha, beta_exp, spec.N)
