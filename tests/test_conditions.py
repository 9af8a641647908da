import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from radsolve import conditions
from radsolve.conditions import (
    LairInstance,
    check_C6,
    check_keller_osserman,
    check_lair_proposition,
    check_remark_implications,
    check_sublinearity,
    check_sup_bounded,
    check_ye_zhou,
    classify,
    decide_theorem,
    match_lair_form,
)
from radsolve.exprlang import parse
from radsolve.quadrature import ProbeConfig
from radsolve import quadrature, transforms
from radsolve.cli import main
from radsolve.transforms import ProblemSpec, estimate_A_inf, estimate_F_inf

# oracle values from high-precision quadrature
F_INF_CUBIC = 0.37355072789142418
BETA_MAX_CUBIC = 1.6644106774665461  # root of F(beta) = F_inf - A_inf


def spec_linear_flat():
    return ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1")


def spec_linear_decaying():
    return ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^(-4)", "u1")


def spec_cubic_decaying():
    return ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^(-4)", "u1^3")


def test_classify_thm1_large():
    c = classify(spec_linear_flat(), (1.0,))
    assert c.theorem == "Thm1-large"
    assert c.conditions["C3"].status == "holds"
    assert c.conditions["C5"].status == "fails"


def test_classify_thm1_bounded():
    c = classify(spec_linear_decaying(), (1.0,))
    assert c.theorem == "Thm1-bounded"
    assert c.conditions["C3"].status == "holds"
    assert c.conditions["C5"].status == "holds"


def test_classify_thm2_bounded_with_window():
    c = classify(spec_cubic_decaying(), (1.2,))
    assert c.theorem == "Thm2-bounded"
    for name in ("C4", "C5", "C6"):
        assert c.conditions[name].status == "holds"
    lo, hi = c.beta_window
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(BETA_MAX_CUBIC, rel=0.01)


def test_classify_mixed_barrier_tails_is_inconclusive():
    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"],
                                    ["1", "(1+r)^(-4)"], ["u2", "u1"])
    c = classify(spec, (1.0, 1.0))
    assert c.theorem == "inconclusive"
    assert c.conditions["C3"].status == "holds"
    assert any("mixed" in n for n in c.notes)


def test_classify_sublinear_growing_barrier_is_thm3_large():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1^0.5")
    c = classify(spec, (1.0,))
    assert c.theorem == "Thm3-large"
    assert c.conditions["sublinearity"].status == "holds"


def test_classify_bounded_bracket_is_thm3_bounded():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^(-4)", "u1/(1+u1)")
    c = classify(spec, (1.0,))
    assert c.theorem == "Thm3-bounded"
    assert c.conditions["sup_bounded"].status == "holds"


def test_classify_nonuniform_beta_only_multi_solution_verdicts():
    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"],
                                    ["u2^0.5", "u1^0.5"])
    c = classify(spec, (1.0, 2.0))
    assert c.theorem == "Thm3-large"
    c2 = classify(ProblemSpec.from_strings(
        3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"], ["u2", "u1"]), (1.0, 2.0))
    assert c2.theorem == "inconclusive"


# --- decision table properties ----------------------------------------------

_TRI = ("holds", "fails", "inconclusive")
_TAILS = ("all_diverge", "all_converge", "mixed", "uncertain")


def _facet(theorem: str) -> str:
    if theorem.endswith("large"):
        return "large"
    if theorem.endswith("bounded"):
        return "bounded"
    return "open"


def _verdict_from(f_state, tail, c6, sub, sup, uniform):
    c3 = {"diverges": "holds", "converges": "fails", "inconclusive": "inconclusive"}[f_state]
    c4 = {"diverges": "fails", "converges": "holds", "inconclusive": "inconclusive"}[f_state]
    c5 = {"all_converge": "holds", "uncertain": "inconclusive",
          "all_diverge": "fails", "mixed": "fails"}[tail]
    return decide_theorem(uniform_beta=uniform, c3=c3, c4=c4, c5=c5, c6=c6,
                          sublinearity=sub, sup_bounded=sup, barrier_tail=tail)


def test_decide_theorem_monotone_in_evidence():
    """Upgrading any undecided input never flips a determined verdict to the
    opposite boundedness facet; it can only refine within a facet or decide
    a previously open case."""
    f_states = ("diverges", "converges", "inconclusive")
    for f_state, tail, c6, sub, sup, uniform in itertools.product(
            f_states, _TAILS, _TRI, _TRI, _TRI, (True, False)):
        before = _verdict_from(f_state, tail, c6, sub, sup, uniform)
        upgrades = []
        if f_state == "inconclusive":
            upgrades += [("f", v) for v in ("diverges", "converges")]
        if tail == "uncertain":
            upgrades += [("tail", v) for v in ("all_diverge", "all_converge", "mixed")]
        if c6 == "inconclusive":
            upgrades += [("c6", v) for v in ("holds", "fails")]
        if sub == "inconclusive":
            upgrades += [("sub", v) for v in ("holds", "fails")]
        if sup == "inconclusive":
            upgrades += [("sup", v) for v in ("holds", "fails")]
        for which, val in upgrades:
            after = _verdict_from(
                val if which == "f" else f_state,
                val if which == "tail" else tail,
                val if which == "c6" else c6,
                val if which == "sub" else sub,
                val if which == "sup" else sup,
                uniform)
            if _facet(before) != "open":
                assert _facet(after) in (_facet(before), "open"), (
                    f"{before} -> {after} on upgrading {which} to {val}")


# --- C6 ----------------------------------------------------------------------

def test_check_C6_window_and_residual():
    spec = spec_cubic_decaying()  # configs/bounded_cubic.json
    f_inf = estimate_F_inf(spec)
    a_inf = (estimate_A_inf(spec, 0),)
    verdict, window = check_C6(spec, f_inf, a_inf)
    assert verdict.status == "holds"
    lo, hi = window
    assert lo == pytest.approx(1.0)
    # F by Simpson's rule on the F probe's block, inverted by its cubic Hermite interpolant
    assert hi == verdict.evidence["beta_max"] == pytest.approx(1.6643996676164592, rel=1e-12)
    assert hi == pytest.approx(BETA_MAX_CUBIC, rel=1e-5)
    # the right end is the exact root of the tabulated gap, not a bracket of it
    assert abs(verdict.evidence["gap_at_beta_max"]) <= 1e-14 * verdict.evidence["F_limit"]
    assert "trace" not in verdict.evidence


def test_F_probe_limit_of_bounded_cubic_matches_the_closed_form():
    # integral over [1, inf) of ds / (1 + s^3) = pi / (3 sqrt 3) - ln 4 / 6; Simpson's rule
    # at 256 intervals per octave errs by about 1e-11 (the trapezoid at 2048 by 2.7e-8)
    f_inf = estimate_F_inf(spec_cubic_decaying())
    assert f_inf.verdict == "converges"
    assert abs(f_inf.limit - (np.pi / (3.0 * np.sqrt(3.0)) - np.log(4.0) / 6.0)) <= 1e-9


def test_check_C6_window_end_below_a_tiny_barrier_sum_is_not_capped():
    # f = u1^10, p = 2: the barrier sum 2.4e-10 is below the gap between two F
    # quadratures (5e-8), so F(inf) and F(d beta) must come from the same one;
    # the end is the root of F(inf) - F(s) = sum_j A_j(inf), from adaptive
    # quadrature and bracketing on the exact integrands
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1e-8*(1+r)^(-8)", "u1^10")
    verdict, window = check_C6(spec, estimate_F_inf(spec), (estimate_A_inf(spec, 0),))
    assert verdict.status == "holds" and verdict.evidence["capped"] is False
    assert window[1] == pytest.approx(9.18804138, rel=0.01)


def test_classify_reads_F_off_its_probe_without_an_F_table(tmp_path, monkeypatch):
    # C6's F is build_F on the F probe's own block, already sampled: no nodes of its own
    # and no new evaluation of f
    built, evaluations = [], []
    build_F, evaluate = conditions.build_F, transforms.evaluate_array

    def counted_build(spec, probe):
        before = len(evaluations)
        table = build_F(spec, probe)
        built.append((table, probe, len(evaluations) - before))
        return table

    monkeypatch.setattr(conditions, "build_F", counted_build)
    monkeypatch.setattr(transforms, "evaluate_array",
                        lambda e, env: evaluations.append(e) or evaluate(e, env))
    config = Path(__file__).resolve().parent.parent / "configs" / "bounded_cubic.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["classify", "--config", str(config), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["classification"]["conditions"]["C6"]["status"] == "holds"
    [(table, probe, new_evaluations)] = built
    block = quadrature.probe_block(probe.r_start, probe)
    assert table.s.base is block and len(table.s) == len(block)
    assert new_evaluations == 0


@pytest.mark.parametrize("f", ["1/(1+u1)", "1/(1+u1) + 0*exp(u1)"])
def test_classify_notes_a_decrease_before_a_domain_error(f):
    # exp(u1) overflows past s = 709, inside the block, so f is read up to the octave
    # edge before that, as the F probe reads it; the decrease shows there all the same
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^-4", f)
    result = classify(spec)
    assert result.theorem == "inconclusive"
    assert ("f[0] decreases on the diagonal near s = 1, against the monotonicity every "
            "theorem assumes") in result.notes


def test_check_C6_reuses_the_F_probes_samples_of_f(monkeypatch):
    spec = spec_cubic_decaying()
    f_inf, a_inf = estimate_F_inf(spec), (estimate_A_inf(spec, 0),)
    calls = []
    evaluate = transforms.evaluate_array
    monkeypatch.setattr(transforms, "evaluate_array",
                        lambda e, env: calls.append(e) or evaluate(e, env))
    check_C6(spec, f_inf, a_inf)
    assert calls == []  # the block is the probe's, and spec.diagonal(0) kept its samples


def test_check_C6_zero_barrier_is_capped():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "0", "u1^3")
    f_inf = estimate_F_inf(spec)
    a_inf = (estimate_A_inf(spec, 0),)
    assert a_inf[0].limit == 0.0
    verdict, window = check_C6(spec, f_inf, a_inf)
    assert verdict.status == "holds"
    assert verdict.evidence["capped"]
    assert window[1] == pytest.approx(ProbeConfig().t_max)  # r_start * 2^K over d = 1


def test_check_C6_requires_convergent_inputs():
    spec = spec_linear_flat()
    f_inf = estimate_F_inf(spec)  # diverges
    with pytest.raises(ValueError, match="convergent"):
        check_C6(spec, f_inf, (estimate_A_inf(spec, 0),))


def test_classify_zero_nonlinearity_gates_C6():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "0")
    c = classify(spec, (1.0,))
    assert c.conditions["C4"].status == "fails"
    assert c.conditions["C6"].status == "inconclusive"
    assert "not applicable" in c.conditions["C6"].note


# --- diagonal growth checks ---------------------------------------------------

def test_sublinearity_fixtures():
    holds = check_sublinearity(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1^0.5"))
    assert holds.status == "holds"
    fails = check_sublinearity(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1^3"))
    assert fails.status == "fails"
    const = check_sublinearity(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "0"))
    assert const.status == "holds"
    # the linear case has bracket/s -> 1 from above, its octave ratios -> 1 from below:
    # no finite horizon tells that limit from a slow decay to 0
    linear = check_sublinearity(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1"))
    assert linear.status == "inconclusive"
    assert linear.evidence["s"] == (2.0 ** np.arange(11)).tolist()  # the octave edges to 1024
    # f = u1^q with bracket (1 + s^q)^(1/(p - 1)) ~ s^gamma, gamma = q / (p - 1): never a
    # decided wrong verdict, and decided away from gamma = 1
    for p, gamma in itertools.product((1.5, 2.0, 3.0), (0.5, 0.75, 0.9, 1.2, 1.5, 2.0)):
        v = check_sublinearity(ProblemSpec.from_strings(3, 1, p, "0", "1",
                                                        f"u1^{gamma * (p - 1)!r}"))
        right = "holds" if gamma < 1 else "fails"
        decided = gamma <= 0.75 or gamma >= 1.2
        assert v.status in ((right,) if decided else (right, "inconclusive")), (p, gamma, v)
    # bracket/s = (1 + s^0.45)^2 / s ~ s^(-0.1) -> 0: too slow to decide, but never "fails"
    slow = check_sublinearity(ProblemSpec.from_strings(3, 1, 1.5, "0", "1", "u1^0.45"))
    assert slow.status != "fails"
    # d = 2 at min_p = 2: 2 + s^0.4 + s^0.5 is sublinear, 2 + s^2 + s is not
    assert check_sublinearity(ProblemSpec.from_strings(
        3, 2, [2.0, 3.0], "0", "1", ["u2^0.4", "u1^0.5"])).status == "holds"
    assert check_sublinearity(ProblemSpec.from_strings(
        3, 2, [2.0, 2.0], "0", "1", ["u2^2", "u1"])).status == "fails"


def test_bracket_checks_keep_the_octave_edges_before_a_domain_error():
    # exp(u1) overflows past s = 709.8, in the last octave [512, 1024]: both checks keep the
    # edges 1 .. 512 as the F probe keeps its nine octaves, and stay inconclusive
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "exp(u1)")
    for check, key in ((check_sublinearity, "ratios"), (check_sup_bounded, "bracket")):
        v = check(spec)
        assert v.status == "inconclusive" and v.note.startswith("bracket not evaluable")
        assert v.evidence["s"] == (2.0 ** np.arange(10)).tolist()
        np.testing.assert_allclose(v.evidence[key], (1.0 + np.exp(2.0 ** np.arange(10)))
                                   / (2.0 ** np.arange(10) if key == "ratios" else 1.0),
                                   rtol=1e-12)
        assert v.evidence["error"].startswith("integrand error on [512,1024]: overflow")
    assert estimate_F_inf(spec).horizons == tuple(2.0 ** np.arange(1, 10))


def test_sup_bounded_fixtures():
    saturating = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1/(1+u1)")
    v = check_sup_bounded(saturating)
    assert v.status == "holds"
    assert v.evidence["plateau"] == pytest.approx(2.0, rel=1e-3)  # 2 + 3.8e-6 at s <= 1024
    linear = check_sup_bounded(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1"))
    assert linear.status == "fails"
    const = check_sup_bounded(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "0"))
    assert const.status == "holds"
    assert const.evidence["plateau"] == pytest.approx(1.0)


# --- classical growth tests ---------------------------------------------------

def test_keller_osserman_and_ye_zhou_linear_diverge():
    f = lambda t: np.asarray(t, dtype=float)
    assert check_keller_osserman(f, 2.0).verdict == "diverges"
    assert check_ye_zhou(f, 2.0).verdict == "diverges"


def test_keller_osserman_partials_for_f_linear_match_the_closed_form():
    # P = t^2 / 2 exactly (the Simpson sums of t on the head and the block are exact),
    # so the partial over [1, 2^k] of dt / sqrt(P) = sqrt(2) / t is sqrt(2) k ln 2
    ko = check_keller_osserman(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1").diagonal(0),
                               2.0)
    k = np.arange(1, 11)
    np.testing.assert_allclose(ko.partials, np.sqrt(2.0) * k * np.log(2.0), rtol=1e-7, atol=0.0)
    assert ko.verdict == "diverges"


def test_keller_osserman_and_ye_zhou_cubic_converge():
    f = lambda t: np.asarray(t, dtype=float) ** 3
    ko = check_keller_osserman(f, 2.0)
    yz = check_ye_zhou(f, 2.0)
    assert ko.verdict == "converges"
    assert ko.limit == pytest.approx(2.0, rel=0.05)
    assert yz.verdict == "converges"
    assert yz.limit == pytest.approx(0.5, rel=0.05)


def test_ye_zhou_log_squared_converges_ko_reported_independently():
    f = lambda t: np.asarray(t, dtype=float) * np.log1p(np.asarray(t, dtype=float)) ** 2
    yz = check_ye_zhou(f, 2.0)
    assert yz.verdict == "converges"
    ko = check_keller_osserman(f, 2.0)
    assert ko.verdict in ("converges", "diverges", "inconclusive")


def test_zero_nonlinearity_probes_are_inconclusive():
    f = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    assert check_ye_zhou(f, 2.0).verdict == "inconclusive"
    assert check_keller_osserman(f, 2.0).verdict == "inconclusive"


def _octave_ratios(v):
    increments = np.diff(np.concatenate([[0.0], v.partials]))
    return increments[1:] / increments[:-1]


@pytest.mark.parametrize("q, p", [(1.5, 3.0), (1.5, 2.0), (3.0, 3.0), (3.0, 4.5), (1.0, 1.5),
                                  (2.0, 2.5)])
def test_growth_tests_at_p_follow_the_closed_form_of_a_power(q, p):
    # f = s^q on the diagonal, P = s^(q+1) / (q+1): the Keller-Osserman integrand
    # P^(-1/p) ~ s^(-(q+1)/p) and the reciprocal one f^(-1/(p-1)) = s^(-q/(p-1)), so
    # each octave increment is the one before times 2^(1 - exponent), and each integral
    # converges iff its exponent exceeds 1
    f = ProblemSpec.from_strings(3, 1, p, "0", "1", f"u1^{q}").diagonal(0)
    for v, expo in ((check_keller_osserman(f, p), (q + 1.0) / p),
                    (check_ye_zhou(f, p), q / (p - 1.0))):
        assert v.verdict == ("converges" if expo > 1.0 else "diverges")
        np.testing.assert_allclose(_octave_ratios(v), 2.0 ** (1.0 - expo), rtol=1e-8)


@pytest.mark.parametrize("p, ko_ratio, yz_ratio, verdict", [
    (3.0, 2.0 ** (1 / 6), 2.0 ** (1 / 4), "diverges"),
    (2.0, 2.0 ** (-1 / 4), 2.0 ** (-1 / 2), "converges")])
def test_growth_tests_of_u_to_the_1_5_read_their_own_p(p, ko_ratio, yz_ratio, verdict):
    f = ProblemSpec.from_strings(3, 1, p, "0", "1", "u1^1.5").diagonal(0)
    for v, ratio in ((check_keller_osserman(f, p), ko_ratio), (check_ye_zhou(f, p), yz_ratio)):
        assert v.verdict == verdict
        noted = [float(x) for x in v.note.split(": ")[1].split("; ")[0].split(", ")]
        np.testing.assert_allclose(noted, ratio, rtol=5e-3)  # the note keeps 3 digits


# --- implication cross-checks ---------------------------------------------------

def test_remarks_consistent_for_linear():
    spec = spec_linear_flat()
    rep = check_remark_implications(spec, "holds")
    assert rep.applicable
    assert rep.consistent is True
    assert all(v.verdict == "diverges" for v in rep.reciprocal_power)


def test_remarks_not_applicable_when_F_converges():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1^3")
    rep = check_remark_implications(spec, "fails")
    assert not rep.applicable
    assert "not applicable" in rep.note


def test_remarks_zero_denominator_inconclusive():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "0")
    rep = check_remark_implications(spec, "holds")
    assert rep.consistent is None
    assert all(v.verdict == "inconclusive" for v in rep.reciprocal_power)


# --- nested-integral criterion ---------------------------------------------------

def test_lair_flat_coefficients_predict_explosion():
    inst = LairInstance(parse("1", "radial"), parse("1", "radial"), 1.0, 1.0, 3)
    v1, v2 = check_lair_proposition(inst)
    assert v1.verdict == "diverges"
    assert v2.verdict == "diverges"
    # inner = t^2 / 2 and nested = t^3 / 6 at every node (the three-point rule is exact for
    # quadratics), so the integrand is t^3 / 6, on which Simpson's rule is exact: the
    # partial over [1, 2^k] is (16^k - 1) / 24
    k = np.arange(1, 11)
    for v in (v1, v2):
        np.testing.assert_allclose(v.partials, (16.0 ** k - 1.0) / 24.0, rtol=1e-12, atol=0.0)


def test_lair_decaying_coefficients_do_not():
    a = parse("(1+r)^(-6)", "radial")
    inst = LairInstance(a, a, 1.0, 1.0, 3)
    v1, v2 = check_lair_proposition(inst)
    assert v1.verdict == "converges"
    assert v2.verdict == "converges"


def test_lair_zero_coefficient_trivially_converges():
    inst = LairInstance(parse("0", "radial"), parse("1", "radial"), 1.0, 1.0, 3)
    v1, _ = check_lair_proposition(inst)
    assert v1.verdict == "converges"
    assert v1.limit == 0.0


def test_match_lair_form():
    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], ["1", "2*r"],
                                    ["u2", "u1^0.7"])
    inst = match_lair_form(spec)
    assert inst is not None
    assert inst.alpha == 1.0
    assert inst.beta_exp == 0.7
    assert inst.within_sublinear_range

    assert match_lair_form(ProblemSpec.from_strings(
        3, 2, [2.0, 3.0], ["0", "0"], ["1", "1"], ["u2", "u1"])) is None
    assert match_lair_form(ProblemSpec.from_strings(
        3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"], ["u1", "u2"])) is None
    assert match_lair_form(ProblemSpec.from_strings(
        3, 2, [2.0, 2.0], ["r", "0"], ["1", "1"], ["u2", "u1"])) is None
    # zero up to r = 20 only: a gradient term all the same, whatever the probe layout samples
    assert match_lair_form(ProblemSpec.from_strings(
        3, 2, [2.0, 2.0], ["max(r - 20, 0)", "0"], ["1", "1"], ["u2", "u1"])) is None

    superlinear = match_lair_form(ProblemSpec.from_strings(
        3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"], ["u2^2", "u1"]))
    assert superlinear is not None
    assert not superlinear.within_sublinear_range


# --- verdict pin ---------------------------------------------------------------

# The theorem, every condition status and every F/A_j tail verdict of
# ``classify`` on the randomized suite.  A change that moves reported numbers on
# purpose (probe quadrature, tolerances) must leave these as they are, or update
# them and say which instance flipped and why: a byte digest cannot tell a
# moved digit from a flipped verdict.  Sublinearity is read at the octave edges 1 ..
# 1024: the linear brackets of instances 1, 2, 4, 19 and 20 are inconclusive there,
# and those of 10 (f = 0.208 u1, p = 2.2) and 14 (f = 0.75 u1^0.5, p = 1.6), both
# ~ s^(5/6), sublinear, which gives instance 10 Theorem 3's large facet.
SUITE_VERDICTS = [
    "Thm2-bounded C3=fails C4=holds C5=holds C6=holds sublinearity=fails sup_bounded=fails F=converges A=converges",
    "Thm1-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=inconclusive sup_bounded=fails F=diverges A=diverges",
    "Thm1-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=inconclusive sup_bounded=fails F=diverges A=diverges,diverges",
    "Thm3-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=holds sup_bounded=fails F=diverges A=diverges",
    "Thm1-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=inconclusive sup_bounded=fails F=diverges A=diverges,diverges,diverges",
    "inconclusive C3=fails C4=holds C5=holds C6=fails sublinearity=fails sup_bounded=fails F=converges A=converges,converges,converges",
    "Thm3-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=holds sup_bounded=fails F=diverges A=diverges",
    "inconclusive C3=fails C4=holds C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=converges A=converges,converges,diverges",
    "inconclusive C3=fails C4=holds C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=converges A=converges,diverges,converges",
    "inconclusive C3=fails C4=holds C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=converges A=diverges,diverges,converges",
    "Thm3-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=holds sup_bounded=fails F=diverges A=diverges",
    "inconclusive C3=fails C4=holds C5=holds C6=fails sublinearity=fails sup_bounded=fails F=converges A=converges,converges",
    "Thm2-bounded C3=fails C4=holds C5=holds C6=holds sublinearity=fails sup_bounded=fails F=converges A=converges,converges",
    "Thm2-bounded C3=fails C4=holds C5=holds C6=holds sublinearity=fails sup_bounded=fails F=converges A=converges,converges",
    "Thm1-bounded C3=holds C4=fails C5=holds C6=inconclusive sublinearity=holds sup_bounded=fails F=diverges A=converges",
    "inconclusive C3=fails C4=holds C5=holds C6=fails sublinearity=fails sup_bounded=fails F=converges A=converges,converges,converges",
    "inconclusive C3=fails C4=holds C5=holds C6=fails sublinearity=fails sup_bounded=fails F=converges A=converges,converges",
    "Thm3-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=holds sup_bounded=fails F=diverges A=diverges",
    "Thm2-bounded C3=fails C4=holds C5=holds C6=holds sublinearity=fails sup_bounded=fails F=converges A=converges,converges,converges",
    "Thm1-bounded C3=holds C4=fails C5=holds C6=inconclusive sublinearity=inconclusive sup_bounded=fails F=diverges A=converges",
    "Thm1-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=inconclusive sup_bounded=fails F=diverges A=diverges",
    "inconclusive C3=fails C4=holds C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=converges A=diverges,diverges,diverges",
    "inconclusive C3=fails C4=holds C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=converges A=converges,converges,diverges",
    "inconclusive C3=fails C4=holds C5=holds C6=fails sublinearity=fails sup_bounded=fails F=converges A=converges,converges",
]


def _verdict_line(c) -> str:
    conditions = " ".join(f"{k}={v.status}" for k, v in c.conditions.items())
    tails = ",".join(v.verdict for v in c.A_inf)
    return f"{c.theorem} {conditions} F={c.F_inf.verdict} A={tails}"


def test_classify_verdicts_on_the_random_suite_are_pinned(random_suite):
    got = [_verdict_line(classify(spec, central.values)) for spec, central, _ in random_suite]
    assert got == SUITE_VERDICTS
