import itertools

import numpy as np
import pytest

from radsolve import conditions
from radsolve.conditions import (
    ClassifierConfig,
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
from radsolve.transforms import (ProblemSpec, build_F, estimate_A_inf, estimate_F_inf, eval_F,
                                 invert_F)

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
    assert hi == verdict.evidence["beta_max"] == pytest.approx(1.664399785577851, rel=1e-12)
    assert hi == pytest.approx(BETA_MAX_CUBIC, rel=1e-5)
    # the right end is the exact root of the tabulated gap, not a bracket of it
    assert abs(verdict.evidence["gap_at_beta_max"]) <= 1e-14 * verdict.evidence["F_limit"]
    assert "trace" not in verdict.evidence


@pytest.mark.parametrize("a_expr, capped", [("(1+r)^(-4)", False), ("0", True)])
def test_check_C6_queries_F_a_fixed_number_of_times_within_the_horizon(
        monkeypatch, a_expr, capped):
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", a_expr, "u1^3")
    f_inf, a_inf = estimate_F_inf(spec), (estimate_A_inf(spec, 0),)
    calls, tables = {"eval_F": 0, "invert_F": 0}, []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def kept_build_F(spec):
        tables.append(build_F(spec))
        return tables[-1]

    monkeypatch.setattr(conditions, "eval_F", counted("eval_F", eval_F))
    monkeypatch.setattr(conditions, "invert_F", counted("invert_F", invert_F), raising=False)
    monkeypatch.setattr(conditions, "build_F", kept_build_F)
    verdict, _ = check_C6(spec, f_inf, a_inf)
    assert verdict.status == "holds" and verdict.evidence["capped"] is capped
    assert calls["eval_F"] <= 3 and calls["invert_F"] == (0 if capped else 1)
    horizon = spec.anchor * 2.0 ** ClassifierConfig().probe.horizon_count
    assert len(tables) == 1 and tables[0].t_max <= horizon
    if capped:  # F stays below its target out to the horizon, and is probed there
        assert tables[0].t_max == horizon


def test_check_C6_zero_barrier_is_capped():
    spec = ProblemSpec.from_strings(3, 1, 2.0, "0", "0", "u1^3")
    f_inf = estimate_F_inf(spec)
    a_inf = (estimate_A_inf(spec, 0),)
    assert a_inf[0].limit == 0.0
    verdict, window = check_C6(spec, f_inf, a_inf)
    assert verdict.status == "holds"
    assert verdict.evidence["capped"]
    assert window[1] == pytest.approx(spec.anchor * 2.0 ** 10)


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
    # the linear case has ratio -> 1: decreasing but bounded away from zero
    linear = check_sublinearity(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1"))
    assert linear.status == "fails"
    assert linear.evidence["extrapolated_limit"] == pytest.approx(1.0, rel=1e-6)


def test_sup_bounded_fixtures():
    saturating = ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1/(1+u1)")
    v = check_sup_bounded(saturating)
    assert v.status == "holds"
    assert v.evidence["plateau"] == pytest.approx(2.0, rel=1e-3)
    linear = check_sup_bounded(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1"))
    assert linear.status == "fails"
    const = check_sup_bounded(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "0"))
    assert const.status == "holds"
    assert const.evidence["plateau"] == pytest.approx(1.0)


# --- classical growth tests ---------------------------------------------------

def test_keller_osserman_and_ye_zhou_linear_diverge():
    f = lambda t: np.asarray(t, dtype=float)
    assert check_keller_osserman(f).verdict == "diverges"
    assert check_ye_zhou(f).verdict == "diverges"


def test_keller_osserman_and_ye_zhou_cubic_converge():
    f = lambda t: np.asarray(t, dtype=float) ** 3
    ko = check_keller_osserman(f)
    yz = check_ye_zhou(f)
    assert ko.verdict == "converges"
    assert ko.limit == pytest.approx(2.0, rel=0.05)
    assert yz.verdict == "converges"
    assert yz.limit == pytest.approx(0.5, rel=0.05)


def test_ye_zhou_log_squared_converges_ko_reported_independently():
    f = lambda t: np.asarray(t, dtype=float) * np.log1p(np.asarray(t, dtype=float)) ** 2
    yz = check_ye_zhou(f)
    assert yz.verdict == "converges"
    ko = check_keller_osserman(f)
    assert ko.verdict in ("converges", "diverges", "inconclusive")


def test_zero_nonlinearity_probes_are_inconclusive():
    f = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    assert check_ye_zhou(f).verdict == "inconclusive"
    assert check_keller_osserman(f).verdict == "inconclusive"


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

    superlinear = match_lair_form(ProblemSpec.from_strings(
        3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"], ["u2^2", "u1"]))
    assert superlinear is not None
    assert not superlinear.within_sublinear_range


# --- verdict pin ---------------------------------------------------------------

# The theorem, every condition status and every F/A_j tail verdict of
# ``classify`` on the randomized suite.  A change that moves reported numbers on
# purpose (probe quadrature, tolerances) must leave these as they are, or update
# them and say which instance flipped and why: a byte digest cannot tell a
# moved digit from a flipped verdict.
SUITE_VERDICTS = [
    "Thm2-bounded C3=fails C4=holds C5=holds C6=holds sublinearity=fails sup_bounded=fails F=converges A=converges",
    "Thm1-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=diverges A=diverges",
    "Thm1-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=diverges A=diverges,diverges",
    "Thm3-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=holds sup_bounded=fails F=diverges A=diverges",
    "Thm1-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=diverges A=diverges,diverges,diverges",
    "inconclusive C3=fails C4=holds C5=holds C6=fails sublinearity=fails sup_bounded=fails F=converges A=converges,converges,converges",
    "Thm3-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=holds sup_bounded=fails F=diverges A=diverges",
    "inconclusive C3=fails C4=holds C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=converges A=converges,converges,diverges",
    "inconclusive C3=fails C4=holds C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=converges A=converges,diverges,converges",
    "inconclusive C3=fails C4=holds C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=converges A=diverges,diverges,converges",
    "Thm1-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=inconclusive sup_bounded=fails F=diverges A=diverges",
    "inconclusive C3=fails C4=holds C5=holds C6=fails sublinearity=fails sup_bounded=fails F=converges A=converges,converges",
    "Thm2-bounded C3=fails C4=holds C5=holds C6=holds sublinearity=fails sup_bounded=fails F=converges A=converges,converges",
    "Thm2-bounded C3=fails C4=holds C5=holds C6=holds sublinearity=fails sup_bounded=fails F=converges A=converges,converges",
    "Thm1-bounded C3=holds C4=fails C5=holds C6=inconclusive sublinearity=inconclusive sup_bounded=fails F=diverges A=converges",
    "inconclusive C3=fails C4=holds C5=holds C6=fails sublinearity=fails sup_bounded=fails F=converges A=converges,converges,converges",
    "inconclusive C3=fails C4=holds C5=holds C6=fails sublinearity=fails sup_bounded=fails F=converges A=converges,converges",
    "Thm3-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=holds sup_bounded=fails F=diverges A=diverges",
    "Thm2-bounded C3=fails C4=holds C5=holds C6=holds sublinearity=fails sup_bounded=fails F=converges A=converges,converges,converges",
    "Thm1-bounded C3=holds C4=fails C5=holds C6=inconclusive sublinearity=fails sup_bounded=fails F=diverges A=converges",
    "Thm1-large C3=holds C4=fails C5=fails C6=inconclusive sublinearity=fails sup_bounded=fails F=diverges A=diverges",
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
