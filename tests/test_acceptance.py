"""Acceptance gate: each test prints one PASS/FAIL line for its criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; the suite-level fixtures in conftest.py provide the shared randomized
instance family.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from radsolve.cli import main, read_solution_csv
from radsolve.conditions import (
    LairInstance,
    check_keller_osserman,
    check_lair_proposition,
    check_ye_zhou,
    classify,
)
from radsolve.exprlang import parse
from radsolve.quadrature import (BlockSamples, ProbeConfig, RadialGrid, probe_divergence,
                                 sample_block)
from radsolve.solver import CentralValues, iterate, residual, verify_bounds
from radsolve.transforms import (
    ProblemSpec,
    build_A,
    build_transform_tables,
    eval_F,
    invert_F,
)

from test_solver import series_sinh_over_r
from test_transforms import F_table, F_tail

LN2 = 0.69314718055994530942


def report(num: int, ok: bool, description: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def sinh_spec() -> ProblemSpec:
    return ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1")


def test_criterion_1_analytic_solver_oracle():
    grid = RadialGrid(5.0, 4000)
    t0 = time.perf_counter()
    bundle = iterate(sinh_spec(), grid, CentralValues.uniform(1.0, 1), tol=1e-10)
    elapsed = time.perf_counter() - t0
    exact = series_sinh_over_r(grid.nodes)
    rel_err = float(np.max(np.abs(bundle.u[0] - exact) / exact))
    ok = (bundle.converged and bundle.iterations < 200
          and rel_err < 1e-5 and elapsed < 5.0)
    report(1, ok, "solver matches the analytic radial oracle",
           f"iters={bundle.iterations}, rel_err={rel_err:.2e}, t={elapsed:.2f}s")


def test_criterion_2_transform_closed_forms():
    grid = RadialGrid(1.0, 2000)
    A = build_A(sinh_spec(), grid, 0)
    a_err = abs(A[-1] - 1.0 / 6.0) / (1.0 / 6.0)

    table = F_table(sinh_spec())
    f_inf = F_tail(sinh_spec())
    f_err = abs(float(eval_F(table, 3.0)) - LN2)

    round_trip = 0.0
    for s in np.linspace(1.0, 3.9, 100):
        y = float(eval_F(table, s))
        s_back = invert_F(table, np.array([y]), f_inf)
        round_trip = max(round_trip, abs(float(s_back[0]) - s))

    ok = a_err < 1e-6 and f_err < 1e-8 and round_trip < 1e-8
    report(2, ok, "barrier and growth-scale closed forms",
           f"A_rel={a_err:.2e}, F_abs={f_err:.2e}, inv_rt={round_trip:.2e}")


def test_criterion_3_monotone_iteration_invariant(suite_solutions):
    n = len(suite_solutions)
    violations = 0
    converged = 0
    for spec, central, grid, bundle in suite_solutions:
        if not bundle.monotone_iterates:
            violations += 1
        for j, g in enumerate(bundle.u):
            if g[0] != central.values[j]:
                violations += 1
            if bundle.converged and np.any(np.diff(g) < 0.0):
                violations += 1
        converged += bundle.converged
    ok = n >= 20 and violations == 0 and converged >= 0.8 * n
    report(3, ok, "monotone iterates and radial monotonicity across the random suite",
           f"specs={n}, converged={converged}, violations={violations}")


def test_criterion_4_sandwich_bounds(suite_solutions):
    checked = 0
    upper_checked = 0
    worst = -np.inf
    for spec, central, grid, bundle in suite_solutions:
        if not bundle.converged:
            continue
        c = classify(spec, central.values)
        if not all(c.conditions[k].status == "holds" for k in ("C4", "C5", "C6")):
            continue
        tables = build_transform_tables(spec, grid)
        rep = verify_bounds(bundle, tables, spec)
        checked += 1
        worst = max(worst, max(rep.lower_margins))
        if rep.upper_margins is not None:
            upper_checked += 1
            worst = max(worst, max(rep.upper_margins))
        assert rep.bounds_pass, f"sandwich violated for {spec} (margins beyond 1e-6)"
    ok = checked >= 1 and upper_checked >= 1 and worst <= 1e-6
    report(4, ok, "two-sided sandwich for bounded-regime runs",
           f"runs_checked={checked}, with_upper={upper_checked}, worst_margin={worst:.2e}")


def test_criterion_5_classification_fixtures():
    c1 = classify(ProblemSpec.from_strings(3, 1, 2.0, "0", "1", "u1"), (1.0,))
    c2 = classify(ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^(-4)", "u1"), (1.0,))
    c3 = classify(ProblemSpec.from_strings(3, 1, 2.0, "0", "(1+r)^(-4)", "u1^3"), (1.2,))
    fixtures_ok = (c1.theorem == "Thm1-large" and c2.theorem == "Thm1-bounded"
                   and c3.theorem == "Thm2-bounded")

    inst = LairInstance(parse("1", "radial"), parse("1", "radial"), 1.0, 1.0, 3)
    v1, v2 = check_lair_proposition(inst)
    explosive = v1.verdict == "diverges" and v2.verdict == "diverges"

    # cross-check: the same instance through the general solver grows across a
    # horizon doubling by at least the barrier increment
    spec = ProblemSpec.from_strings(3, 2, [2.0, 2.0], ["0", "0"], ["1", "1"],
                                    ["u2", "u1"])
    central = CentralValues.uniform(1.0, 2)
    R, M = 2.5, 250
    small = iterate(spec, RadialGrid(R, M), central, tol=1e-10)
    big = iterate(spec, RadialGrid(2 * R, 2 * M), central, tol=1e-10)
    witness = True
    for j in range(2):
        A = build_A(spec, big.grid, j)
        growth_floor = (A[-1] - A[M]) - 1e-6  # f_j(beta) = 1
        actual = big.u[j][-1] - small.u[j][-1]
        witness = witness and actual >= growth_floor
    ok = fixtures_ok and explosive and witness
    report(5, ok, "canonical classification fixtures and the explosive cross-check",
           f"verdicts=({c1.theorem}, {c2.theorem}, {c3.theorem}), "
           f"explosive={explosive}, growth_witness={witness}")


def test_criterion_6_residual_gate(suite_solutions):
    worst_ratio = 0.0
    for spec, central, grid, bundle in suite_solutions:
        if not bundle.converged:
            continue
        rep = residual(bundle, spec)
        ratio = max(rep.integral_residuals) / (10.0 * bundle.tolerance)
        worst_ratio = max(worst_ratio, ratio)
    gate_ok = worst_ratio <= 1.0

    ode = {}
    for M in (1000, 2000):
        grid = RadialGrid(5.0, M)
        bundle = iterate(sinh_spec(), grid, CentralValues.uniform(1.0, 1), tol=1e-12)
        ode[M] = max(residual(bundle, sinh_spec()).ode_residuals)
    shrink = ode[1000] / ode[2000]
    ok = gate_ok and shrink >= 1.8
    report(6, ok, "integral residuals within 10x tolerance; ODE residual shrinks on refinement",
           f"worst_residual_ratio={worst_ratio:.3f}, ode_shrink={shrink:.2f}x")


def test_criterion_7_grid_convergence():
    errs = {}
    for M in (1000, 2000):
        grid = RadialGrid(5.0, M)
        bundle = iterate(sinh_spec(), grid, CentralValues.uniform(1.0, 1), tol=1e-12)
        exact = series_sinh_over_r(grid.nodes)
        errs[M] = float(np.max(np.abs(bundle.u[0] - exact)))
    ratio = errs[1000] / errs[2000]
    ok = ratio >= 3.5
    report(7, ok, "second-order grid convergence on the analytic oracle",
           f"err(1000)={errs[1000]:.2e}, err(2000)={errs[2000]:.2e}, ratio={ratio:.2f}")


def test_criterion_8_probe_correctness():
    results = []

    cfg = ProbeConfig(horizon_count=8)
    v = probe_divergence(*sample_block(lambda r: 1.0 / (1.0 + r), 1.0, cfg), cfg, 1.0)
    results.append(("1/(1+r)", v.verdict == "diverges"))

    v = probe_divergence(*sample_block(lambda r: 1.0 / (1.0 + r) ** 2, 1.0, cfg), cfg, 1.0)
    results.append(("1/(1+r)^2", v.verdict == "converges"
                    and abs(v.limit - 0.5) / 0.5 <= 0.05))

    f_lin = BlockSamples(lambda t: t, ProbeConfig())
    f_cub = BlockSamples(lambda t: t ** 3, ProbeConfig())

    results.append(("KO f=t", check_keller_osserman(f_lin, 2.0).verdict == "diverges"))
    v = check_keller_osserman(f_cub, 2.0)
    results.append(("KO f=t^3", v.verdict == "converges"
                    and abs(v.limit - 2.0) / 2.0 <= 0.05))
    results.append(("YZ f=t", check_ye_zhou(f_lin, 2.0).verdict == "diverges"))
    v = check_ye_zhou(f_cub, 2.0)
    results.append(("YZ f=t^3", v.verdict == "converges"
                    and abs(v.limit - 0.5) / 0.5 <= 0.05))

    failed = [name for name, good in results if not good]
    report(8, not failed, "divergence verdicts and limits on the closed-form integrands",
           "all six correct" if not failed else f"wrong: {failed}")


def test_criterion_9_determinism_and_round_trip(tmp_path):
    doc = {
        "problem": {"N": 3, "d": 1, "p": [2.0], "h": ["0"], "a": ["1"],
                    "f": ["u1"], "F_anchor": 1.0},
        "grid": {"R": 5.0, "M": 1000},
        "solver": {"tol": 1e-10, "max_iter": 10000},
        "beta": 1.0,
        "output": {"dir": "out"},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["solve", "--config", str(cfg), "--out", str(out1)])
    code2 = main(["solve", "--config", str(cfg), "--out", str(out2)])
    same_csv = (out1 / "solution_000.csv").read_bytes() == (out2 / "solution_000.csv").read_bytes()
    same_json = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    verify_ok = main(["verify", "--config", str(cfg),
                      "--solution", str(out1 / "solution_000.csv"),
                      "--out", str(tmp_path / "v1")]) == 0

    csv = out1 / "solution_000.csv"
    lines = csv.read_text().splitlines()
    i = len(lines) // 2
    cells = lines[i].split(",")
    cells[1] = repr(float(cells[1]) + 0.1)
    lines[i] = ",".join(cells)
    perturbed = tmp_path / "perturbed.csv"
    perturbed.write_text("\n".join(lines) + "\n")
    perturb_code = main(["verify", "--config", str(cfg), "--solution", str(perturbed),
                         "--out", str(tmp_path / "v2")])
    rep = json.loads((tmp_path / "v2" / "verify_report.json").read_text())
    perturb_detected = (perturb_code == 4
                        and rep["verification"]["integral_residuals"][0] >= 0.05)

    ok = (code1 == 0 and code2 == 0 and same_csv and same_json
          and verify_ok and perturb_detected)
    report(9, ok, "byte-identical reruns, verify round trip, perturbation detection",
           f"csv_same={same_csv}, json_same={same_json}, verify={verify_ok}, "
           f"perturb_caught={perturb_detected}")
