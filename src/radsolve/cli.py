"""Config-driven command line front end.

One JSON document describes a run (problem, grid, solver knobs, probe knobs,
central values, output location); the subcommands are

    solve     iterate per central-value vector, verify, write CSV + report
    classify  run the condition probes and the theorem classifier
    verify    recheck a stored solution file against its config
    sweep     solve a family of central values and compare the solutions

Reports are canonical JSON (sorted keys, fixed layout).  Solution CSVs are
written a column at a time with ``repr`` round-trip formatting, so identical
configs produce byte-identical artifacts and reading a CSV back yields the
same bits.  Timings go to stderr only, never into the report.

Exit codes: 0 success, 2 config or file error, 3 solver non-convergence,
4 verification or consistency failure, 5 inconclusive classification.  An
iterate that overflows (the solution outgrows the floating-point range before
the horizon) is a config error on ``grid.R``, naming the sweep and the radius.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .conditions import (
    ClassifierConfig,
    check_keller_osserman,
    check_lair_proposition,
    check_remark_implications,
    check_ye_zhou,
    classify,
    match_lair_form,
)
from .exprlang import ExprError
from .quadrature import ProbeConfig, RadialGrid
from .solver import (CentralValues, IterateOverflowError, SolutionBundle, VerificationReport,
                     iterate, verify_solution)
from .transforms import (NegativeCoefficientError, ProblemSpec, build_transform_tables,
                         validate_hypotheses)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_VERIFICATION = 4
EXIT_INCONCLUSIVE = 5


class ConfigError(Exception):
    """Invalid configuration; the message starts with the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    spec: ProblemSpec
    grid: RadialGrid
    tol: float
    max_iter: int
    classifier: ClassifierConfig
    betas: tuple[CentralValues, ...]
    out_dir: str
    stem: str
    raw: dict


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return doc[key]


def _number(value: Any, path: str, *, minimum: float | None = None,
            strict: bool = False, integer: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    v = float(value)
    if integer and v != int(v):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None:
        if strict and not v > minimum:
            raise ConfigError(path, f"must be > {minimum:g}, got {value!r}")
        if not strict and not v >= minimum:
            raise ConfigError(path, f"must be >= {minimum:g}, got {value!r}")
    return v


def _expr_list(raw: Any, d: int, path: str) -> list[str]:
    if isinstance(raw, str):
        raw = [raw] * d
    if not isinstance(raw, list) or len(raw) != d:
        raise ConfigError(path, f"expected a list of {d} expression strings")
    for i, s in enumerate(raw):
        if not isinstance(s, str):
            raise ConfigError(f"{path}[{i}]", "expected an expression string")
    return raw


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document; error messages carry the offending key path."""
    if not isinstance(doc, dict):
        raise ConfigError("", "config must be a JSON object")

    prob = _require(doc, "problem", "")
    if not isinstance(prob, dict):
        raise ConfigError("problem", "must be an object")
    N = int(_number(_require(prob, "N", "problem"), "problem.N", minimum=3, integer=True))
    d = int(_number(_require(prob, "d", "problem"), "problem.d", minimum=1, integer=True))
    p_raw = _require(prob, "p", "problem")
    if isinstance(p_raw, (int, float)):
        p_raw = [p_raw] * d
    if not isinstance(p_raw, list) or len(p_raw) != d:
        raise ConfigError("problem.p", f"expected a list of {d} exponents")
    p = [
        _number(x, f"problem.p[{i}]", minimum=1.0, strict=True)
        for i, x in enumerate(p_raw)
    ]
    anchor = _number(prob.get("F_anchor", 1.0), "problem.F_anchor", minimum=0.0, strict=True)
    h = _expr_list(_require(prob, "h", "problem"), d, "problem.h")
    a = _expr_list(_require(prob, "a", "problem"), d, "problem.a")
    f = _expr_list(_require(prob, "f", "problem"), d, "problem.f")
    try:
        spec = ProblemSpec.from_strings(N, d, p, h, a, f, anchor)
    except ExprError as err:
        raise ConfigError("problem", f"expression error: {err}") from None
    except ValueError as err:
        raise ConfigError("problem", str(err)) from None

    grid_doc = _require(doc, "grid", "")
    if not isinstance(grid_doc, dict):
        raise ConfigError("grid", "must be an object")
    R = _number(_require(grid_doc, "R", "grid"), "grid.R", minimum=0.0, strict=True)
    M = int(_number(grid_doc.get("M", 2000), "grid.M", minimum=8, integer=True))
    grid = RadialGrid(R, M)

    sol = doc.get("solver", {})
    if not isinstance(sol, dict):
        raise ConfigError("solver", "must be an object")
    tol = _number(sol.get("tol", 1e-10), "solver.tol", minimum=0.0, strict=True)
    max_iter = int(_number(sol.get("max_iter", 10_000), "solver.max_iter",
                           minimum=1, integer=True))

    pr = doc.get("probes", {})
    if not isinstance(pr, dict):
        raise ConfigError("probes", "must be an object")
    try:
        probe = ProbeConfig(
            horizon_count=int(_number(pr.get("K", 10), "probes.K", minimum=4, integer=True)),
            r_start=_number(pr.get("r_start", 1.0), "probes.r_start", minimum=0.0, strict=True),
            rho_conv=_number(pr.get("rho_conv", 0.9), "probes.rho_conv"),
            nodes_per_octave=int(_number(pr.get("nodes_per_octave", 2048),
                                         "probes.nodes_per_octave", minimum=8, integer=True)),
        )
        classifier = ClassifierConfig(
            probe=probe,
            seq_start=_number(pr.get("seq_start", 10.0), "probes.seq_start",
                              minimum=0.0, strict=True),
            seq_factor=_number(pr.get("seq_factor", 4.0), "probes.seq_factor",
                               minimum=1.0, strict=True),
            seq_count=int(_number(pr.get("seq_count", 10), "probes.seq_count",
                                  minimum=6, integer=True)),
            sublinearity_threshold=_number(pr.get("sublinearity_threshold", 1e-2),
                                           "probes.sublinearity_threshold",
                                           minimum=0.0, strict=True),
        )
    except ValueError as err:
        raise ConfigError("probes", str(err)) from None

    betas = _parse_betas(_require(doc, "beta", ""), d)

    out = doc.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output", "must be an object")
    out_dir = out.get("dir", "runs")
    stem = out.get("stem", "solution")
    if not isinstance(out_dir, str) or not isinstance(stem, str):
        raise ConfigError("output", "dir and stem must be strings")

    return RunConfig(spec=spec, grid=grid, tol=tol, max_iter=max_iter,
                     classifier=classifier, betas=betas, out_dir=out_dir,
                     stem=stem, raw=doc)


def _parse_betas(raw: Any, d: int) -> tuple[CentralValues, ...]:
    """A scalar is one uniform vector; a d-list is one vector; a list of lists
    (or, for d = 1, a list of scalars) is a sweep family."""
    def one_vector(x, path) -> CentralValues:
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return CentralValues.uniform(_number(x, path, minimum=0.0, strict=True), d)
        if isinstance(x, list):
            if len(x) != d:
                raise ConfigError(path, f"expected {d} entries")
            vals = [_number(v, f"{path}[{i}]", minimum=0.0, strict=True)
                    for i, v in enumerate(x)]
            return CentralValues(tuple(vals))
        raise ConfigError(path, "expected a number or a list of numbers")

    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return (one_vector(raw, "beta"),)
    if isinstance(raw, list):
        if raw and all(isinstance(x, list) for x in raw):
            return tuple(one_vector(x, f"beta[{i}]") for i, x in enumerate(raw))
        if raw and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw):
            if len(raw) == d:
                return (one_vector(raw, "beta"),)
            if d == 1:
                return tuple(one_vector(x, f"beta[{i}]") for i, x in enumerate(raw))
            raise ConfigError("beta", f"a flat list must have exactly d = {d} entries")
    raise ConfigError("beta", "expected a number, a vector, or a list of vectors")


def load_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
    except json.JSONDecodeError as err:
        raise ConfigError(str(path), f"invalid JSON: {err}") from None
    return parse_config(doc)


# ---------------------------------------------------------------------------
# serialization helpers

_json_string = json.encoder.encode_basestring  # type: ignore[attr-defined]


def _to_json(obj: Any, indent: str) -> str:
    """The canonical JSON of ``obj``, held at the line break and indentation ``indent``."""
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return float.__repr__(x)
        if isinstance(obj, np.floating):  # stays a number
            return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
        return _json_string(repr(obj))
    if isinstance(obj, str):
        return _json_string(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        keyed = dict(zip(map(str, obj), obj.values()))  # of equal str(key)s the last wins
        parts = [f"{_json_string(key)}: {_to_json(keyed[key], inner)}" for key in sorted(keyed)]
        return "{" + inner + ("," + inner).join(parts) + indent + "}" if parts else "{}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        parts = [_to_json(x, inner) for x in (obj.tolist() if isinstance(obj, np.ndarray) else obj)]
        return "[" + inner + ("," + inner).join(parts) + indent + "]" if parts else "[]"
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):  # by its fields
        return _to_json({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, indent)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj: Any) -> str:
    """``obj`` as JSON with sorted keys and two-space indentation, in one pass: numpy
    scalars and arrays as numbers and lists, dataclass instances as objects of their
    fields, dict keys as ``str(key)``, a non-finite float as the string of its
    ``repr`` ("inf"), a non-finite numpy float as a number."""
    return _to_json(obj, "\n") + "\n"


_VERIFICATION_KEYS = ("lower_margins", "upper_margins", "upper_reason", "integral_residuals",
                      "ode_residuals", "ode_window", "bounds_tolerance", "integral_tolerance",
                      "ode_tolerance", "bounds_pass", "residual_pass", "passed", "notes")


def _verification_dict(rep: VerificationReport) -> dict:
    return {key: getattr(rep, key) for key in _VERIFICATION_KEYS}


def _solutions(results) -> list[dict]:
    """The report entry of each (bundle, verification, CSV name) of ``_solve_all``."""
    return [{
        "beta": list(b.central.values),
        "converged": b.converged,
        "iterations": b.iterations,
        "final_update": b.final_update,
        "monotone_iterates": b.monotone_iterates,
        "L_estimate": b.L_estimate,
        "u_at_R": [float(x[-1]) for x in b.u],
        "verification": _verification_dict(rep),
        "csv": name,
    } for b, rep, name in results]


def _hypotheses_dict(spec: ProblemSpec, grid: RadialGrid, betas) -> dict:
    u_max = max(10.0, 4.0 * max(max(b.values) for b in betas))
    reports = validate_hypotheses(spec, grid.horizon, u_max, samples=33)
    return {
        name: {
            "passed": rep.passed,
            "grid": rep.grid_description,
            "witness_point": rep.witness_point,
            "witness_value": rep.witness_value,
        }
        for name, rep in reports.items()
    }


def _csv_header(d: int) -> list[str]:
    return (["r"] + [f"u_{j + 1}" for j in range(d)]
            + [f"lb_{j + 1}" for j in range(d)] + ["ub"])


def write_solution_csv(path: Path, grid: RadialGrid, u: list[np.ndarray],
                       lower: list[np.ndarray] | None,
                       upper: np.ndarray | None) -> None:
    columns = [grid.nodes, *u, *(lower if lower is not None else [None] * len(u)), upper]
    cells = [[""] * len(grid) if col is None else map(repr, map(float, col))
             for col in columns]
    lines = [",".join(_csv_header(len(u))), *map(",".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_solution_csv(path: Path, d: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Return (r, u list) from a solution file; the bound columns are not read.

    A non-numeric or non-finite ``r``/``u_j`` cell is a ``ConfigError`` naming
    the file, column and row (counted from 1 below the header)."""
    try:
        lines = path.read_text(encoding="utf-8").strip().split("\n")
    except FileNotFoundError:
        raise ConfigError(str(path), "solution file not found") from None
    header, width = lines[0].split(","), 2 * d + 2
    if header != _csv_header(d):
        raise ConfigError(str(path), f"unexpected CSV header {header!r}")
    if any(line.count(",") != width - 1 for line in lines[1:]):
        raise ConfigError(str(path), "malformed CSV row")
    cells = ",".join(lines[1:]).split(",") if len(lines) > 1 else []

    def column(k: int) -> np.ndarray:
        texts = cells[k::width]
        try:
            values = np.fromiter(map(float, texts), dtype=float, count=len(texts))
        except ValueError:
            for row, text in enumerate(texts):  # find the cell that failed
                try:
                    float(text)
                except ValueError:
                    raise ConfigError(str(path), f"column {header[k]}, row {row + 1}: "
                                      f"not a number: {text!r}") from None
            raise
        if not np.all(np.isfinite(values)):
            row = int(np.argmax(~np.isfinite(values)))
            raise ConfigError(str(path), f"column {header[k]}, row {row + 1}: "
                              f"not finite: {texts[row]!r}")
        return values

    r, *u = [column(k) for k in range(1 + d)]
    return r, u


def _timing(label: str, started: float) -> None:
    print(f"[radsolve] {label} in {time.perf_counter() - started:.2f} s", file=sys.stderr)


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands

def _solve_all(cfg: RunConfig, out: Path):
    t0 = time.perf_counter()
    tables = build_transform_tables(cfg.spec, cfg.grid, cfg.classifier.probe)
    _timing("transform tables built", t0)
    results = []
    for i, beta in enumerate(cfg.betas):
        t1 = time.perf_counter()
        bundle = iterate(cfg.spec, cfg.grid, beta, tol=cfg.tol, max_iter=cfg.max_iter,
                         kernels=tables.kernels)
        report = verify_solution(bundle, tables, cfg.spec)
        name = f"{cfg.stem}_{i:03d}.csv"
        write_solution_csv(out / name, cfg.grid, list(bundle.u),
                           list(report.lower_curves) if report.lower_curves else None,
                           report.upper_curve)
        results.append((bundle, report, name))
        _timing(f"beta {list(beta.values)} solved ({bundle.iterations} iterations)", t1)
    return tables, results


def cmd_solve(cfg: RunConfig, out_override: str | None = None) -> int:
    out = _out_dir(cfg, out_override)
    tables, results = _solve_all(cfg, out)
    doc = {
        "command": "solve",
        "version": __version__,
        "config": cfg.raw,
        "hypotheses": _hypotheses_dict(cfg.spec, cfg.grid, cfg.betas),
        "solutions": _solutions(results),
    }
    if not all(h["passed"] for h in doc["hypotheses"].values()):
        doc["tag"] = "hypotheses unverified"
    (out / "report.json").write_text(canonical_json(doc), encoding="utf-8")
    if any(not b.converged for b, _, _ in results):
        print("[radsolve] solver did not converge within max_iter", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    if any(not rep.passed for _, rep, _ in results):
        print("[radsolve] verification failed; see report.json", file=sys.stderr)
        return EXIT_VERIFICATION
    print(f"[radsolve] solve ok; artifacts in {out}", file=sys.stderr)
    return EXIT_OK


def cmd_classify(cfg: RunConfig, out_override: str | None = None) -> int:
    out = _out_dir(cfg, out_override)
    t0 = time.perf_counter()
    spec = cfg.spec
    classification = classify(spec, cfg.betas[0].values, cfg.classifier)
    probe = cfg.classifier.probe
    ko = [check_keller_osserman(spec.diagonal(j), probe) for j in range(spec.d)]
    yz = [check_ye_zhou(spec.diagonal(j), probe) for j in range(spec.d)]
    remarks = check_remark_implications(spec, classification.conditions["C3"].status, probe)
    lair_doc = None
    inst = match_lair_form(spec)
    if inst is not None:
        v1, v2 = check_lair_proposition(inst, probe)
        both = {v1.verdict, v2.verdict}
        predicted = (True if both == {"diverges"}
                     else False if "inconclusive" not in both else None)
        lair_doc = {
            "alpha": inst.alpha, "beta_exp": inst.beta_exp,
            "within_sublinear_range": inst.within_sublinear_range,
            "first": v1, "second": v2,
            "explosive_predicted": predicted,
        }
    doc = {
        "command": "classify",
        "version": __version__,
        "config": cfg.raw,
        "classification": classification,
        "auxiliary": {
            "keller_osserman": ko,
            "ye_zhou": yz,
            "remarks": remarks,
            "lair": lair_doc,
        },
    }
    (out / "report.json").write_text(canonical_json(doc), encoding="utf-8")
    _timing("classification", t0)
    print(f"[radsolve] verdict: {classification.theorem}", file=sys.stderr)
    return EXIT_OK if classification.theorem != "inconclusive" else EXIT_INCONCLUSIVE


def cmd_verify(cfg: RunConfig, solution_path: str, out_override: str | None = None) -> int:
    out = _out_dir(cfg, out_override)
    r, u = read_solution_csv(Path(solution_path), cfg.spec.d)
    nodes = cfg.grid.nodes
    if len(r) != len(nodes) or not np.array_equal(r, nodes):
        raise ConfigError(str(solution_path),
                          f"grid mismatch: file has {len(r)} rows, config grid has "
                          f"{len(nodes)} nodes (or node values differ)")
    central = CentralValues(tuple(float(x[0]) for x in u))
    bundle = SolutionBundle(
        grid=cfg.grid, central=central,
        u=tuple(u),
        iterations=0, final_update=0.0, converged=True, tolerance=cfg.tol,
        monotone_iterates=True,
        L_estimate=float(np.max(np.sum(u, axis=0))),
    )
    tables = build_transform_tables(cfg.spec, cfg.grid, cfg.classifier.probe)
    report = verify_solution(bundle, tables, cfg.spec)
    doc = {
        "command": "verify",
        "version": __version__,
        "config": cfg.raw,
        "solution": str(solution_path),
        "verification": _verification_dict(report),
    }
    (out / "verify_report.json").write_text(canonical_json(doc), encoding="utf-8")
    if report.passed:
        print("[radsolve] verification PASS", file=sys.stderr)
        return EXIT_OK
    print("[radsolve] verification FAIL; see verify_report.json", file=sys.stderr)
    return EXIT_VERIFICATION


def cmd_sweep(cfg: RunConfig, out_override: str | None = None) -> int:
    if len(cfg.betas) < 2:
        raise ConfigError("beta", "sweep needs at least 2 central-value vectors")
    out = _out_dir(cfg, out_override)
    tables, results = _solve_all(cfg, out)
    bundles = [b for b, _, _ in results]

    ordering_violations = []
    comparisons = []
    for i, k in itertools.permutations(range(len(bundles)), 2):
        bi, bk = bundles[i], bundles[k]
        if all(x <= y for x, y in zip(bi.central.values, bk.central.values)):
            worst = max(float(np.max(ui - uk)) for ui, uk in zip(bi.u, bk.u))
            slack = 2.0 * cfg.tol
            comparisons.append({"lower": i, "higher": k, "worst_excess": worst})
            if worst > slack:
                ordering_violations.append((i, k, worst))

    table_lines = ["index," + ",".join(f"beta_{j + 1}" for j in range(cfg.spec.d))
                   + "," + ",".join(f"u_{j + 1}_at_R" for j in range(cfg.spec.d))
                   + ",L_estimate,iterations,converged"]
    for i, b in enumerate(bundles):
        cells = [str(i)]
        cells += [repr(v) for v in b.central.values]
        cells += [repr(float(x[-1])) for x in b.u]
        cells += [repr(b.L_estimate), str(b.iterations), str(b.converged).lower()]
        table_lines.append(",".join(cells))
    (out / "sweep_table.csv").write_text("\n".join(table_lines) + "\n", encoding="utf-8")

    doc = {
        "command": "sweep",
        "version": __version__,
        "config": cfg.raw,
        "solutions": _solutions(results),
        "ordering": {
            "comparable_pairs": comparisons,
            "violations": [{"lower": i, "higher": k, "worst_excess": w}
                           for i, k, w in ordering_violations],
        },
    }
    (out / "report.json").write_text(canonical_json(doc), encoding="utf-8")
    if any(not b.converged for b in bundles):
        return EXIT_NOT_CONVERGED
    if ordering_violations:
        print("[radsolve] solver-consistency failure: solutions are not ordered "
              "with their central values", file=sys.stderr)
        return EXIT_VERIFICATION
    if any(not rep.passed for _, rep, _ in results):
        return EXIT_VERIFICATION
    print(f"[radsolve] sweep ok; artifacts in {out}", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="radsolve",
        description="Monotone-iteration solver and classifier for radial "
                    "quasilinear elliptic systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "classify", "verify", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON config")
        sp.add_argument("--out", default=None, help="output directory override")
        if name == "verify":
            sp.add_argument("--solution", required=True, help="solution CSV to recheck")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "classify":
            return cmd_classify(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.solution, args.out)
        return cmd_sweep(cfg, args.out)
    except NegativeCoefficientError as err:  # a coefficient negative on the working grid
        print(f"[radsolve] config error: {ConfigError(f'problem.{err.key}', err.detail)}",
              file=sys.stderr)
        return EXIT_CONFIG
    except IterateOverflowError as err:  # the horizon lies beyond what the iterates reach
        print(f"[radsolve] config error: {ConfigError('grid.R', str(err))}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as err:
        print(f"[radsolve] config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ExprError as err:
        print(f"[radsolve] expression error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
