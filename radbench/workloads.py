"""The three benchmark workloads, their inputs and their output checks.

A workload is a fixed list of radsolve CLI commands.  One pass runs them all
in-process through `radsolve.cli.main`, each with `--out` under a pass
directory, and only then checks the outputs, so the checks are not timed.
An operation is one CLI command; it fails when it raises, exits with a code
outside its expected set, or fails its output check.

* `sweep_coupled`: `sweep` on the shipped `configs/coupled_sweep.json`.
  Stresses F re-tabulation inside `verify_bounds`; bypasses the classifier.
* `solve_large_grid`: `solve` then `verify` on a d = 3 stress instance with
  M = 20000.  Stresses the iteration, residuals and CSV write/read; the
  central values are not uniform, so the F upper bound and its inversion are
  bypassed.
* `classify_gallery`: `classify` on the three shipped configs and on a
  gallery of random valid instances.  Stresses many small expression
  evaluations, tail probes, `CumulativeInterpolant` and the C6 bisection;
  bypasses the solver and CSV I/O.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

WORKLOADS = ("sweep_coupled", "solve_large_grid", "classify_gallery")
THEOREMS = ("Thm1-large", "Thm1-bounded", "Thm2-bounded",
            "Thm3-large", "Thm3-bounded", "inconclusive")

# sup-norm relative error of the coupled_sweep solutions against beta*sinh(r)/r;
# the second-order grid error at M = 2000 is about 6e-7
ORACLE_TOL = 1e-5

GALLERY_SIZE = 40
# The shape and coefficients of each gallery instance come from this fixed
# stream; the benchmark seed draws each instance's central value.  With the
# whole instance drawn from the seed, the classify time of a 40-instance
# gallery spread 40-47% (quartile distance over median, 10 seeds), set by how
# wide a few C6 feasibility windows happen to be.  The central value leaves
# the classifier's work unchanged, so the gallery still differs per seed
# while its cost does not.
GALLERY_STREAM = 20240817

# d = 3, M = 20000 stress instance: coupled linear-plus-sqrt nonlinearities,
# nonzero gradient terms, three different p-Laplacians and non-uniform
# central values (which skip the F upper bound)
STRESS_CONFIG = {
    "problem": {
        "N": 3, "d": 3, "p": [2.0, 2.5, 1.6],
        "h": ["0.5/(1+r)", "0.1", "0.2*exp(-r)"],
        "a": ["4", "4", "exp(-r)"],
        "f": ["u2 + sqrt(u3)", "0.5*u1 + sqrt(u3)", "0.2*u1 + sqrt(u2)"],
        "F_anchor": 1.0,
    },
    "grid": {"R": 20.0, "M": 20000},
    "solver": {"tol": 1e-10, "max_iter": 10000},
    "beta": [1.0, 1.5, 2.0],
    "output": {"dir": "runs/stress_d3"},
}


class CheckFailed(Exception):
    """An operation's output does not meet its check."""


def import_radsolve():
    """Import radsolve from this checkout's `src`, never from elsewhere."""
    if not (SRC / "radsolve" / "cli.py").is_file():
        raise ImportError(f"no radsolve sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import radsolve
    if Path(radsolve.__file__).resolve().parent != SRC / "radsolve":
        raise ImportError(f"radsolve was imported from {radsolve.__file__}, not {SRC}")
    return radsolve


@dataclass(frozen=True)
class Op:
    """One CLI command writing to ``<pass dir>/<out>``; `{pass}` in its
    arguments is the pass directory."""

    name: str
    argv: tuple[str, ...]
    out: str
    expected: frozenset[int]
    check: Callable[[Path, int], dict]

    def args(self, pass_dir: Path) -> list[str]:
        return ([a.replace("{pass}", str(pass_dir)) for a in self.argv]
                + ["--out", str(pass_dir / self.out)])


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    configs: tuple[Path, ...]  # what every CLI invocation parses first


@dataclass
class PassResult:
    seconds: float
    failures: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


# -- inputs ----------------------------------------------------------------

def random_config(shape_rng: np.random.Generator, beta_rng: np.random.Generator) -> dict:
    """One random valid instance as a config document.

    The grammar is that of `tests/conftest.py::_random_instance`: nonnegative
    coefficients, monotone f, and superlinear nonlinearities paired with
    decaying sources and a short horizon.  Only the central value is drawn
    from ``beta_rng``.
    """
    rng = shape_rng
    d = int(rng.integers(1, 4))
    N = int(rng.choice([3, 4, 5]))
    p = [float(rng.choice([1.6, 2.0, 2.2, 2.5, 3.0])) for _ in range(d)]

    def coeff():
        return round(float(rng.uniform(0.1, 1.2)), 3)

    f_terms = []
    superlinear = False
    for _ in range(d):
        comp = int(rng.integers(1, d + 1))
        expo = float(rng.choice([0.5, 1.0, 1.0, 2.0, 3.0]))
        superlinear = superlinear or expo > 1.0
        term = f"{coeff()}*u{comp}^{expo}" if expo != 1.0 else f"{coeff()}*u{comp}"
        if rng.random() < 0.4:
            other = int(rng.integers(1, d + 1))
            term += f" + {coeff()}*u{other}"
        if rng.random() < 0.3:
            term += f" + {coeff()}"
        f_terms.append(term)

    if superlinear:
        a_pool = ["{c}*(1+r)^(-4)", "{c}*(1+r)^(-3)", "{c}*exp(-r)"]
        R, beta = 1.0, round(float(beta_rng.uniform(0.6, 1.0)), 3)
    else:
        a_pool = ["{c}", "{c}*(1+r)^(-2)", "{c} + {c2}*r^2", "{c}*exp(-r)"]
        R, beta = 2.0, round(float(beta_rng.uniform(0.6, 1.4)), 3)
    a = [str(rng.choice(a_pool)).format(c=coeff(), c2=round(coeff() * 0.3, 4))
         for _ in range(d)]
    h_pool = ["0", "0", f"{round(coeff() * 0.25, 4)}", "{c}/(1+r)", "{c}*exp(-r)"]
    h = [str(rng.choice(h_pool)).format(c=round(coeff() * 0.3, 4)) for _ in range(d)]
    return {
        "problem": {"N": N, "d": d, "p": p, "h": h, "a": a, "f": f_terms, "F_anchor": 1.0},
        "grid": {"R": R, "M": 256},
        "beta": beta,
        "output": {"dir": "runs/gallery"},
    }


def gallery(seed: int, count: int = GALLERY_SIZE) -> list[dict]:
    shape_rng = np.random.default_rng(GALLERY_STREAM)
    beta_rng = np.random.default_rng(seed)
    return [random_config(shape_rng, beta_rng) for _ in range(count)]


def _write_config(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def build(name: str, seed: int, work_dir: Path) -> Workload:
    """The named workload, with its generated configs written under ``work_dir``."""
    if name == "sweep_coupled":
        config = CONFIGS / "coupled_sweep.json"
        op = Op("sweep coupled_sweep", ("sweep", "--config", str(config)), "sweep",
                frozenset({0}), _check_sweep)
        return Workload(name, (op,), (config,))
    if name == "solve_large_grid":
        config = _write_config(work_dir / "configs" / "stress_d3.json", STRESS_CONFIG)
        solve = Op("solve stress_d3", ("solve", "--config", str(config)), "solve",
                   frozenset({0}), _check_solve)
        verify = Op("verify stress_d3",
                    ("verify", "--config", str(config),
                     "--solution", "{pass}/solve/solution_000.csv"), "verify",
                    frozenset({0}), _check_verify)
        return Workload(name, (solve, verify), (config,))
    if name == "classify_gallery":
        configs = [CONFIGS / f"{stem}.json" for stem in SHIPPED_VERDICTS]
        configs += [_write_config(work_dir / "configs" / f"gallery_{i:03d}.json", doc)
                    for i, doc in enumerate(gallery(seed))]
        ops = tuple(Op(f"classify {c.stem}", ("classify", "--config", str(c)), c.stem,
                       frozenset({0, 5}), _check_classify)
                    for c in configs)
        return Workload(name, ops, tuple(configs))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# -- running ---------------------------------------------------------------

def run_pass(workload: Workload, pass_dir: Path) -> PassResult:
    """Run every command of the workload once, then check the outputs."""
    from radsolve import cli

    codes: list = []
    with contextlib.redirect_stderr(io.StringIO()):  # the CLI logs timings there
        started = time.perf_counter()
        for op in workload.ops:
            try:
                codes.append(cli.main(op.args(pass_dir)))
            except Exception as exc:  # a failed operation, not a failed benchmark
                codes.append(exc)
        seconds = time.perf_counter() - started

    result = PassResult(seconds)
    for op, code in zip(workload.ops, codes):
        if isinstance(code, Exception):
            detail = "".join(traceback.format_exception_only(type(code), code)).strip()
            where = traceback.extract_tb(code.__traceback__)[-1]
            result.failures.append(
                f"{op.name}: raised {detail} at {where.filename}:{where.lineno}")
        elif code not in op.expected:
            result.failures.append(f"{op.name}: exit code {code}, expected {sorted(op.expected)}")
        else:
            try:
                stats = op.check(pass_dir / op.out, code)
            except Exception as exc:
                result.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            else:
                result.stats.update(stats)
    return result


def snapshot(pass_dir: Path) -> dict[str, bytes]:
    """Every output file of a pass, by path relative to the pass directory."""
    return {str(p.relative_to(pass_dir)): p.read_bytes()
            for p in sorted(pass_dir.rglob("*")) if p.is_file()}


# -- output checks ---------------------------------------------------------

def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_columns(path: Path, names: list[str]) -> dict[str, np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {n: np.array([float(row[n]) for row in rows]) for n in names}


def _check_sweep(out: Path, code: int) -> dict:
    report = _report(out / "report.json")
    if report["ordering"]["violations"]:
        raise CheckFailed(f"ordering violations {report['ordering']['violations']}")
    worst = 0.0
    for sol in report["solutions"]:
        if sol["verification"]["upper_margins"] is None:
            raise CheckFailed(f"no upper margins for beta {sol['beta']}")
        d = len(sol["beta"])
        cols = _csv_columns(out / sol["csv"], ["r"] + [f"u_{j + 1}" for j in range(d)])
        r = cols["r"]
        shape = np.ones_like(r)
        shape[1:] = np.sinh(r[1:]) / r[1:]
        for j, beta in enumerate(sol["beta"]):
            exact = beta * shape
            err = float(np.max(np.abs(cols[f"u_{j + 1}"] - exact)) / np.max(np.abs(exact)))
            worst = max(worst, err)
    if not worst <= ORACLE_TOL:
        raise CheckFailed(f"oracle_rel_err {worst:.3e} exceeds {ORACLE_TOL:g}")
    return {"oracle_rel_err": worst}


def _check_solve(out: Path, code: int) -> dict:
    for sol in _report(out / "report.json")["solutions"]:
        if not sol["verification"]["passed"]:
            raise CheckFailed(f"verification failed for beta {sol['beta']}")
    return {}


def _check_verify(out: Path, code: int) -> dict:
    if _report(out / "verify_report.json")["verification"]["passed"] is not True:
        raise CheckFailed("verify on the solve's own CSV did not pass")
    return {}


# verdicts the shipped configs must keep: (theorem, right end of the C6 window)
SHIPPED_VERDICTS = {
    "sinh_oracle": ("Thm1-large", None),
    "bounded_cubic": ("Thm2-bounded", 1.664),
    "coupled_sweep": ("Thm1-large", None),
}


def _check_classify(out: Path, code: int) -> dict:
    report = _report(out / "report.json")
    theorem = report["classification"]["theorem"]
    if theorem not in THEOREMS:
        raise CheckFailed(f"unknown theorem tag {theorem!r}")
    if (code == 5) != (theorem == "inconclusive"):
        raise CheckFailed(f"exit code {code} does not match verdict {theorem}")
    expected = SHIPPED_VERDICTS.get(out.name)
    if expected is not None:
        want, right_end = expected
        if theorem != want:
            raise CheckFailed(f"verdict {theorem}, expected {want}")
        if right_end is not None:
            lo, hi = report["classification"]["beta_window"]
            if not (math.isclose(lo, 1.0, rel_tol=1e-9) and abs(hi - right_end) < 1e-3):
                raise CheckFailed(f"window ({lo}, {hi}), expected about (1, {right_end})")
    return {}
