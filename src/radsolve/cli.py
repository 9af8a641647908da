"""Config-driven command line front end.

One JSON document describes a run (problem, grid, solver knobs, probe knobs,
central values, output location); the subcommands are

    solve     iterate per central-value vector, verify, write CSV + report
    classify  run the condition probes and the theorem classifier
    verify    recheck a stored solution file against its config
    sweep     solve a family of central values and compare the solutions

Reports are canonical JSON (sorted keys, fixed layout).  Solution CSVs, in ``repr``
round-trip formatting, are written and read a block of rows at a time, the reader
streaming the file without holding it whole, so identical configs produce
byte-identical artifacts, reading a CSV back yields the same bits and only one
block's cells are text at once.  Timings go to stderr, never the report.

Exit codes: 0 success, 2 config or file error, 3 solver non-convergence,
4 verification or consistency failure (among them an iterate that decreases, whose
report carries the error and the hypotheses block), 5 inconclusive classification.  An
iterate, kernel or barrier A_j that overflows before the horizon is a config
error on ``grid.R`` naming the radius (and, for an iterate, the sweep).
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
from typing import Any, Iterator

import numpy as np

from . import __version__
from .conditions import (
    check_keller_osserman,
    check_lair_proposition,
    check_remark_implications,
    check_ye_zhou,
    classify,
    match_lair_form,
)
from .exprlang import ExprError
from .quadrature import ProbeConfig, RadialGrid
from .solver import (CentralValues, IterateDecreaseError, IterateOverflowError, SolutionBundle,
                     VerificationReport, iterate, verify_solution)
from .transforms import (KernelOverflowError, NegativeCoefficientError, ProblemSpec,
                         build_transform_tables, validate_hypotheses)

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
    probe: ProbeConfig
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
    if not math.isfinite(v):  # JSON text such as Infinity, NaN or 1e400
        raise ConfigError(path, f"expected a finite number, got {value!r}")
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
    h = _expr_list(_require(prob, "h", "problem"), d, "problem.h")
    a = _expr_list(_require(prob, "a", "problem"), d, "problem.a")
    f = _expr_list(_require(prob, "f", "problem"), d, "problem.f")
    try:
        spec = ProblemSpec.from_strings(N, d, p, h, a, f)
    except ExprError as err:
        raise ConfigError("problem", f"expression error: {err}") from None
    except ValueError as err:
        raise ConfigError("problem", str(err)) from None

    grid_doc = _require(doc, "grid", "")
    if not isinstance(grid_doc, dict):
        raise ConfigError("grid", "must be an object")
    R = _number(_require(grid_doc, "R", "grid"), "grid.R", minimum=0.0, strict=True)
    M = int(_number(grid_doc.get("M", 2000), "grid.M", minimum=8, integer=True))
    try:
        grid = RadialGrid(R, M)
    except (MemoryError, ValueError) as err:  # numpy cannot allocate, or index, the nodes
        raise ConfigError("grid.M", f"too many nodes: {err}") from None

    sol = doc.get("solver", {})
    if not isinstance(sol, dict):
        raise ConfigError("solver", "must be an object")
    tol = _number(sol.get("tol", 1e-10), "solver.tol", minimum=0.0, strict=True)
    max_iter = int(_number(sol.get("max_iter", 10_000), "solver.max_iter",
                           minimum=1, integer=True))

    pr = doc.get("probes", {})
    if not isinstance(pr, dict):
        raise ConfigError("probes", "must be an object")
    per_octave = int(_number(pr.get("nodes_per_octave", 256), "probes.nodes_per_octave",
                             minimum=8, integer=True))
    if per_octave % 2:
        raise ConfigError("probes.nodes_per_octave", f"must be even, got {per_octave}")
    try:
        probe = ProbeConfig(
            horizon_count=int(_number(pr.get("K", 10), "probes.K", minimum=4, integer=True)),
            r_start=_number(pr.get("r_start", 1.0), "probes.r_start", minimum=0.0, strict=True),
            rho_conv=_number(pr.get("rho_conv", 0.9), "probes.rho_conv"),
            nodes_per_octave=per_octave,
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
                     probe=probe, betas=betas, out_dir=out_dir,
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
    except UnicodeDecodeError as err:
        raise ConfigError(str(path), f"not UTF-8 text: {err}") from None
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


_CSV_BLOCK = 1024  # rows parsed, or twice the rows laid out, at a time; the cells of one are text

# The writer lays a cell out in one-byte slots and keeps some of them: a sign, "0.000"
# (the lead of 0.0ddd), 17 digits for before the point, the point, the 2nd to 17th digits
# again for after it, "e+123" and the column's separator.
_SIGN, _LEAD, _HEAD, _POINT, _TAIL, _EXP, _SEP = 0, 1, 6, 23, 24, 40, 45


def _pow10(k: int) -> tuple[float, float, float, float]:
    """10^k as floats hi + lo, hi rounded to nearest and lo the rest, and hi split into
    halves of 26 bits (Veltkamp), from exact integers."""
    if k >= 0:
        hi, lo = float(10 ** k), float(10 ** k - int(float(10 ** k)))
    else:
        num, den = (hi := 1 / 10 ** -k).as_integer_ratio()
        lo = (den - num * 10 ** -k) / (den * 10 ** -k)
    top = hi * 134217729.0 - (hi * 134217729.0 - hi)  # 2^27 + 1
    return hi, lo, top, hi - top


def _scaled(a: np.ndarray, e10: np.ndarray, powers: np.ndarray):
    """floor(V), V − floor(V) and ulp(a)·10^k / 2, for V = a·10^k with k = 16 − e10 and
    10^k = hi + lo, within 1e-14: a·hi is summed exactly from products of halves (Dekker
    1971), and a·lo added.  ``powers`` holds ``_pow10(k)`` in column 300 + k, filled as
    it is met.  The ``del``s, here and in the callers, keep few block-sized arrays alive."""
    k = 316 - e10
    for j in set(k[np.isnan(powers[0, k])].tolist()):
        powers[:, j] = _pow10(j - 300)
    hi, t, top, bottom = (row[k] for row in powers)
    del k
    t *= a
    p = a * hi
    gap = (a.view(np.int64) & (0x7FF << 52)).view(np.float64) * hi  # 2^e ≤ a, scaled
    gap *= 2.0 ** -53  # half of ulp(a) = 2^(e - 52)
    del hi
    high = (a.view(np.int64) & -(1 << 27)).view(np.float64)  # a's first 26 bits
    low = a - high
    err = high * top
    err -= p
    high *= bottom
    err += high
    top *= low
    err += top
    bottom *= low
    err += bottom
    t += err
    del err, high, low, top, bottom
    floor = np.floor(t)
    t -= floor
    p = p.astype(np.int64)
    p += floor.astype(np.int64)
    return p, t, gap


def _repr_digits(x: np.ndarray, powers: np.ndarray):
    """For each float of ``x``: whether its ``float.__repr__`` digits are certified, the
    digits as a 17-digit integer N (zeros after the significant ones), their count (15
    stands for 15 or fewer) and the exponent E of the first.  Scaled to V = |x|·10^(16−E)
    ∈ [1e16, 1e17), the rounding interval of |x| holds integers; of the multiples of the
    greatest power of ten among them, N is the one nearest V.  Not certified: 0, inf,
    nan, |x| outside [1e-280, 1e280], a power-of-two significand (its interval is
    lopsided), and an interval end or a tie within 1e-9 of an integer."""
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280) & (a.view(np.int64) & ((1 << 52) - 1) != 0)
    a[~ok] = 1.5
    e10 = np.floor(np.log10(a)).astype(np.int64)
    v, frac, gap = _scaled(a, e10, powers)
    off = (v >= 10 ** 17).astype(np.int64) - (v < 10 ** 16)  # log10 was one off
    if (fix := np.flatnonzero(off)).size:
        e10[fix] += off[fix]
        v[fix], frac[fix], gap[fix] = _scaled(a[fix], e10[fix], powers)
    del a
    low, high = frac - gap, frac + gap
    del gap
    ok &= (np.abs(low - np.rint(low)) > 1e-9) & (np.abs(high - np.rint(high)) > 1e-9)
    last = v + np.ceil(high).astype(np.int64) - 1  # the last integer strictly inside
    spread = last - v - np.floor(low).astype(np.int64) - 1  # last − the first one
    del low, high
    r10, r100 = last - last // 10 * 10, last - last // 100 * 100
    tens, hundreds = r10 <= spread, r100 <= spread  # a multiple of 10, of 100 inside
    down = tens & (r10 + 10 <= spread)  # two multiples of 10: the nearer one is taken
    del spread
    last -= r10  # the last multiple of 10 inside, and of 100 at last − r100
    r100 -= r10
    del r10
    mid = (last - 5 - v) - frac  # > 0: V is nearer the multiple of 10 below
    ok &= (np.abs(frac - 0.5) > 1e-9) & (~down | (np.abs(mid) > 1e-9))
    n = v
    n += frac > 0.5  # the nearest integer
    del v, frac
    np.copyto(n, last - 10 * (down & (mid > 0)), where=tens)
    np.copyto(n, last - r100, where=hundreds)  # the one multiple of 10^m, m ≥ 2
    del last, r100, mid
    top = n == 10 ** 17
    n[top], e10[top] = 10 ** 16, e10[top] + 1
    return ok, n, 17 - tens.astype(np.int64) - hundreds, e10  # 15: zeros to strip


class _CsvRows:
    """The bytes of solution CSV rows, a block at a time, each cell as ``float.__repr__``
    writes it: the layout of the cells of one call, and the tables it builds for them."""

    def __init__(self, seps: list[bytes], rows: int):
        """``seps``: the text after each given column's cells; ``rows``: the block size."""
        self.kinds = sorted(set(seps))
        self.sep_kind = np.array([self.kinds.index(sep) for sep in seps])
        self.masks = self._slot_masks(self.kinds)
        self.powers = np.full((4, 600), np.nan)
        pairs = (np.arange(100) % 10 + 48) * 256 + np.arange(100) // 10 + 48
        self.quads = (pairs[:, None] + (pairs << 16)).astype("<u4").ravel()  # "0123" at 123
        self.chars = np.empty((rows, len(seps), self.masks.shape[1]), np.uint8)
        self.chars[..., :_HEAD] = np.frombuffer(b"-0.000", np.uint8)
        self.chars[..., _EXP] = ord("e")
        for k, sep in enumerate(seps):
            self.chars[:, k, _SEP:_SEP + len(sep)] = np.frombuffer(sep, np.uint8)
        self.keep = np.empty((rows * len(seps), self.masks.shape[1]), bool)

    @staticmethod
    def _slot_masks(seps: list[bytes]) -> np.ndarray:
        """The kept slots of a cell whose digit count is nd, exponent code c and separator
        seps[s], at row (c·18 + nd)·len(seps) + s; the sign slot is set per cell.  The code
        is E + 4 for repr's positional range −4 ≤ E < 16, else 20 for |E| < 100, 21 beyond."""
        code, nd, s = (k.reshape(-1, 1) for k in np.indices((22, 18, len(seps))))
        e, fixed, small = code - 4, code < 20, code < 4
        head = np.where(fixed & ~small, e + 1, np.where(small, nd, 1))  # digits before "."
        end = np.where(fixed & ~small, np.maximum(nd, e + 2), nd)  # 100.0: to E + 2
        keep = np.zeros((code.size, _SEP + max(map(len, seps))), bool)
        keep[:, _LEAD:_HEAD] = np.arange(5) < np.where(small, 1 - e, 0)
        keep[:, _HEAD:_POINT] = np.arange(17) < head
        keep[:, _POINT] = (fixed & ~small | ~fixed & (nd > 1))[:, 0]
        keep[:, _TAIL:_EXP] = (np.arange(1, 17) >= head) & (np.arange(1, 17) < end) & ~small
        keep[:, _EXP:_SEP] = ~fixed & ((np.arange(5) != 2) | (code == 21))
        keep[:, _SEP:] = np.arange(keep.shape[1] - _SEP) < np.array(list(map(len, seps)))[s]
        return keep

    def block(self, x: np.ndarray) -> np.ndarray:
        """The bytes of the rows of ``x``, (rows, given columns), as uint8."""
        ok, n, count, e10 = _repr_digits(x.ravel(), self.powers)
        chars = self.chars[:len(x)].reshape(x.size, -1)
        head = chars[:, _HEAD - 3:_POINT].view("<u4")  # "000" of the lead, then the digits
        tail = chars[:, _TAIL:_EXP].view("<u4")
        for k in range(4, 0, -1):
            q = n // 10000
            head[:, k] = tail[:, k - 1] = self.quads[n - q * 10000]
            n = q
        head[:, 0] = self.quads[n]
        chars[:, _POINT] = ord(".")
        if (many := np.flatnonzero(count == 15)).size:  # strip the zeros
            count[many] = 17 - np.argmin(chars[many, _HEAD:_POINT][:, ::-1] == 48, axis=1)
        code = np.where((e10 >= -4) & (e10 < 16), e10 + 4, 20 + (np.abs(e10) >= 100))
        if (code >= 20).any():
            exp = self.quads[np.abs(e10)].view(np.uint8).reshape(-1, 4)
            exp[:, 0] = np.where(e10 < 0, ord("-"), ord("+"))
            chars[:, _EXP + 1:_SEP] = exp
        del n, q, e10
        code *= 18
        code += count
        code *= len(self.kinds)
        code.reshape(len(x), -1)[:] += self.sep_kind
        keep = np.take(self.masks, code, axis=0, out=self.keep[:x.size])
        del code, count
        keep[:, _SIGN] = np.signbit(x.ravel())
        if (slow := np.flatnonzero(~ok)).size:
            text = np.array(list(map(float.__repr__, x.ravel()[slow].tolist())), "S24")
            chars[slow, _HEAD:_HEAD + 24] = text = text.view(np.uint8).reshape(-1, 24)
            keep[slow, :_SEP] = False
            keep[slow, _HEAD:_HEAD + 24] = text != 0
        return chars[keep]


def write_solution_csv(path: Path, grid: RadialGrid, u: list[np.ndarray],
                       lower: list[np.ndarray] | None,
                       upper: np.ndarray | None) -> None:
    """Write the columns r, u_j, lb_j and ub, one row per node, each cell as
    ``float.__repr__`` writes it and an absent bound column as empty cells, half of
    ``_CSV_BLOCK`` rows at a time (a cell takes some 190 bytes of temporaries: with 7
    columns those of a half block stay below the reader's).  A cell's digits are the
    shortest decimal strictly inside its rounding interval, the nearest of them if
    several, found with the interval scaled in double-double arithmetic
    (``_repr_digits``); they are exact because every decision keeps a margin of 1e-9
    against an error below 1e-14.  ``float.__repr__`` itself writes only the cells
    outside that rule: 0, inf, nan, |x| outside [1e-280, 1e280], a power-of-two
    significand, and an interval end or a tie within 1e-9 of an integer."""
    columns = [grid.nodes, *u, *(lower if lower is not None else [None] * len(u)), upper]
    given = [k for k, col in enumerate(columns) if col is not None]
    seps = [b"," * (b - a - 1) + (b"," if b < len(columns) else b"\n")
            for a, b in zip(given, given[1:] + [len(columns)])]
    cells = [np.asarray(columns[k], dtype=float) for k in given]
    step = _CSV_BLOCK // 2
    rows = _CsvRows(seps, min(step, len(grid)))
    with path.open("wb") as out:
        out.write(",".join(_csv_header(len(u))).encode() + b"\n")
        for lo in range(0, len(grid), step):
            out.write(rows.block(np.stack([col[lo:lo + step] for col in cells], axis=1)))


def _stripped_lines(file) -> Iterator[str]:
    """The lines of ``file.read().strip()``, split at "\\n", read one line at a time;
    whitespace-only lines come out empty (a malformed row either way), dropped at the ends.
    Text that is not UTF-8 is a ``ConfigError`` naming the file, raised where it is met."""
    last, blank = None, 0
    try:
        for line in file:
            line = line.rstrip("\n")
            if not line.strip():
                blank += last is not None
            elif last is None:
                last = line.lstrip()
            else:
                yield last
                yield from itertools.repeat("", blank)
                last, blank = line, 0
    except UnicodeDecodeError as err:  # its position counts from the decoder's last chunk
        raise ConfigError(file.name, f"not UTF-8 text: {err.reason}") from None
    if last is not None:
        yield last.rstrip()


def read_solution_csv(path: Path, d: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Return (r, u list) from a solution file; the bound columns are not read.

    The file is streamed, never held whole: its lines, read as by ``str.strip()`` of its
    text (whitespace before the header and at the end is ignored, a whitespace-only line
    before more data is a malformed row), are parsed ``_CSV_BLOCK`` rows at a time into
    one (1 + d, rows) array, sized by a first pass that counts the commas.  A row with
    the wrong number of cells, or a non-numeric or non-finite ``r``/``u_j`` cell, is a
    ``ConfigError`` naming the file (and the cell's column and row, counted from 1 below
    the header); the first block with a fault reports it, a bad cell column by column."""
    try:
        with path.open("rb") as raw:  # a row has 2 d + 1 commas, as the header has
            commas = sum(chunk.count(b",") for chunk in iter(lambda: raw.read(1 << 16), b""))
    except FileNotFoundError:
        raise ConfigError(str(path), "solution file not found") from None
    with path.open(encoding="utf-8") as file:
        lines = _stripped_lines(file)
        header, width = next(lines, "").split(","), 2 * d + 2
        if header != _csv_header(d):
            raise ConfigError(str(path), f"unexpected CSV header {header!r}")
        data, done = np.empty((1 + d, commas // (width - 1) - 1)), 0
        while block := list(itertools.islice(lines, _CSV_BLOCK)):
            if any(line.count(",") != width - 1 for line in block):
                raise ConfigError(str(path), "malformed CSV row")
            cells = ",".join(block).split(",")
            texts = [cells[k::width] for k in range(1 + d)]
            del block, cells  # only the r and u_j cells stay strings
            try:
                values = np.array(texts, dtype=float)  # float() of each cell
            except ValueError:
                values = None
            if values is None or not np.all(np.isfinite(values)):
                for k, column in enumerate(texts):  # find the cell that failed
                    for row, cell in enumerate(column, start=done + 1):
                        try:
                            fault = "" if math.isfinite(float(cell)) else "not finite"
                        except ValueError:
                            fault = "not a number"
                        if fault:
                            raise ConfigError(str(path), f"column {header[k]}, row {row}: "
                                              f"{fault}: {cell!r}")
            data[:, done:done + len(texts[0])] = values
            done += len(texts[0])
    r, *u = data
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
    tables = build_transform_tables(cfg.spec, cfg.grid, cfg.probe)
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


def _with_hypotheses(cfg: RunConfig, doc: dict) -> dict:
    """``doc`` with the hypotheses block, tagged when a sampled hypothesis fails."""
    doc["hypotheses"] = _hypotheses_dict(cfg.spec, cfg.grid, cfg.betas)
    if not all(h["passed"] for h in doc["hypotheses"].values()):
        doc["tag"] = "hypotheses unverified"
    return doc


def _decreasing_iterate(cfg: RunConfig, out: Path, command: str, err: IterateDecreaseError) -> int:
    """The report of a run whose iterate decreased: the error and the hypotheses block,
    whose witnesses show which f_j is not nondecreasing."""
    doc = {"command": command, "version": __version__, "config": cfg.raw, "error": str(err)}
    (out / "report.json").write_text(canonical_json(_with_hypotheses(cfg, doc)), encoding="utf-8")
    print(f"[radsolve] monotone iteration failed: {err}; see report.json", file=sys.stderr)
    return EXIT_VERIFICATION


def cmd_solve(cfg: RunConfig, out_override: str | None = None) -> int:
    out = _out_dir(cfg, out_override)
    tables, results = _solve_all(cfg, out)
    doc = _with_hypotheses(cfg, {
        "command": "solve",
        "version": __version__,
        "config": cfg.raw,
        "solutions": _solutions(results),
    })
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
    spec, probe = cfg.spec, cfg.probe
    classification = classify(spec, cfg.betas[0].values, probe)
    ko = [check_keller_osserman(spec.diagonal(j), p, probe) for j, p in enumerate(spec.p)]
    yz = [check_ye_zhou(spec.diagonal(j), p, probe) for j, p in enumerate(spec.p)]
    remarks = check_remark_implications(spec, classification.conditions["C3"].status, probe,
                                        (ko, yz))
    spec.release_diagonals()  # the remarks read the diagonals last
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
    tables = build_transform_tables(cfg.spec, cfg.grid, cfg.probe)
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
    except IterateDecreaseError as err:  # from solve or sweep: an f_j is not nondecreasing
        return _decreasing_iterate(cfg, _out_dir(cfg, args.out), args.command, err)
    except (IterateOverflowError, KernelOverflowError) as err:  # the horizon is out of reach
        print(f"[radsolve] config error: {ConfigError('grid.R', str(err))}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as err:
        print(f"[radsolve] config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ExprError as err:
        print(f"[radsolve] expression error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # an output path that is a file, a solution path that is a directory
        print(f"[radsolve] file error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
