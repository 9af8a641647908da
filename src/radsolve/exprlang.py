"""Small expression language for coefficient and nonlinearity functions.

Radial coefficients are functions of the single variable ``r``; nonlinearities
are functions of the solution components ``u1 .. ud``.  The grammar is a plain
arithmetic one:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' factor)?   # as Python: -a^b is -(a^b), a^-b works
    atom   := number | ident | func '(' expr (',' expr)* ')' | '(' expr ')'
    func   in {exp, log, sqrt, abs, min, max}

There is no implicit multiplication and whitespace is insignificant.
Evaluation is real-valued only: log or sqrt of a negative number, division by
zero, a negative base raised to a non-integer power, and overflow are all
reported as :class:`EvalError` rather than silently producing NaN or inf.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "EvalError",
    "ValidationReport",
    "parse",
    "evaluate_array",
    "unparse",
    "variables",
    "validate_sampled",
]


class ExprError(Exception):
    """Base class for expression language errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{detail}")


class EvalError(ExprError):
    """Domain error during evaluation.

    Carries the offending subexpression in text form plus the input value(s)
    that triggered the failure.  ``index`` is the flat position within a
    vectorized evaluation, when applicable.
    """

    def __init__(self, message: str, subexpr: str, inputs: tuple[float, ...] = (),
                 index: int | None = None):
        self.subexpr = subexpr
        self.inputs = inputs
        self.index = index
        shown = ", ".join(repr(v) for v in inputs)
        super().__init__(f"{message} in '{subexpr}' (inputs: {shown})")


# functions and their arity; None means variadic with at least 2 arguments
FUNCTIONS: dict[str, int | None] = {
    "exp": 1, "log": 1, "sqrt": 1, "abs": 1, "min": None, "max": None,
}


@dataclass(frozen=True)
class Expr:
    """Immutable expression tree node.

    ``kind`` is one of: num, var, neg, add, sub, mul, div, pow,
    exp, log, sqrt, abs, min, max.  Structural equality is the dataclass
    equality, which is what the parse/print round-trip tests rely on.
    """

    kind: str
    value: float = 0.0
    name: str = ""
    args: tuple["Expr", ...] = ()


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allowed_vars: frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.allowed = allowed_vars

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"found {text!r}" if kind != "end" else "unexpected end of input",
                             pos, expected=(repr(op),))
        self.take()

    def at_op(self, *ops: str) -> str | None:
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            return text
        return None

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while (op := self.at_op("+", "-")) is not None:
            self.take()
            right = self.term()
            left = Expr("add" if op == "+" else "sub", args=(left, right))
        return left

    def term(self) -> Expr:
        left = self.factor()
        while (op := self.at_op("*", "/")) is not None:
            self.take()
            right = self.factor()
            left = Expr("mul" if op == "*" else "div", args=(left, right))
        return left

    def factor(self) -> Expr:
        if self.at_op("-"):
            self.take()
            return Expr("neg", args=(self.factor(),))
        base = self.atom()
        if self.at_op("^"):
            self.take()
            exponent = self.factor()  # right-associative
            return Expr("pow", args=(base, exponent))
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.take()
        if kind == "number":
            if not np.isfinite(value := float(text)):  # 1e400 would print as 'inf'
                raise ParseError("number out of range", pos)
            return Expr("num", value=value)
        if kind == "ident":
            if text in FUNCTIONS:
                return self.call(text, pos)
            if text not in self.allowed:
                allowed = ", ".join(sorted(self.allowed))
                raise ParseError(f"unknown variable {text!r} (allowed: {allowed})", pos)
            return Expr("var", name=text)
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"found {text!r}" if kind != "end" else "unexpected end of input",
                         pos, expected=("number", "identifier", "'('"))

    def call(self, name: str, pos: int) -> Expr:
        self.expect_op("(")
        args = [self.expr()]
        while self.at_op(","):
            self.take()
            args.append(self.expr())
        self.expect_op(")")
        arity = FUNCTIONS[name]
        if arity is not None and len(args) != arity:
            raise ParseError(f"{name} takes exactly {arity} argument(s), got {len(args)}", pos)
        if arity is None and len(args) < 2:
            raise ParseError(f"{name} takes at least 2 arguments, got {len(args)}", pos)
        return Expr(name, args=tuple(args))


def parse(text: str, role: str, d: int = 1) -> Expr:
    """Parse ``text`` as an expression in the variables ``role`` allows:
    r for 'radial', u1 .. ud for 'nonlinearity'."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    if role not in ("radial", "nonlinearity"):
        raise ValueError(f"unknown role {role!r} (expected 'radial' or 'nonlinearity')")
    if role == "nonlinearity" and d < 1:
        raise ValueError("component count must be >= 1")
    names = {"r"} if role == "radial" else {f"u{i}" for i in range(1, d + 1)}
    return _Parser(text, frozenset(names)).parse()


def variables(e: Expr) -> frozenset[str]:
    if e.kind == "var":
        return frozenset({e.name})
    out: set[str] = set()
    for a in e.args:
        out |= variables(a)
    return frozenset(out)


# ---------------------------------------------------------------------------
# evaluation

def _reject(mask: np.ndarray, message: str, e: Expr, args: tuple[np.ndarray, ...]) -> None:
    """Raise ``EvalError`` at the first index where ``mask`` holds, with the inputs there."""
    if np.any(mask):
        i = int(np.argmax(mask))
        raise EvalError(message, unparse(e), tuple(float(x.flat[i]) for x in args), index=i)


def evaluate_array(e: Expr, env: Mapping[str, np.ndarray]) -> np.ndarray:
    """Vectorized evaluation over numpy arrays (all of one common shape).

    Raises :class:`EvalError` naming the offending subexpression and the first
    offending input value; never returns NaN or inf.  One ``np.errstate`` covers
    the whole evaluation, and each node checks its own result.
    """
    if not e.args:  # a number or a variable: nothing computed, no errstate needed
        return _evaluate(e, env)
    with np.errstate(all="ignore"):
        return _evaluate(e, env)


def _evaluate(e: Expr, env: Mapping[str, np.ndarray]) -> np.ndarray:
    if e.kind == "num":
        shape = next(iter(env.values())).shape if env else ()
        return np.full(shape, e.value, dtype=float)
    if e.kind == "var":
        try:
            return np.asarray(env[e.name], dtype=float)
        except KeyError:
            raise EvalError("unbound variable", e.name) from None

    args = tuple(_evaluate(a, env) for a in e.args)
    if e.kind == "neg":
        return -args[0]
    if e.kind == "add":
        out = args[0] + args[1]
    elif e.kind == "sub":
        out = args[0] - args[1]
    elif e.kind == "mul":
        out = args[0] * args[1]
    elif e.kind == "div":
        num, den = args
        _reject(den == 0, "division by zero", e, args)
        out = num / den
    elif e.kind == "pow":
        base, expo = args
        if (base <= 0).any():
            _reject((base < 0) & (expo != np.floor(expo)),
                    "negative base with non-integer exponent", e, args)
            _reject((base == 0) & (expo < 0), "zero base with negative exponent", e, args)
        out = np.power(base, expo)
    elif e.kind == "exp":
        out = np.exp(args[0])
    elif e.kind == "log":
        _reject(args[0] <= 0, "log of a non-positive number", e, args)
        out = np.log(args[0])
    elif e.kind == "sqrt":
        _reject(args[0] < 0, "sqrt of a negative number", e, args)
        out = np.sqrt(args[0])
    elif e.kind == "abs":
        return np.abs(args[0])
    elif e.kind in ("min", "max"):
        reducer = np.minimum if e.kind == "min" else np.maximum
        out = args[0]
        for a in args[1:]:
            out = reducer(out, a)
        return out
    else:  # pragma: no cover - exhaustive kinds
        raise ExprError(f"unknown node kind {e.kind!r}")
    # a finite sum means finite values; only a non-finite one needs the exact scan
    if not np.isfinite(np.add.reduce(out, axis=None)):
        _reject(~np.isfinite(out), "overflow or undefined result", e, args)
    return out


# ---------------------------------------------------------------------------
# printing

# syntactic classes, from loosest to tightest, and the class of each operator node
_RANK = {"expr": 0, "term": 1, "factor": 2, "atom": 3}
_CLASS = {"add": "expr", "sub": "expr", "mul": "term", "div": "term", "pow": "factor",
          "neg": "factor"}


def _fmt(e: Expr, need: str) -> str:
    text = unparse(e)
    if _RANK[_CLASS.get(e.kind, "atom")] < _RANK[need]:
        return f"({text})"
    return text


def unparse(e: Expr) -> str:
    """Render to grammar-valid text; reparsing gives a structurally equal tree."""
    if e.kind == "num":
        return repr(e.value)
    if e.kind == "var":
        return e.name
    if e.kind == "neg":
        return "-" + _fmt(e.args[0], "factor")
    if e.kind in ("add", "sub"):
        op = " + " if e.kind == "add" else " - "
        return _fmt(e.args[0], "expr") + op + _fmt(e.args[1], "term")
    if e.kind in ("mul", "div"):
        op = "*" if e.kind == "mul" else "/"
        return _fmt(e.args[0], "term") + op + _fmt(e.args[1], "factor")
    if e.kind == "pow":
        return _fmt(e.args[0], "atom") + "^" + _fmt(e.args[1], "factor")
    return e.kind + "(" + ", ".join(_fmt(a, "expr") for a in e.args) + ")"


# ---------------------------------------------------------------------------
# sampled hypothesis checks

@dataclass(frozen=True)
class ValidationReport:
    """Result of a sampled property check (evidence, not proof)."""

    property: str
    grid_description: str
    passed: bool
    witness_point: dict[str, float] | None = None
    witness_value: float | None = None
    witness_prev_point: dict[str, float] | None = None

    def __post_init__(self):
        if not self.passed and self.witness_point is None:
            raise ValueError("a failed validation must carry a witness point")


def validate_sampled(e: Expr, property: str, bounds: Mapping[str, tuple[float, float]],
                     samples: int) -> ValidationReport:
    """Check nonnegativity or axiswise monotone nondecrease on a tensor grid.

    ``bounds`` maps each variable of ``e`` to a finite interval.  The grid is
    deterministic (numpy linspace with ``samples`` points per axis).  A pass
    means no sampled violation; a fail carries the worst violating point.
    Evaluation domain errors are re-raised with the sample point attached.
    """
    if property not in ("nonnegativity", "monotone"):
        raise ValueError(f"unknown property {property!r}")
    if samples < 2:
        raise ValueError("need at least 2 samples per axis")
    names = sorted(bounds)
    missing = variables(e) - set(names)
    if missing:
        raise ValueError(f"bounds missing for variables: {sorted(missing)}")
    axes = []
    for n in names:
        lo, hi = bounds[n]
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"bounds for {n!r} must be a finite interval")
        axes.append(np.linspace(lo, hi, samples))
    grids = np.meshgrid(*axes, indexing="ij")
    env = {n: g.ravel() for n, g in zip(names, grids)}
    desc = f"{samples} samples per axis on " + " x ".join(
        f"[{bounds[n][0]:g},{bounds[n][1]:g}]" for n in names)
    try:
        flat = evaluate_array(e, env)
    except EvalError as err:
        if err.index is not None:
            point = {n: float(env[n][err.index]) for n in names}
            raise EvalError(f"{err.args[0]}; sampled at {point}", err.subexpr,
                            err.inputs, index=err.index) from None
        raise
    vals = flat.reshape(grids[0].shape)

    if property == "nonnegativity":
        worst = int(np.argmin(flat))
        if flat[worst] < 0:
            point = {n: float(env[n][worst]) for n in names}
            return ValidationReport(property, desc, False, point, float(flat[worst]))
        return ValidationReport(property, desc, True)

    # monotone: compare consecutive samples along every axis
    worst_drop = 0.0
    witness = None
    for ax in range(vals.ndim):
        diffs = np.diff(vals, axis=ax)
        low = float(diffs.min()) if diffs.size else 0.0
        if low < worst_drop:
            worst_drop = low
            idx = np.unravel_index(int(np.argmin(diffs)), diffs.shape)
            after = list(idx)
            after[ax] += 1
            point = {n: float(axes[k][after[k]]) for k, n in enumerate(names)}
            prev = {n: float(axes[k][idx[k]]) for k, n in enumerate(names)}
            witness = (point, prev)
    if witness is not None:
        return ValidationReport(property, desc, False, witness[0], worst_drop, witness[1])
    return ValidationReport(property, desc, True)
