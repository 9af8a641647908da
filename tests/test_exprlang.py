import ast
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from radsolve.exprlang import (
    EvalError,
    Expr,
    ParseError,
    evaluate_array,
    parse,
    unparse,
    validate_sampled,
    variables,
)


def evaluate(e, env):
    return float(evaluate_array(e, {k: np.asarray([float(v)]) for k, v in env.items()}).ravel()[0])


def test_parse_radial_product():
    e = parse("r^2 * exp(r)", "radial")
    assert e.kind == "mul"
    assert e.args[0].kind == "pow"
    assert e.args[1].kind == "exp"


def test_parse_nonlinearity_two_vars():
    e = parse("u1 + u2", "nonlinearity", 2)
    assert e.kind == "add"
    assert variables(e) == {"u1", "u2"}


def test_parse_unknown_component_rejected():
    with pytest.raises(ParseError, match="unknown variable 'u3'"):
        parse("u3", "nonlinearity", 2)


def test_parse_rejects_r_in_nonlinearity_and_u_in_radial():
    with pytest.raises(ParseError):
        parse("r", "nonlinearity", 2)
    with pytest.raises(ParseError):
        parse("u1", "radial")


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("r + * 2", "radial")
    assert err.value.position == 4


def test_parse_minmax_arity():
    parse("min(r, 1, 2)", "radial")
    with pytest.raises(ParseError, match="at least 2"):
        parse("max(r)", "radial")
    with pytest.raises(ParseError, match="exactly 1"):
        parse("sqrt(r, 2)", "radial")


def test_power_is_right_associative():
    e = parse("2^3^2", "radial")
    assert evaluate(e, {}) == 512.0


def test_unary_minus_binds_looser_than_a_power():
    # as Python reads -2**2: the sign applies to the power, and an exponent may carry one
    assert evaluate(parse("-2^2", "radial"), {}) == -4.0
    assert evaluate(parse("2^-2", "radial"), {}) == 0.25
    assert evaluate(parse("-r^2", "radial"), {"r": 3.0}) == -9.0
    assert evaluate(parse("2*-r^2", "radial"), {"r": 3.0}) == -18.0
    assert evaluate(parse("(-r)^2", "radial"), {"r": 3.0}) == 9.0
    assert evaluate(parse("--r^-1", "radial"), {"r": 4.0}) == 0.25


def test_eval_simple_values():
    assert evaluate(parse("r^2", "radial"), {"r": 3.0}) == 9.0
    assert evaluate(parse("u1*u2", "nonlinearity", 2), {"u1": 2.0, "u2": 5.0}) == 10.0


def test_eval_log_domain_error():
    with pytest.raises(EvalError, match="log"):
        evaluate(parse("log(r)", "radial"), {"r": 0.0})


def test_eval_division_by_zero():
    with pytest.raises(EvalError, match="division by zero"):
        evaluate(parse("1/r", "radial"), {"r": 0.0})


def test_eval_negative_base_fractional_power():
    with pytest.raises(EvalError, match="non-integer exponent"):
        evaluate(parse("(0 - 2)^0.5", "radial"), {})
    # integer exponents of negative bases are fine
    assert evaluate(parse("(0 - 2)^3", "radial"), {}) == -8.0


def test_eval_overflow_is_a_domain_error():
    with pytest.raises(EvalError, match="overflow"):
        evaluate(parse("exp(exp(r))", "radial"), {"r": 100.0})


def test_eval_abs_min_max():
    assert evaluate(parse("abs(1 - r)", "radial"), {"r": 3.0}) == 2.0
    assert evaluate(parse("min(r, 2, r^2)", "radial"), {"r": 1.5}) == 1.5
    assert evaluate(parse("max(r, 2, r^2)", "radial"), {"r": 1.5}) == 2.25


def test_eval_array_matches_scalar():
    e = parse("sqrt(u1) + u2^2", "nonlinearity", 2)
    u1 = np.linspace(0.0, 4.0, 9)
    u2 = np.linspace(1.0, 2.0, 9)
    arr = evaluate_array(e, {"u1": u1, "u2": u2})
    for i in range(9):
        assert arr[i] == pytest.approx(evaluate(e, {"u1": u1[i], "u2": u2[i]}), abs=1e-15)


def test_eval_error_reports_offending_index():
    e = parse("log(r - 2)", "radial")
    with pytest.raises(EvalError) as err:
        evaluate_array(e, {"r": np.array([5.0, 3.0, 1.0])})
    assert err.value.index == 2


# --- parse/print round trip ------------------------------------------------

_NONNEG = st.one_of(
    st.integers(min_value=0, max_value=10 ** 6).map(float),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_VARS = ("r",)


def _leaf():
    return st.one_of(
        st.builds(lambda v: Expr("num", value=v), _NONNEG),
        st.builds(lambda n: Expr("var", name=n), st.sampled_from(_VARS)),
    )


def _extend(children):
    unary = st.builds(lambda k, a: Expr(k, args=(a,)),
                      st.sampled_from(["neg", "exp", "log", "sqrt", "abs"]), children)
    binary = st.builds(lambda k, a, b: Expr(k, args=(a, b)),
                       st.sampled_from(["add", "sub", "mul", "div", "pow"]),
                       children, children)
    nary = st.builds(lambda k, args: Expr(k, args=tuple(args)),
                     st.sampled_from(["min", "max"]),
                     st.lists(children, min_size=2, max_size=4))
    return st.one_of(unary, binary, nary)


@given(st.recursive(_leaf(), _extend, max_leaves=16))
def test_unparse_parse_round_trip(e):
    assert parse(unparse(e), "radial") == e


_PYTHON_OPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}


def _python_reading(node) -> Expr:
    """The tree of Python's parse (``ast``) of an arithmetic text."""
    if isinstance(node, ast.BinOp):
        return Expr(_PYTHON_OPS[type(node.op)],
                    args=(_python_reading(node.left), _python_reading(node.right)))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Expr("neg", args=(_python_reading(node.operand),))
    if isinstance(node, ast.Name):
        return Expr("var", name=node.id)
    return Expr("num", value=node.value)


def _arithmetic(children):
    return st.one_of(st.builds(lambda a: Expr("neg", args=(a,)), children),
                     st.builds(lambda k, a, b: Expr(k, args=(a, b)),
                               st.sampled_from(["add", "sub", "mul", "div", "pow"]),
                               children, children))


@given(st.recursive(_leaf(), _arithmetic, max_leaves=8))
def test_unparsed_text_reads_as_python_reads_it(e):
    # signs, the four operations and powers, with ^ written as Python's **
    text = unparse(e)
    assert parse(text, "radial") == e
    assert _python_reading(ast.parse(text.replace("^", "**"), mode="eval").body) == e


@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_eval_is_deterministic(r):
    e = parse("exp(-r) * (1 + r^2) / (2 + r)", "radial")
    assert evaluate(e, {"r": r}) == evaluate(e, {"r": r})


# --- sampled validation ----------------------------------------------------

def test_validate_monotone_pass():
    rep = validate_sampled(parse("u1 + u2", "nonlinearity", 2), "monotone",
                           {"u1": (0.0, 10.0), "u2": (0.0, 10.0)}, 50)
    assert rep.passed and rep.witness_point is None


def test_validate_nonnegativity_fail_has_witness():
    rep = validate_sampled(parse("1 - r", "radial"), "nonnegativity",
                           {"r": (0.0, 10.0)}, 50)
    assert not rep.passed
    assert rep.witness_point["r"] > 1.0
    assert rep.witness_value < 0.0
    # the witness really violates the property
    assert evaluate(parse("1 - r", "radial"), rep.witness_point) < 0.0


def test_validate_monotone_fail_has_witness_pair():
    rep = validate_sampled(parse("exp(-r)", "radial"), "monotone",
                           {"r": (0.0, 10.0)}, 50)
    assert not rep.passed
    assert rep.witness_prev_point is not None
    e = parse("exp(-r)", "radial")
    assert evaluate(e, rep.witness_point) < evaluate(e, rep.witness_prev_point)


def test_validate_propagates_domain_error_with_point():
    with pytest.raises(EvalError, match="sampled at"):
        validate_sampled(parse("log(r - 5)", "radial"), "nonnegativity",
                         {"r": (0.0, 10.0)}, 11)


def test_validate_requires_two_samples():
    with pytest.raises(ValueError):
        validate_sampled(parse("r", "radial"), "monotone", {"r": (0.0, 1.0)}, 1)


@pytest.mark.parametrize("text, pos", [("1e400", 0), ("r + 2.5e999*r", 4), ("-1E+309", 1)])
def test_number_literal_that_overflows_is_a_parse_error(text, pos):
    with pytest.raises(ParseError, match="number out of range") as err:
        parse(text, "radial")
    assert err.value.position == pos


@pytest.mark.parametrize("text", ["1.7976931348623157e308*r", "1e-400 + r", "5e-324"])
def test_extreme_finite_literals_round_trip(text):
    e = parse(text, "radial")
    assert parse(unparse(e), "radial") == e


# the error of each evaluation below, as the per-node errstate evaluator raised it:
# (message, subexpression, inputs, index)
@pytest.mark.parametrize("text, r, want", [
    ("1/exp(1000*r)", [0.0, 0.5, 1.0],  # masked by the division, caught at exp
     ("overflow or undefined result", "exp(1000.0*r)", (1000.0,), 2)),
    ("0*exp(800*r)", [0.0, 2.0, 1.0],
     ("overflow or undefined result", "exp(800.0*r)", (1600.0,), 1)),
    ("r/r", [2.0, 0.0, 1.0], ("division by zero", "r/r", (0.0, 0.0), 1)),
    ("(r - 1)^0.5", [2.0, 0.5, 0.0],
     ("negative base with non-integer exponent", "(r - 1.0)^0.5", (-0.5, 0.5), 1)),
    ("r^(0 - 1)", [1.0, 0.0, 2.0],
     ("zero base with negative exponent", "r^(0.0 - 1.0)", (0.0, -1.0), 1)),
    ("(r - 1)^(r - 2)", [3.0, 1.0, 0.5],  # the negative-base test comes first
     ("negative base with non-integer exponent", "(r - 1.0)^(r - 2.0)", (-0.5, -1.5), 2)),
    ("r*1e308 + r*1e308", [0.5, 0.25, 1.0],
     ("overflow or undefined result", "r*1e+308 + r*1e+308", (1e308, 1e308), 2)),
    ("-r*1e308 - r*1e308", [0.5, 1.0, 0.25],
     ("overflow or undefined result", "-r*1e+308 - r*1e+308", (-1e308, 1e308), 1)),
])
def test_eval_errors_keep_message_subexpression_and_index(text, r, want):
    with pytest.raises(EvalError) as err:
        evaluate_array(parse(text, "radial"), {"r": np.array(r)})
    message, subexpr, inputs, index = want
    assert str(err.value).startswith(f"{message} in '{subexpr}'")
    assert (err.value.subexpr, err.value.inputs, err.value.index) == (subexpr, inputs, index)


def test_eval_finite_values_whose_sum_overflows_do_not_raise():
    out = evaluate_array(parse("1e308 + 0*r", "radial"), {"r": np.array([0.0, 1.0, 2.0])})
    assert out.tolist() == [1e308] * 3
