"""Expression parser: oracles for values, canonical text, and error offsets."""

import numpy as np
import pytest

from siegelflow.errors import (
    ArityMismatchError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)
from siegelflow.expressions import (
    BinOp,
    Func,
    Neg,
    Num,
    Pow,
    Var,
    compile_expression,
    field_to_text,
    parse_components,
)
from siegelflow.fields import parse_field


def test_single_variable_alias_one_dim():
    field = parse_field("-1/z", 1)
    pts = np.array([[2j], [1 + 1j]])
    out = field(pts)
    np.testing.assert_allclose(out[:, 0], [-1 / 2j, -1 / (1 + 1j)], rtol=1e-15)


def test_components_split_on_semicolons():
    field = parse_field("0; -i*z2/z1")
    assert field.dimension == 2
    out = field(np.array([[1j, 0.5]]))
    np.testing.assert_allclose(out[0], [0.0, -0.5], atol=1e-15)


def test_numeric_literals_and_imaginary_unit():
    field = parse_field("2.5e-1 + 3*i", 1)
    out = field(np.array([[1j]]))
    assert out[0, 0] == 0.25 + 3j


def test_power_is_integer_only():
    field = parse_field("z^3", 1)
    out = field(np.array([[1 + 1j]]))
    np.testing.assert_allclose(out[0, 0], (1 + 1j) ** 3, rtol=1e-15)
    with pytest.raises(ExpressionSyntaxError):
        parse_field("z^1.5", 1)


def test_known_functions_evaluate():
    field = parse_field("exp(z)/(1+z^2)", 1)
    out = field(np.array([[2j]]))
    np.testing.assert_allclose(out[0, 0], np.exp(2j) / (1 - 4), rtol=1e-15)


def test_unary_minus_binds_tighter_than_division():
    # -i*z2/z1 means ((-i)*z2)/z1, matching ordinary reading
    field = parse_field("0; -i*z2/z1")
    out = field(np.array([[2j, 1.0]]))
    np.testing.assert_allclose(out[0, 1], -0.5, atol=1e-15)


def test_syntax_error_reports_offset():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_field("z1 +")
    assert exc.value.position == 4
    assert "offset 4" in str(exc.value)


def test_unknown_identifier_rejected():
    with pytest.raises(UnknownIdentifierError):
        parse_field("w1 + z1")


def test_variable_out_of_range_rejected():
    # z3 needs a 3-component field; a 2-component declaration must reject it
    with pytest.raises((UnknownIdentifierError, ArityMismatchError)):
        parse_field("z3; 0", 2)


def test_dimension_mismatch_rejected():
    with pytest.raises(ArityMismatchError):
        parse_field("0; 0", 3)


def test_canonical_text_is_fixed_point():
    texts = ["0; -i*z2/z1", "-1/z", "exp(z)/(1+z^2)", "(z1 - i) * (z1 + i)"]
    for text in texts:
        once = field_to_text(parse_components(text))
        twice = field_to_text(parse_components(once))
        assert once == twice


def test_canonical_text_round_trips_values(rng):
    text = "(2 - i)*z1^2 / (z2 + 3*i) - exp(z1); z2/(z1 + i)"
    tree = parse_components(text, 2)
    canon = parse_components(field_to_text(tree), 2)
    field_a = parse_field(text, 2)
    field_b = parse_field(field_to_text(tree), 2)
    pts = rng.normal(size=(50, 2)) + 1j * (1.0 + rng.random((50, 2)))
    np.testing.assert_allclose(field_a(pts), field_b(pts), rtol=1e-15)
    assert field_to_text(tree) == field_to_text(canon)


def _walk(expr, points):
    """Reference tree walk: the evaluation order compiled closures must keep."""
    if isinstance(expr, Num):
        return np.asarray(expr.value)
    if isinstance(expr, Var):
        return points[..., expr.index]
    if isinstance(expr, Neg):
        return -_walk(expr.operand, points)
    if isinstance(expr, BinOp):
        left, right = _walk(expr.left, points), _walk(expr.right, points)
        return {"+": np.add, "-": np.subtract, "*": np.multiply,
                "/": np.divide}[expr.op](left, right)
    if isinstance(expr, Pow):
        return _walk(expr.base, points) ** expr.exponent
    assert isinstance(expr, Func)
    return {"exp": np.exp, "sqrt": np.sqrt, "log": np.log}[expr.name](
        _walk(expr.arg, points))


def test_compiled_expressions_match_a_tree_walk_bit_for_bit(rng):
    text = ("-1/z1 + exp(z2)*sqrt(z1) - log(z1 - 2*i)^3; "
            "z2/(2*z1^2) - -z2^(-2); 0.5 + i")
    points = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    points[0] = 0.0  # singular row: non-finite values must match too
    with np.errstate(all="ignore"):
        for expr in parse_components(text, 3):
            program = compile_expression(expr)
            expected = _walk(expr, points)
            assert np.array_equal(program(points), expected, equal_nan=True)
            assert np.array_equal(program(points[:1]), _walk(expr, points[:1]),
                                  equal_nan=True)
