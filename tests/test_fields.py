"""Vector fields: builtins, parsed fields, measures, and pushforwards."""

import json
import warnings

import numpy as np
import pytest

from siegelflow import sampling
from siegelflow.cli import resolve_field
from siegelflow.domains import (
    Domain,
    ball_point,
    cayley_ball_coords,
    half_plane_point,
    pull_tangent_to_siegel,
    siegel_point,
)
from siegelflow.errors import FieldEvaluationError, HalfPlaneConditionWarning
from siegelflow.fields import (
    DiscreteMeasure,
    berkson_porta,
    builtin,
    cauchy_transform,
    eval_field,
    parse_field,
    pushforward_to_ball,
    zero_field,
)


def test_builtin_registry():
    for name in ("example1", "example2", "reciprocal"):
        assert builtin(name).dimension == (1 if name == "reciprocal" else 2)
    with pytest.raises(KeyError, match="example1.*example2.*reciprocal"):
        builtin("nope")


def test_example1_oracles():
    field = builtin("example1")
    out = eval_field(field, siegel_point(2j, 1.0))
    np.testing.assert_allclose(out, [0.0, -0.5], atol=1e-15)
    out = eval_field(field, siegel_point(1j, 0.5))
    np.testing.assert_allclose(out, [0.0, -1j * 0.5 / 1j], atol=1e-15)


def test_example2_oracles():
    field = builtin("example2")
    out = eval_field(field, siegel_point(1j, 0.5))
    np.testing.assert_allclose(out, [1j, -0.25], atol=1e-15)
    out = eval_field(field, siegel_point(1j, 0.0))
    np.testing.assert_allclose(out, [1j, 0.0], atol=1e-15)


def test_reciprocal_oracle():
    out = eval_field(builtin("reciprocal"), half_plane_point(2j))
    np.testing.assert_allclose(out, [-1 / 2j], atol=1e-16)


def test_parsed_field_matches_builtin(rng):
    parsed = parse_field("0; -i*z2/z1")
    native = builtin("example1")
    z = sampling.siegel_coords(rng, 200, 2)
    np.testing.assert_allclose(parsed(z), native(z), rtol=1e-15)


def test_eval_field_rejects_singularities():
    field = parse_field("1/(z - i)", 1)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        with pytest.raises(FieldEvaluationError):
            eval_field(field, half_plane_point(1j))


def test_a_direct_field_call_follows_the_callers_error_state():
    field = parse_field("1/(z - i)", 1)
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            field(np.array([[1j]]))
    with np.errstate(all="ignore"):
        assert np.isinf(field(np.array([[1j]]))[0, 0])


def test_zero_field():
    z = np.array([[1j, 0.5], [2j, 0.0]])
    np.testing.assert_array_equal(zero_field(2)(z), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Discrete measures and Cauchy transforms
# ---------------------------------------------------------------------------

def test_measure_validation_and_mass():
    m = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
    assert m.total_mass == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0, -1.0),))  # negative mass
    # the empty measure is the zero generator
    assert DiscreteMeasure(()).total_mass == 0.0


def test_measure_json_round_trip():
    m = DiscreteMeasure(((-1.0, 0.5), (2.0, 0.25)))
    atoms = [{"u": u, "m": mass} for u, mass in m.atoms]
    again = resolve_field("measure:" + json.dumps(atoms))
    points = np.array([[1j], [2 + 0.5j], [-3 + 1e3j]])
    assert np.array_equal(again(points), cauchy_transform(m)(points))


def test_cauchy_transform_oracle():
    field = cauchy_transform(DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5))))
    out = eval_field(field, half_plane_point(1j))
    # 0.5/(-1 - i) + 0.5/(1 - i) = 0.5 i
    np.testing.assert_allclose(out, [0.5j], rtol=1e-15)


def test_cauchy_transform_maps_into_closed_half_plane(rng):
    measures = sampling.herglotz_measures(rng, 5)
    z = sampling.halfplane_coords(rng, 500)
    for m in measures:
        values = cauchy_transform(m)(z)[:, 0]
        assert np.min(values.imag) >= -1e-13


# ---------------------------------------------------------------------------
# Disc generators
# ---------------------------------------------------------------------------

def test_berkson_porta_oracle():
    field = berkson_porta(0.0, parse_field("1", 1))
    out = eval_field(field, ball_point(0.5))
    np.testing.assert_allclose(out, [-0.5], atol=1e-15)


def test_berkson_porta_rejects_tau_outside_closure():
    with pytest.raises(ValueError):
        berkson_porta(1.5, parse_field("1", 1))


def test_berkson_porta_warns_on_negative_real_part():
    with pytest.warns(HalfPlaneConditionWarning):
        berkson_porta(0.0, parse_field("-1", 1))


# ---------------------------------------------------------------------------
# Cayley pushforwards
# ---------------------------------------------------------------------------

def test_pushforward_round_trip(rng):
    # Pull the ball field back to the half-space: H(z) = dC^{-1}(w) G(w), w = C(z).
    field = builtin("example2")
    z = sampling.siegel_coords(rng, 100, 2, log_u=(-1.5, 1.5), re_scale=3.0)
    w = cayley_ball_coords(z)
    back = pull_tangent_to_siegel(w, pushforward_to_ball(field)(w))
    np.testing.assert_allclose(back, field(z), rtol=0, atol=1e-11)


def test_pushforward_is_the_jacobian_action(rng):
    from siegelflow.domains import push_tangent_to_ball

    field = builtin("example2")
    ball_field = pushforward_to_ball(field)
    z = sampling.siegel_coords(rng, 100, 2)
    np.testing.assert_allclose(
        ball_field(cayley_ball_coords(z)),
        push_tangent_to_ball(z, field(z)),
        rtol=0,
        atol=1e-12,
    )
