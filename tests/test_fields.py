"""Vector fields: builtins, parsed fields, measures, and pushforwards."""

import json
import warnings

import numpy as np
import pytest

from siegelflow import fields, sampling
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


# Every kind of field the package builds, each with the sampler of its domain.
_FIELD_KINDS = {
    "example1": (lambda: builtin("example1"), sampling.siegel_coords),
    "example2": (lambda: builtin("example2"), sampling.siegel_coords),
    "reciprocal": (lambda: builtin("reciprocal"), sampling.siegel_coords),
    "parsed (0, -i*z2/z1)": (lambda: parse_field("0; -i*z2/z1"), sampling.siegel_coords),
    "parsed -1/z^3": (lambda: parse_field("-1/z^3", 1), sampling.siegel_coords),
    "cauchy 3 atoms": (lambda: cauchy_transform(DiscreteMeasure(
        ((-1.0, 0.5), (0.25, 2.0), (3.0, 1.0)))), sampling.siegel_coords),
    "cauchy no atoms": (lambda: cauchy_transform(DiscreteMeasure(())),
                        sampling.siegel_coords),
    "berkson-porta": (lambda: berkson_porta(0.5 + 0.2j, parse_field("1+z", 1)),
                      sampling.ball_coords),
    "zero": (lambda: zero_field(2), sampling.siegel_coords),
    "ball example2": (lambda: pushforward_to_ball(builtin("example2")),
                      sampling.ball_coords),
}


@pytest.mark.parametrize("m", [1, 2, 3, 63, 64, 65, 1000])
@pytest.mark.parametrize("name", list(_FIELD_KINDS))
def test_a_builtin_fill_writes_its_call_bytes_into_a_stage_slot(rng, name, m):
    # Every field the package builds, built-in, parsed or composite, fills
    # its stages in place with the bytes its call returns.  The flow kernel
    # holds points and stages component-major, and hands _fill the
    # transposed views: an (n, m) stage point and one slot of the (7, n, m)
    # stage buffer.  The batch sizes straddle the kernel's switch between
    # its two stage sums at 64 numbers.
    make, sample = _FIELD_KINDS[name]
    field = make()
    assert field._formula is not None
    n = field.dimension
    points = sample(rng, m, n)
    expected = field(points).tobytes()
    for given in (points, np.ascontiguousarray(points.T).T):
        assert field(given).tobytes() == expected
        ks = np.full((7, n, m), complex(np.nan, np.nan))
        field._fill(given, ks[4].T)
        assert ks[4].T.tobytes() == expected
        assert np.isnan(np.delete(ks, 4, axis=0)).all()  # no other slot written


@pytest.mark.parametrize("factory", ["example1", "example2", "reciprocal_1d"])
def test_a_builtin_evaluator_is_named_after_its_factory(factory):
    # The bench tracer books a field call as built-in when the first part of
    # its evaluator's qualified name is a built-in factory's name.
    field = getattr(fields, factory)()
    assert field._evaluator.__qualname__ == f"{factory}.<locals>.formula"


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


def test_the_empty_measure_and_the_zero_field_give_positive_zeros():
    # A sum over no atoms is +0, whatever the point, as np.zeros is.
    z = np.array([[1j, 0.5], [complex(np.nan, 1.0), np.inf]])
    assert zero_field(2)(z).tobytes() == np.zeros((2, 2), complex).tobytes()
    empty = cauchy_transform(DiscreteMeasure(()))
    assert empty(z[:, :1]).tobytes() == np.zeros((2, 1), complex).tobytes()


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
    z = sampling.siegel_coords(rng, 500, 1)
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


def test_eval_field_is_one_row_of_the_batch_kernel(rng):
    # A point's field value does not depend on the batch it is computed in;
    # a 1-d evaluation would run numpy's 0-d complex arithmetic instead.
    w = sampling.ball_coords(rng, 2000, 2)
    field = pushforward_to_ball(builtin("example2"))
    batch = field(w)
    for k in range(w.shape[0]):
        assert eval_field(field, ball_point(*w[k])) == tuple(batch[k])


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
