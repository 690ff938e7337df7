"""Vertical geodesics, projections, and slice decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelflow import sampling
from siegelflow.domains import (
    Domain,
    DomainPoint,
    TangentVector,
    hyperbolic_norm,
    poisson,
    siegel_point,
)
from siegelflow.errors import FieldEvaluationError
from siegelflow.fields import builtin, eval_field, parse_field
from siegelflow.geodesics import (
    GeodesicParam,
    decompose,
    geodesic_coords,
    geodesic_params,
    project,
    project_coords,
    slice_field,
    slice_value,
    split_tangent,
    split_tangent_array,
)


def _geodesic_point(gamma, zeta) -> DomainPoint:
    """The Siegel point phi_gamma(zeta)."""
    return DomainPoint(Domain.SIEGEL, tuple(geodesic_coords(gamma, zeta)))


def _norm(point: DomainPoint, vector) -> float:
    return hyperbolic_norm(TangentVector(point, tuple(vector)))


def test_geodesic_point_oracle():
    p = _geodesic_point((1.0,), 1j)
    np.testing.assert_allclose(p.coords, [2j, 1.0], atol=1e-15)
    assert poisson(p) == pytest.approx(-1.0)


def test_geodesic_normalization(rng):
    # u(phi_gamma(zeta)) = -Im zeta for any gamma
    for _ in range(50):
        gamma = tuple(rng.normal(size=2) @ np.array([1, 1j]) for _ in range(1))
        zeta = complex(rng.normal(), np.exp(rng.uniform(-1, 1)))
        p = _geodesic_point(gamma, zeta)
        assert poisson(p) == pytest.approx(-zeta.imag, rel=1e-14)


def test_geodesic_through_recovers_parameters(rng):
    z = sampling.siegel_coords(rng, 100, 2)
    gammas, zetas = geodesic_params(z)
    np.testing.assert_allclose(geodesic_coords(gammas, zetas), z, rtol=0, atol=1e-13)


def test_projection_oracle():
    p = project(GeodesicParam((1.0,)), siegel_point(3j, 0.0))
    np.testing.assert_allclose(p.coords, [5j, 1.0], atol=1e-15)


def test_projection_is_idempotent(rng):
    z = sampling.siegel_coords(rng, 200, 2)
    gamma = GeodesicParam((0.5 - 0.25j,))
    for row in z:
        point = DomainPoint(Domain.SIEGEL, tuple(row))
        once = project(gamma, point)
        twice = project(gamma, once)
        np.testing.assert_allclose(twice.coords, once.coords, rtol=0, atol=1e-13)


def test_array_kernels_match_the_point_functions(rng):
    z = sampling.siegel_coords(rng, 100, 3)
    gammas = sampling.tangent_vectors(rng, 100, 2)
    values = sampling.tangent_vectors(rng, 100, 3)
    gammas_back, zetas = geodesic_params(z)
    projected = project_coords(gammas, z)
    tangential, orthogonal = split_tangent_array(z, values)
    for k in range(100):
        point = DomainPoint(Domain.SIEGEL, tuple(z[k]))
        gamma_k, zeta_k = geodesic_params(point.as_array())
        assert np.array_equal(gamma_k, gammas_back[k]) and zeta_k == zetas[k]
        once = project(GeodesicParam(tuple(gammas[k])), point)
        assert once.coords == tuple(projected[k])
        dec = split_tangent(point, values[k])
        assert dec.tangential == tuple(tangential[k])
        assert dec.orthogonal == tuple(orthogonal[k])


def test_slice_value_oracles():
    assert slice_value(builtin("example1"), GeodesicParam((1.0,)), 1j) == (
        pytest.approx(1j, rel=1e-14)
    )
    assert slice_value(builtin("example2"), GeodesicParam((0.0,)), 1j) == (
        pytest.approx(1j, rel=1e-14)
    )


def test_slice_closed_forms(rng):
    # example1: h(zeta) = -2|g|^2/(zeta + i |g|^2)
    # example2: h(zeta) = (-zeta - 2i |g|^2)/(zeta + i |g|^2)^2
    for _ in range(50):
        g = complex(rng.normal(), rng.normal())
        zeta = complex(rng.normal(), np.exp(rng.uniform(-1, 2)))
        a = abs(g) ** 2
        h1 = slice_value(builtin("example1"), GeodesicParam((g,)), zeta)
        assert h1 == pytest.approx(-2 * a / (zeta + 1j * a), rel=1e-12)
        h2 = slice_value(builtin("example2"), GeodesicParam((g,)), zeta)
        assert h2 == pytest.approx((-zeta - 2j * a) / (zeta + 1j * a) ** 2,
                                   rel=1e-12)


def test_slice_field_is_one_dimensional():
    sliced = slice_field(builtin("example1"), GeodesicParam((2.0,)))
    assert sliced.dimension == 1
    out = sliced(np.array([[1j]]))
    np.testing.assert_allclose(out[0, 0], -8 / (1j + 4j), rtol=1e-14)


def test_decompose_oracle_along_axis():
    # H(i, 0) = (i, 0) is already tangent to the gamma = 0 geodesic
    dec = decompose(builtin("example2"), siegel_point(1j, 0.0))
    np.testing.assert_allclose(dec.tangential, [1j, 0.0], atol=1e-15)
    np.testing.assert_allclose(dec.orthogonal, [0.0, 0.0], atol=1e-15)
    assert dec.slice_value == pytest.approx(1j, rel=1e-14)


def test_decompose_reports_a_singular_field():
    # 1/(z1 - 2i) has a pole at z1 = 2i: no slice value, as in eval_field
    field = parse_field("1/(z1-2*i); 0")
    with pytest.raises(FieldEvaluationError, match="singular"):
        decompose(field, siegel_point(2j, 0))


def test_decomposition_pythagoras(rng):
    field = builtin("example2")
    z = sampling.siegel_coords(rng, 200, 2, log_u=(-1.5, 1.5), re_scale=3.0)
    for row in z:
        point = DomainPoint(Domain.SIEGEL, tuple(row))
        values = eval_field(field, point)
        dec = split_tangent(point, np.asarray(values))
        total_sq = _norm(point, values) ** 2
        t = _norm(point, dec.tangential)
        o = _norm(point, dec.orthogonal)
        assert total_sq == pytest.approx(t**2 + o**2, rel=1e-11)
        np.testing.assert_allclose(
            np.asarray(dec.tangential) + np.asarray(dec.orthogonal), values,
            rtol=0, atol=1e-13)


def test_tangential_norm_is_slice_over_height(rng):
    field = builtin("example1")
    z = sampling.siegel_coords(rng, 100, 2)
    for row in z:
        point = DomainPoint(Domain.SIEGEL, tuple(row))
        gamma, zeta = geodesic_params(row)
        h = slice_value(field, GeodesicParam(tuple(gamma)), zeta)
        u = abs(poisson(point))
        dec = decompose(field, point)
        assert _norm(point, dec.tangential) == pytest.approx(abs(h) / u, rel=1e-11,
                                                             abs=1e-14)


heights = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
reals = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(x=reals, y=heights, gr=reals, gi=reals)
def test_projection_lands_on_geodesic_property(x, y, gr, gi):
    gamma = GeodesicParam((complex(gr, gi),))
    point = siegel_point(complex(x, y + abs(complex(gr, gi)) ** 2 + 0.125), 0.25)
    image = project(gamma, point)
    # image must sit on the geodesic: z~ = gamma and u = -Im of the parameter
    assert image.coords[1] == pytest.approx(complex(gr, gi), abs=1e-12)
    gamma_back, zeta = geodesic_params(image.as_array())
    np.testing.assert_allclose(
        _geodesic_point(gamma_back, zeta).coords, image.coords, rtol=0, atol=1e-12
    )
