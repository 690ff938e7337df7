"""Domain points, Cayley transform, Poisson kernels, and the Bergman metric."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelflow import sampling
from siegelflow.domains import (
    INTERIOR_MARGIN,
    Domain,
    DomainPoint,
    TangentVector,
    _is_interior,
    ball_point,
    bergman_matrix,
    bergman_matrix_array,
    bergman_norm_sq,
    cayley_ball_coords,
    cayley_siegel_coords,
    disc_point,
    format_complex,
    half_plane_point,
    hyperbolic_norm,
    hyperbolic_norm_sq_array,
    interior_margin,
    parse_complex,
    poisson,
    poisson_values,
    pull_tangent_to_siegel,
    push_tangent_to_ball,
    siegel_point,
)
from siegelflow.errors import DomainViolation


# ---------------------------------------------------------------------------
# Point construction and validation
# ---------------------------------------------------------------------------

def test_interior_validation():
    siegel_point(1j, 0.5)  # Im z1 = 1 > 0.25
    with pytest.raises(DomainViolation):
        siegel_point(1j, 1.0)  # Im z1 = 1 = |z2|^2, boundary
    with pytest.raises(DomainViolation):
        half_plane_point(1.0)
    with pytest.raises(DomainViolation):
        disc_point(1.0)
    with pytest.raises(DomainViolation):
        ball_point(0.8, 0.7)  # norm > 1


def test_n1_siegel_degenerates_to_half_plane():
    # with no z~ block the membership condition is just Im z1 > 0
    p = DomainPoint(Domain.SIEGEL, (2 + 1j,))
    assert poisson(p) == -1.0


def test_complex_string_round_trip():
    for z in (0j, 1j, -0.5j, 1 + 2j, -1.25 - 3e-4j, 12345.678 + 0.25j):
        assert parse_complex(format_complex(z)) == z
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("2i") == 2j
    assert parse_complex("3") == 3 + 0j


# ---------------------------------------------------------------------------
# Poisson kernels
# ---------------------------------------------------------------------------

def test_poisson_oracles():
    assert poisson(siegel_point(1j, 0.0)) == -1.0
    assert poisson(siegel_point(2j, 1.0)) == -1.0  # 2 - |1|^2
    assert poisson(half_plane_point(3j)) == -3.0
    # ball kernel at the origin: -(1 - 0)/|1 - 0|^2 = -1
    assert poisson(ball_point(0.0, 0.0)) == -1.0
    # disc: -(1 - 1/4)/|1 - 1/2|^2 = -3
    assert poisson(disc_point(0.5)) == pytest.approx(-3.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------

def _jacobian(z):
    """dC at a half-space point z, shape (n, n): column k is dC(z) e_k."""
    return push_tangent_to_ball(z, np.eye(z.shape[-1])).T


def _inverse_jacobian(w):
    """dC^{-1} at a ball point w, shape (n, n): column k is dC^{-1}(w) e_k."""
    return pull_tangent_to_siegel(w, np.eye(w.shape[-1])).T


def test_cayley_oracles():
    w = cayley_ball_coords(np.array([1j, 0.0]))
    np.testing.assert_allclose(w, [0.0, 0.0], atol=1e-15)
    w = cayley_ball_coords(np.array([2j, 1.0]))
    np.testing.assert_allclose(w, [1 / 3, -2j / 3], rtol=1e-15)
    z = cayley_siegel_coords(np.array([0.0, 0.0]))
    np.testing.assert_allclose(z, [1j, 0.0], atol=1e-15)


def test_cayley_round_trip_on_samples(rng):
    z = sampling.siegel_coords(rng, 300, 2)
    w = cayley_ball_coords(z)
    assert np.all(np.sum(np.abs(w) ** 2, axis=1) < 1.0)
    back = cayley_siegel_coords(w)
    np.testing.assert_allclose(back, z, rtol=0, atol=1e-11)


def test_poisson_transfers_through_cayley(rng):
    from siegelflow.domains import poisson_values

    z = sampling.siegel_coords(rng, 300, 2, log_u=(-2, 2), re_scale=2.0)
    u_s = poisson_values(Domain.SIEGEL, z)
    u_b = poisson_values(Domain.BALL, cayley_ball_coords(z))
    np.testing.assert_allclose(u_b, u_s, rtol=1e-12)


def test_cayley_jacobian_matches_finite_differences(rng):
    z = sampling.siegel_coords(rng, 20, 2, log_u=(-1, 1), re_scale=2.0,
                               tilde_fraction=0.5)
    h = 1e-6
    for row in z:
        jac = _jacobian(row)
        point = row[None, :]
        for axis in range(2):
            shift = np.zeros((1, 2), complex)
            shift[0, axis] = h
            fd = (cayley_ball_coords(point + shift)
                  - cayley_ball_coords(point - shift)) / (2 * h)
            np.testing.assert_allclose(jac[:, axis], fd[0], rtol=0, atol=2e-7)


def test_jacobians_are_mutual_inverses(rng):
    z = sampling.siegel_coords(rng, 50, 2)
    for row in z:
        forward = _jacobian(row)
        backward = _inverse_jacobian(cayley_ball_coords(row))
        np.testing.assert_allclose(backward @ forward, np.eye(2),
                                   rtol=0, atol=1e-11)


def test_jacobians_match_their_closed_form_entries(rng):
    # dC: 2i/d^2, -2 zk/d^2 and 2/d with d = z1 + i; dC^{-1}: 2i/e^2, i wk/e^2
    # and i/e with e = 1 - w1.  Three rounding steps per entry at most.
    for row in sampling.siegel_coords(rng, 50, 3):
        w = cayley_ball_coords(row)
        for jac, first, column, diagonal in (
            (_jacobian(row), 2j / (row[0] + 1j) ** 2,
             -2.0 * row[1:] / (row[0] + 1j) ** 2, 2.0 / (row[0] + 1j)),
            (_inverse_jacobian(w), 2j / (1.0 - w[0]) ** 2,
             1j * w[1:] / (1.0 - w[0]) ** 2, 1j / (1.0 - w[0])),
        ):
            expected = np.diag([first, diagonal, diagonal])
            expected[1:, 0] = column
            np.testing.assert_allclose(jac, expected, rtol=4 * np.finfo(float).eps,
                                       atol=0)


# ---------------------------------------------------------------------------
# Bergman metric
# ---------------------------------------------------------------------------

def test_bergman_matrix_oracle():
    g = bergman_matrix(siegel_point(2j, 1.0))
    expected = np.array([[1.0, 2j], [-2j, 8.0]])
    np.testing.assert_allclose(g, expected, rtol=0, atol=1e-15)


def _bergman_entry_loop(z):
    """Metric matrix at one point, entry by entry: the reference for the kernel."""
    n = z.shape[0]
    u_sq = (-z[0].imag + float(np.sum(np.abs(z[1:]) ** 2))) ** 2
    g = np.zeros((n, n), dtype=complex)
    g[0, 0] = 1.0 / u_sq
    abs_sq = np.abs(z) ** 2
    for j in range(1, n):
        g[0, j] = 2j * z[j] / u_sq
        g[j, 0] = -2j * np.conj(z[j]) / u_sq
        g[j, j] = 4.0 * (z[0].imag - (np.sum(abs_sq[1:]) - abs_sq[j])) / u_sq
        for k in range(1, n):
            if k != j:
                g[j, k] = 4.0 * z[k] * np.conj(z[j]) / u_sq
    return g


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_bergman_matrix_array_matches_the_entry_loop(rng, n):
    z = sampling.siegel_coords(rng, 300, n)
    expected = np.array([_bergman_entry_loop(row) for row in z])
    got = bergman_matrix_array(z)
    if n <= 2:
        assert np.array_equal(got, expected)
    else:
        # The array loop may round a complex product differently: one ulp.
        np.testing.assert_allclose(got, expected, rtol=4 * np.finfo(float).eps, atol=0)
    for row, g in zip(z[:20], got):
        point = DomainPoint(Domain.SIEGEL if n > 1 else Domain.HALF_PLANE, tuple(row))
        assert np.array_equal(bergman_matrix(point), g)


def test_bergman_norm_sq_is_the_quadratic_form(rng):
    z = sampling.siegel_coords(rng, 200, 3)
    w = sampling.tangent_vectors(rng, 200, 3)
    got = bergman_norm_sq(z, w)
    sq = hyperbolic_norm_sq_array(Domain.SIEGEL, z, w)
    for k in range(200):
        g = bergman_matrix_array(z[k])
        assert got[k] == (w[k] @ g @ np.conj(w[k])).real
        # the point function is one row of the array kernel, bit for bit
        p = DomainPoint(Domain.SIEGEL, tuple(z[k]))
        assert hyperbolic_norm(TangentVector(p, tuple(w[k]))) == np.sqrt(sq[k])


@pytest.mark.parametrize("domain, coords", [
    (Domain.DISC, lambda rng: sampling.ball_coords(rng, 300, 1)),
    (Domain.HALF_PLANE, lambda rng: sampling.siegel_coords(rng, 300, 1)),
    (Domain.SIEGEL, lambda rng: sampling.siegel_coords(rng, 300, 2)),
    (Domain.BALL, lambda rng: sampling.ball_coords(rng, 300, 2)),
])
def test_hyperbolic_norm_is_one_row_of_the_batch_kernel(rng, domain, coords):
    # A point's length does not depend on the batch it is computed in.
    z = coords(rng)
    w = sampling.tangent_vectors(rng, 300, z.shape[1])
    batch = np.sqrt(hyperbolic_norm_sq_array(domain, z, w))
    for k in range(300):
        tangent = TangentVector(DomainPoint(domain, tuple(z[k])), tuple(w[k]))
        assert hyperbolic_norm(tangent) == batch[k]


@pytest.mark.parametrize("domain, coords", [
    (Domain.DISC, lambda rng: sampling.ball_coords(rng, 2000, 1)),
    (Domain.HALF_PLANE, lambda rng: sampling.siegel_coords(rng, 2000, 1)),
    (Domain.SIEGEL, lambda rng: sampling.siegel_coords(rng, 2000, 2)),
    (Domain.BALL, lambda rng: sampling.ball_coords(rng, 2000, 2)),
])
def test_poisson_is_one_row_of_the_batch_kernel(rng, domain, coords):
    # A point's kernel value does not depend on the batch it is computed in.
    z = coords(rng)
    batch = poisson_values(domain, z)
    for k in range(z.shape[0]):
        assert poisson(DomainPoint(domain, tuple(z[k]))) == batch[k]


def test_bergman_matrix_is_hermitian_positive(rng):
    z = sampling.siegel_coords(rng, 200, 2)
    for row in z:
        g = bergman_matrix(DomainPoint(Domain.SIEGEL, tuple(row)))
        assert np.array_equal(g, np.conj(g.T))
        assert np.min(np.linalg.eigvalsh(g)) > 0


def test_hyperbolic_norm_closed_forms():
    p = siegel_point(2j, 1.0)  # u = -1
    # purely horizontal: |a| / |u|
    assert hyperbolic_norm(TangentVector(p, (3.0, 0.0))) == pytest.approx(3.0)
    # orthogonal family (2i conj(p)^T v, v) with p = z~: 2 |v| / sqrt(|u|)
    tau = np.conj(1.0) * 0.5
    v = TangentVector(p, (2j * tau, 0.5))
    assert hyperbolic_norm(v) == pytest.approx(1.0, rel=1e-14)
    # disc 2|v|/(1-|z|^2) and half-plane |v|/Im z, to a few roundings
    eps4 = 4 * np.finfo(float).eps
    for z, v in ((0.0, 1.0), (0.5, 1.0), (0.3 - 0.4j, 2 + 1j), (-0.9j, 1e-3j)):
        got = hyperbolic_norm(TangentVector(disc_point(z), (v,)))
        assert got == pytest.approx(2 * abs(v) / (1 - abs(z) ** 2), rel=eps4, abs=0)
    for z, v in ((1j, 1.0), (2 + 4j, 3 - 4j), (-5 + 1e-3j, 1j), (0.5 + 1e3j, 7.0)):
        got = hyperbolic_norm(TangentVector(half_plane_point(z), (v,)))
        assert got == pytest.approx(abs(v) / z.imag, rel=eps4, abs=0)


def test_norm_via_matrix_equals_expanded_form(rng):
    z = sampling.siegel_coords(rng, 200, 2)
    w = sampling.tangent_vectors(rng, 200, 2)
    sq = hyperbolic_norm_sq_array(Domain.SIEGEL, z, w)
    direct = bergman_norm_sq(z, w)
    for k in range(200):
        assert direct[k] == pytest.approx(sq[k], rel=1e-11)


def test_tangent_push_pull_round_trip(rng):
    z = sampling.siegel_coords(rng, 100, 2)
    w = sampling.tangent_vectors(rng, 100, 2)
    ball_w = push_tangent_to_ball(z, w)
    back = pull_tangent_to_siegel(cayley_ball_coords(z), ball_w)
    np.testing.assert_allclose(back, w, rtol=0, atol=1e-10)


def test_norm_is_cayley_invariant(rng):
    z = sampling.siegel_coords(rng, 100, 2, log_u=(-1.5, 1.5), re_scale=3.0)
    w = sampling.tangent_vectors(rng, 100, 2)
    siegel_sq = hyperbolic_norm_sq_array(Domain.SIEGEL, z, w)
    ball_sq = hyperbolic_norm_sq_array(
        Domain.BALL, cayley_ball_coords(z), push_tangent_to_ball(z, w)
    )
    np.testing.assert_allclose(ball_sq, siegel_sq, rtol=1e-11)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(re=finite, im=finite)
def test_format_parse_complex_property(re, im):
    z = complex(re, im)
    back = parse_complex(format_complex(z))
    assert back == pytest.approx(z, rel=1e-14, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=-5, max_value=5, allow_nan=False),
    y=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    frac=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
)
def test_cayley_round_trip_property(x, y, frac):
    z2 = np.sqrt(frac * y)  # keeps Im z1 - |z2|^2 = (1-frac) y > 0
    z = np.array([[x + 1j * y, z2]])
    back = cayley_siegel_coords(cayley_ball_coords(z))
    np.testing.assert_allclose(back, z, rtol=0, atol=1e-9 * max(1.0, y))


@pytest.mark.parametrize("domain", list(Domain))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_component_margin_matches_interior_margin_bit_for_bit(rng, domain, n):
    # The flow kernel holds its points component-major, (n, m), and tests the
    # transposed view y.T; flow_map and DomainPoint test contiguous (m, n)
    # points.  The one margin table gives both layouts the same bits.
    for m in (1, 2, 7, 300):
        y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        y *= 10.0 ** rng.integers(-3, 4, size=(n, m))
        kernel = interior_margin(domain, y.T)
        assert kernel.shape == (m,)
        points = np.ascontiguousarray(y.T)
        assert kernel.tobytes() == interior_margin(domain, points).tobytes()
        assert np.array_equal(_is_interior(domain, y.T), kernel > INTERIOR_MARGIN)
        assert np.array_equal(_is_interior(domain, points), kernel > INTERIOR_MARGIN)
        if domain in (Domain.SIEGEL, Domain.HALF_PLANE):
            assert (-kernel).tobytes() == poisson_values(domain, points).tobytes()
