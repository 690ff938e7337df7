"""The closed-form oracle against scipy's DOP853 on seeded points."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import oracle

RTOL = 1e-12
ATOL = 1e-13


def dop853(rhs, z0, t0, t1):
    solution = solve_ivp(lambda t, y: rhs(y), (t0, t1), np.asarray(z0, dtype=complex),
                         method="DOP853", rtol=RTOL, atol=ATOL)
    assert solution.success
    return solution.y[:, -1]


def siegel_points(seed, count=20):
    rng = np.random.default_rng(seed)
    y = 10.0 ** rng.uniform(-1.0, 2.0, count)
    z1 = rng.uniform(-5.0, 5.0, count) + 1j * y
    radius = np.sqrt(rng.uniform(0.0, 0.9, count) * y)
    z2 = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))
    return np.stack([z1, z2], axis=-1), rng.uniform(0.1, 3.0, count)


def assert_close(got, want):
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_example2_matches_dop853(seed):
    points, times = siegel_points(seed)

    def rhs(z):
        return np.array([-1.0 / z[0], z[1] / (2.0 * z[0] ** 2)])

    for z0, t in zip(points, times):
        assert_close(oracle.example2_flow(z0, t), dop853(rhs, z0, 0.0, t))


@pytest.mark.parametrize("seed", [3, 4])
def test_example1_matches_dop853(seed):
    points, times = siegel_points(seed)

    def rhs(z):
        return np.array([0.0, -1j * z[1] / z[0]])

    for z0, t in zip(points, times):
        assert_close(oracle.example1_flow(z0, t), dop853(rhs, z0, 0.0, t))


@pytest.mark.parametrize("seed", [5, 6])
def test_reciprocal_schedule_matches_dop853(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        z0 = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 3.0))
        t = rng.uniform(0.5, 2.0)
        split = rng.uniform(0.2, 0.8) * t
        pieces = [(0.0, split, 1.0), (split, t, 2.0)]
        z = np.array([z0])
        for t0, t1, c in pieces:
            z = dop853(lambda y, c=c: -c / y, z, t0, t1)
        assert_close(oracle.reciprocal_schedule_flow(np.array([z0]), pieces, t), z)


def test_flows_stay_in_upper_half_plane_and_increase_u():
    points, times = siegel_points(7, count=200)
    for t in (0.5, 1.5):
        end = oracle.example2_flow(points, t)
        assert np.all(end[:, 0].imag > 0)
        assert np.all(np.abs(oracle.poisson_siegel(end))
                      >= np.abs(oracle.poisson_siegel(points)) * (1 - 1e-12))
