"""Named grids: the broadcast builders against the per-point loops they replace."""

import numpy as np
import pytest

from siegelflow.grids import (
    grid_by_name,
    halfplane_grid,
    horosphere_samples,
    siegel_grid,
    siegel_grid_small,
)


def _siegel_points_loop(xs, ys, fractions, phases, n):
    points = []
    axes = range(n - 1)
    for x in xs:
        for y in ys:
            z1 = x + 1j * y
            base = np.zeros(n, dtype=complex)
            base[0] = z1
            points.append(base)
            radius = np.sqrt(y)
            for fraction in fractions:
                for phase in phases:
                    for axis in axes:
                        entry = np.zeros(n, dtype=complex)
                        entry[0] = z1
                        entry[1 + axis] = fraction * radius * phase
                        points.append(entry)
    return np.array(points, dtype=complex)


def _siegel_grid_loop(n):
    exponents = np.linspace(-2.0, 2.0, 10)
    xs = np.concatenate([[0.0], 10.0**exponents, -(10.0**exponents)])
    ys = np.logspace(-2.0, 4.0, 16)
    return _siegel_points_loop(xs, ys, (0.25, 0.5, 0.75, 0.95), (1.0, 1j, -1.0, -1j), n)


def _siegel_grid_small_loop(n):
    ys = np.logspace(-1.0, 3.0, 6)
    return _siegel_points_loop((0.0, 0.1, -0.1, 10.0, -10.0), ys, (0.5, 0.9), (1.0, 1j), n)


def _horosphere_samples_loop(n):
    gammas = [np.zeros(n - 1, dtype=complex)]
    for magnitude in (0.5, 1.0, 2.0):
        for phase in (1.0, 1j, -1.0, -1j):
            gamma = np.zeros(n - 1, dtype=complex)
            if n > 1:
                gamma[0] = magnitude * phase
            gammas.append(gamma)
    for value in (0.5 + 0.5j, 1.0 + 1.0j, 1.0 - 1.0j):
        gamma = np.zeros(n - 1, dtype=complex)
        if n > 1:
            gamma[0] = value
        gammas.append(gamma)
    points = []
    for gamma in gammas:
        norm_sq = float(np.sum(np.abs(gamma) ** 2))
        for x in (-2.0, -0.5, 0.5, 2.0):
            entry = np.zeros(n, dtype=complex)
            entry[0] = x + 1j * (1.0 + norm_sq)
            entry[1:] = gamma
            points.append(entry)
    return np.array(points, dtype=complex)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("built, loop", [
    (siegel_grid, _siegel_grid_loop),
    (siegel_grid_small, _siegel_grid_small_loop),
    (horosphere_samples, _horosphere_samples_loop),
])
def test_grids_are_bit_identical_to_the_point_loop(built, loop, n):
    # Witnesses and verdicts report the first extremal row, so the order and
    # every bit (signed zeros included) must match.
    got, want = built(n), loop(n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", [
    lambda: siegel_grid(2), lambda: siegel_grid_small(2),
    lambda: horosphere_samples(2), lambda: halfplane_grid(),
])
def test_cached_grids_are_read_only(grid):
    # Each grid is one cached array shared by every caller in the process: a
    # write into it would change every later scan, so it must raise.
    points = grid()
    before = points.tobytes()
    with pytest.raises(ValueError):
        points[0, 0] = 123
    assert grid() is points and points.tobytes() == before


def test_grid_by_name_picks_the_grid_by_dimension():
    # n = 1 has the one half-plane grid; n > 1 the Siegel grids.
    for name in ("default", "halfplane-grid-v1"):
        points, grid_id = grid_by_name(name, 1)
        assert points is halfplane_grid() and grid_id == "halfplane-grid-v1"
    assert grid_by_name("small", 3)[0] is siegel_grid_small(3)
    points, grid_id = grid_by_name("siegel-grid-v1", 2)
    assert points is siegel_grid(2) and grid_id == "siegel-grid-v1"
    with pytest.raises(KeyError, match="--grid"):
        grid_by_name("small", 1)
    with pytest.raises(KeyError, match="unknown Siegel grid"):
        grid_by_name("halfplane-grid-v1", 2)
