"""Versioned sampling grids shared by the membership and flow checks.

Every default grid is a named, frozen constant so that reported verdicts and
witnesses are reproducible across runs and machines: each is built once per
process and cached read-only, so a write into it raises ValueError.  The
registry below is printed by ``siegelflow --help``.
"""

from __future__ import annotations

from functools import lru_cache, wraps

import numpy as np

HALFPLANE_GRID_V1 = "halfplane-grid-v1"
SIEGEL_GRID_V1 = "siegel-grid-v1"
SIEGEL_GRID_SMALL_V1 = "siegel-grid-small-v1"
HOROSPHERE_SAMPLES_V1 = "horosphere-samples-v1"

GRID_DESCRIPTIONS = {
    HALFPLANE_GRID_V1: (
        "half-plane rectangle: x in +-logspace(-2,2) with 0 (64 values), "
        "y in logspace(-2,4,64)"
    ),
    SIEGEL_GRID_V1: (
        "Siegel grid, n=2: x in {0,+-logspace(-2,2,10)}, y in logspace(-2,4,16), "
        "z~ radius fractions {0,.25,.5,.75,.95} of sqrt(y), phases {1,i,-1,-i}"
    ),
    SIEGEL_GRID_SMALL_V1: (
        "reduced Siegel grid used by the verify suites: x in {0,+-0.1,+-10}, "
        "y in logspace(-1,3,6), fractions {0,.5,.9}, phases {1,i}"
    ),
    HOROSPHERE_SAMPLES_V1: (
        "64 points with |u| = 1: phi_gamma(x + i) for 16 gammas and "
        "x in {-2,-0.5,0.5,2}"
    ),
}


def _frozen(build):
    """Cache build's array, made read-only so no caller can change the grid."""

    @lru_cache(maxsize=None)
    @wraps(build)
    def cached(*args, **kwargs):
        points = build(*args, **kwargs)
        points.setflags(write=False)
        return points

    return cached


@_frozen
def halfplane_grid() -> np.ndarray:
    """Flat array of half-plane points, shape (4096, 1)."""
    xs = np.concatenate(
        [
            -np.logspace(2.0, -2.0, 32),
            [0.0],
            np.logspace(-2.0, 2.0, 31),
        ]
    )
    ys = np.logspace(-2.0, 4.0, 64)
    x_mesh, y_mesh = np.meshgrid(xs, ys, indexing="ij")
    points = (x_mesh + 1j * y_mesh).ravel()
    return points[:, None]


def _siegel_points(xs, ys, fractions, phases, n):
    """For each x, then each y: the row (x + iy, 0, ...), then one row per
    fraction, phase and axis with fraction * sqrt(y) * phase on that axis."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    values = np.multiply.outer(np.multiply.outer(np.sqrt(ys), fractions), phases)
    axes = np.arange(n - 1)
    tails = np.zeros((xs.size,) + values.shape + (n - 1, n), dtype=complex)
    tails[..., axes, 1 + axes] = values[..., None]
    head = np.zeros((xs.size, ys.size, 1, n), dtype=complex)
    rows = np.concatenate([head, tails.reshape(xs.size, ys.size, -1, n)], axis=2)
    rows[..., 0] = (xs[:, None] + 1j * ys)[..., None]
    return rows.reshape(-1, n)


@_frozen
def siegel_grid(n: int = 2) -> np.ndarray:
    """Default Siegel sampling grid, shape (count, n)."""
    exponents = np.linspace(-2.0, 2.0, 10)
    xs = np.concatenate([[0.0], 10.0**exponents, -(10.0**exponents)])
    ys = np.logspace(-2.0, 4.0, 16)
    fractions = (0.25, 0.5, 0.75, 0.95)
    phases = (1.0, 1j, -1.0, -1j)
    return _siegel_points(xs, ys, fractions, phases, n)


@_frozen
def siegel_grid_small(n: int = 2) -> np.ndarray:
    xs = (0.0, 0.1, -0.1, 10.0, -10.0)
    ys = np.logspace(-1.0, 3.0, 6)
    fractions = (0.5, 0.9)
    phases = (1.0, 1j)
    return _siegel_points(xs, ys, fractions, phases, n)


@_frozen
def horosphere_samples(n: int = 2) -> np.ndarray:
    """Points with |u| = 1 exactly: phi_gamma(x + i), shape (64, n)."""
    magnitudes = np.array([0.5, 1.0, 2.0])
    phases = np.array([1.0, 1j, -1.0, -1j])
    extra = [0.5 + 0.5j, 1.0 + 1.0j, 1.0 - 1.0j]
    leading = np.concatenate([[0.0], np.multiply.outer(magnitudes, phases).ravel(), extra])
    # Each gamma sits in the first tangential coordinate (none when n = 1).
    gammas = np.zeros((leading.size, n - 1), dtype=complex)
    gammas[:, :1] = leading[:, None]
    norm_sq = np.sum(np.abs(gammas) ** 2, axis=1)
    xs = np.array([-2.0, -0.5, 0.5, 2.0])
    points = np.zeros((leading.size, xs.size, n), dtype=complex)
    points[..., 0] = xs + 1j * (1.0 + norm_sq)[:, None]
    points[..., 1:] = gammas[:, None, :]
    return points.reshape(-1, n)


def grid_by_name(name: str, n: int = 2) -> tuple[np.ndarray, str]:
    """Points of a registered grid in dimension n and its version id.

    n = 1 has the one half-plane grid; n > 1 the Siegel grids, 'default' and
    'small'.
    """
    if n == 1:
        if name in ("default", HALFPLANE_GRID_V1):
            return halfplane_grid(), HALFPLANE_GRID_V1
        raise KeyError(
            f"unknown half-plane grid {name!r}; n = 1 takes --grid default "
            f"or {HALFPLANE_GRID_V1}"
        )
    if name in ("default", SIEGEL_GRID_V1):
        return siegel_grid(n), SIEGEL_GRID_V1
    if name in ("small", SIEGEL_GRID_SMALL_V1):
        return siegel_grid_small(n), SIEGEL_GRID_SMALL_V1
    raise KeyError(f"unknown Siegel grid {name!r}")
