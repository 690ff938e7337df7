"""Seeded random samplers shared by the verification suites and the tests.

All samplers take an explicit numpy Generator so callers control
reproducibility; nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np

from .domains import Domain, _is_interior


def ball_coords(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Points in the ball of radius 0.9 in C^n, shape (count, n)."""
    raw = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    # Uniform-in-volume radial law for real dimension 2n.
    r = 0.9 * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / (2 * n))
    return raw / norms * r


def siegel_coords(
    rng: np.random.Generator,
    count: int,
    n: int,
    log_u: tuple[float, float] = (-2.0, 2.0),
    re_scale: float = 10.0,
    tilde_fraction: float = 0.9,
) -> np.ndarray:
    """Interior Siegel points with log-uniform height above the boundary.

    The height Im z1 - ||z~||^2 is drawn log-uniformly from 10**log_u, the
    tangential part fills at most ``tilde_fraction`` of the available
    Im z1 budget, and Re z1 is uniform.  Shape (count, n).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    height = 10.0 ** rng.uniform(*log_u, count)
    x = rng.uniform(-re_scale, re_scale, count)
    out = np.empty((count, n), dtype=complex)
    if n == 1:
        out[:, 0] = x + 1j * height
        return out
    direction = rng.normal(size=(count, n - 1)) + 1j * rng.normal(size=(count, n - 1))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    # ||z~||^2 = s * height / (1 - s) keeps height exact for any s in [0, 1).
    s = rng.uniform(0.0, tilde_fraction, count)
    tilde_norm = np.sqrt(s * height / (1.0 - s))
    out[:, 1:] = direction * tilde_norm[:, None]
    out[:, 0] = x + 1j * (height + tilde_norm**2)
    assert _is_interior(Domain.SIEGEL, out).all()
    return out


def tangent_vectors(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Standard complex Gaussian tangent vectors, shape (count, n)."""
    return rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))


def herglotz_measures(rng: np.random.Generator, count: int) -> list:
    """Random discrete measures of 1 to 4 atoms on the real line, positive masses."""
    from .fields import DiscreteMeasure

    measures = []
    for _ in range(count):
        k = int(rng.integers(1, 5))
        us = rng.uniform(-5.0, 5.0, k)
        ms = rng.uniform(0.1, 2.0, k)
        measures.append(DiscreteMeasure(tuple(zip(us.tolist(), ms.tolist()))))
    return measures
