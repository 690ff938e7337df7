"""Generator-class membership checks and capacity estimation.

A field H belongs to the class with constant c exactly when the hyperbolic
length of H(z) obeys

    u(z)^2 ||H(z)||_z <= c

everywhere.  :func:`membership` is the one scan of that inequality, over a
versioned grid of :mod:`siegelflow.grids` on the half-plane (n = 1), the
Siegel half-space or the ball.  On the half-plane u = Im z and ||H||_z =
|H| / Im z, so it reads Im(z) |H(z)| <= c, and the smallest such c (the
capacity of H) is the limit of y |H(iy)| as y -> infinity.  Verdicts are
reported with the sampled supremum and the witness point attaining it;
"consistent" means no sampled violation, it is not a proof of membership.
"""

from __future__ import annotations

import numpy as np

from ._records import record
from .domains import (
    Domain,
    cayley_ball_coords,
    hyperbolic_norm_sq_array,
    poisson_values,
)
from .errors import ArityMismatchError, FieldEvaluationError
from .fields import VectorField
from .geodesics import GeodesicParam, geodesic_coords, slice_parts
from .grids import SIEGEL_GRID_V1, grid_by_name

# Relative slack applied to every sampled inequality before declaring a
# violation; absorbs harmless last-digit rounding.
INEQUALITY_SLACK = 1e-9

CAPACITY_DEFAULTS = {"y_min": 1.0, "y_max": 1e8, "count": 64}


@record
class CapacityEstimate:
    """Tail estimate of y |H(iy)| along the imaginary axis."""

    value: float
    trend: str  # converged | increasing | inconclusive
    samples: tuple[tuple[float, float], ...]


@record
class MembershipReport:
    """Outcome of a sampled membership inequality."""

    constant_c: float
    sup_observed: float
    witness: tuple[complex, ...]
    witness_domain: Domain
    verdict: str  # consistent | violated
    grid_name: str
    notes: tuple[str, ...] = ()


@record
class InequalityReport:
    """Worst sampled margin of a pointwise inequality (negative = violated)."""

    worst_margin: float
    witness: tuple[complex, ...]
    ok: bool
    grid_name: str


def _finite_values(evaluate, points, what: str) -> np.ndarray:
    """evaluate(points) under one floating-point state; non-finite raises."""
    with np.errstate(all="ignore"):
        values = evaluate(points)
    if not np.all(np.isfinite(values)):
        raise FieldEvaluationError(f"{what} produced non-finite values")
    return values


def _class_constant(c: float) -> float:
    c = float(c)
    if not (np.isfinite(c) and c >= 0.0):
        raise ValueError(f"class constant c must be finite and >= 0, got {c}")
    return c


def _verdict(sup: float, c: float) -> str:
    return "violated" if sup > c * (1.0 + INEQUALITY_SLACK) else "consistent"


# ---------------------------------------------------------------------------
# Capacities
# ---------------------------------------------------------------------------

def slice_capacities(
    field: VectorField,
    gammas,
    y_min: float = CAPACITY_DEFAULTS["y_min"],
    y_max: float = CAPACITY_DEFAULTS["y_max"],
    count: int = CAPACITY_DEFAULTS["count"],
) -> list[CapacityEstimate]:
    """Capacity estimates of the slices h_gamma, one per gamma.

    Samples y |h_gamma(iy)| on a geometric grid; the reported value is the
    maximum over the last quarter of the samples.  The trend is
    ``converged`` when the tail's relative spread is below 1e-4,
    ``increasing`` when the tail still grows monotonically by more than 1%,
    else ``inconclusive``.  Needs finite 0 < y_min < y_max and count >= 8,
    which keeps two samples in the tail.

    A one-dimensional field is its own only slice, gamma = (), so
    ``slice_capacities(field, [()])[0]`` is the capacity of a half-plane
    generator.  One field call on the (G, count, n) stack of points
    phi_gamma(iy) serves every slice; each estimate equals that of the
    gamma's slice_field alone bit for bit.
    """
    params = [GeodesicParam(tuple(np.atleast_1d(g))) for g in gammas]
    for param in params:
        param.require_dimension(field.dimension)
    if not (np.isfinite(y_min) and np.isfinite(y_max) and 0 < y_min < y_max):
        raise ValueError(f"need finite 0 < y_min < y_max, got {y_min}, {y_max}")
    if count < 8:
        raise ValueError(f"count must be >= 8 (a two-sample tail), got {count}")
    if not params:
        return []
    directions = np.array([p.gamma for p in params], dtype=complex)[:, None, :]
    ys = np.geomspace(y_min, y_max, count)
    what = field.description if field.dimension == 1 else f"slice[{field.description}]"
    values = _finite_values(
        lambda ys: slice_parts(field(geodesic_coords(directions, 1j * ys)), directions)[1],
        ys, what,
    )
    # y |h(iy)| may overflow where h does not: that is a field failure too.
    scaled_rows = _finite_values(lambda values: ys * np.abs(values), values,
                                 f"y |h(iy)| of {what}")
    estimates = []
    for scaled in scaled_rows:
        tail = scaled[-(count // 4):]
        top = np.max(tail)
        if top == 0.0 or (top - np.min(tail)) / top < 1e-4:
            trend = "converged"
        elif np.all(np.diff(tail) >= 0) and tail[-1] > 1.01 * tail[0]:
            trend = "increasing"
        else:
            trend = "inconclusive"
        samples = tuple((float(y), float(s)) for y, s in zip(ys, scaled))
        estimates.append(CapacityEstimate(float(top), trend, samples))
    return estimates


# ---------------------------------------------------------------------------
# Class membership
# ---------------------------------------------------------------------------

def membership(
    field: VectorField, c: float, domain: Domain | None = None, grid: str = "default"
) -> MembershipReport:
    """Test u(z)^2 ||H(z)||_z <= c on a named grid of ``domain``.

    ``domain=None`` is the half-plane for a 1-d field and the Siegel
    half-space for n > 1.  On the half-plane u = Im z and ||H||_z = |H|/Im z,
    so the scan is Im(z) |H(z)| <= c; there a note also reports any Im(H) <
    -1e-12, where H leaves the closed half-plane, without affecting the
    verdict.  ``Domain.BALL`` scans the Cayley image of the Siegel grid with
    a ball field, e.g. the pushforward of a half-space one; with the default
    grids that is the exact transport of the Siegel scan.
    """
    if domain is None:
        domain = Domain.SIEGEL if field.dimension > 1 else Domain.HALF_PLANE
    if domain == Domain.DISC:
        raise ValueError("membership has no disc grid; use the half-plane")
    if domain == Domain.HALF_PLANE and field.dimension != 1:
        raise ArityMismatchError("half-plane membership needs a 1-d field")
    points, grid_name = grid_by_name(grid, field.dimension)
    if domain == Domain.BALL:
        points, grid_name = cayley_ball_coords(points), f"cayley[{grid_name}]"
    c = _class_constant(c)
    values = _finite_values(field, points, field.description)
    u = poisson_values(domain, points)
    # The metric's quadratic form may overflow where H does not.
    scaled = _finite_values(
        lambda values: (u * u) * np.sqrt(hyperbolic_norm_sq_array(domain, points, values)),
        values, f"u^2 ||H|| of {field.description}",
    )
    index = int(np.argmax(scaled))
    sup = float(scaled[index])
    notes = ()
    if domain == Domain.HALF_PLANE and np.min(values.imag) < -1e-12:
        lowest = int(np.argmin(values.imag))
        z = points[lowest, 0]  # Im z > 0 on a half-plane grid
        notes = (
            f"Im(H) = {values[lowest, 0].imag:.3e} < 0 at "
            f"{z.real:.15g}+{z.imag:.15g}i; "
            "H does not map the half-plane into its closure",
        )
    return MembershipReport(
        c, sup, tuple(points[index]), domain, _verdict(sup, c), grid_name, notes
    )


# ---------------------------------------------------------------------------
# Self-map inequalities
# ---------------------------------------------------------------------------

# Absolute slack on the horosphere inequality's margin.
HOROSPHERE_INEQUALITY_SLACK = 1e-10


def horosphere_inequality_check(
    displacement: VectorField, grid: str = SIEGEL_GRID_V1
) -> InequalityReport:
    """Sample ||H~(z)||^2 <= |H1(z) - 2i <H~(z), z~>| for H = f - id.

    This is the first-order consequence of horosphere preservation by a
    self-map f fixing the boundary point at infinity.  ``grid`` names a
    registered Siegel grid.  The report carries the worst margin rhs - lhs
    and its witness; ``ok`` means that margin is at least
    -HOROSPHERE_INEQUALITY_SLACK.
    """
    points, grid_name = grid_by_name(grid, displacement.dimension)
    values = _finite_values(displacement, points, displacement.description)
    return _horosphere_inequality_report(points, values, grid_name)


def _horosphere_inequality_report(points: np.ndarray, values: np.ndarray,
                                  grid_name: str) -> InequalityReport:
    """Judge the displacement ``values`` at the grid ``points``."""
    lhs = np.sum(np.abs(values[..., 1:]) ** 2, axis=-1)
    rhs = np.abs(slice_parts(values, points[..., 1:])[1])
    margins = rhs - lhs
    index = int(np.argmin(margins))
    worst = float(margins[index])
    return InequalityReport(
        worst_margin=worst,
        witness=tuple(points[index]),
        ok=worst >= -HOROSPHERE_INEQUALITY_SLACK,
        grid_name=grid_name,
    )
