"""Domains, Cayley transport, Poisson kernels, and the invariant metric.

Four domains are modeled: the unit disc, the upper half-plane, the Euclidean
unit ball of C^n, and the Siegel upper half-space

    H_n = { z = (z1, z~) in C^n : Im(z1) > ||z~||^2 },   z~ = (z2, ..., zn).

The half-space carries a closed-form Bergman-type metric normalized to
holomorphic sectional curvature -1; all hyperbolic lengths on the ball are
computed by transporting tangent vectors through the Cayley biholomorphism

    C(z) = ( (z1 - i)/(z1 + i), 2 z2/(z1 + i), ..., 2 zn/(z1 + i) ).

The pluricomplex Poisson kernel u is the strictly negative function whose
sublevel sets are horospheres centered at the distinguished boundary point
(infinity on the half-space side, e1 on the ball side):

    u_{H_n}(z) = -Im(z1) + ||z~||^2,
    u_{B_n}(w) = -(1 - ||w||^2) / |1 - w1|^2,

and u_{H_n} = u_{B_n} o C.  Everything here degenerates correctly at n = 1,
where the Siegel domain is the half-plane and the ball is the disc.
"""

from __future__ import annotations

import re
from enum import Enum

import numpy as np

from ._records import record
from .errors import ArityMismatchError, DomainViolation

# A point counts as interior only when its defining inequality holds with
# this much room; boundary-adjacent inputs are rejected rather than trusted.
INTERIOR_MARGIN = 1e-12

# np.sum and ndarray.sum reach this reduction through Python-level wrappers,
# which cost more than the loop on the few numbers of one integrator step
# (I, P and O 3-5% in process, README).
_sum = np.add.reduce


class Domain(str, Enum):
    DISC = "disc"
    HALF_PLANE = "half_plane"
    BALL = "ball"
    SIEGEL = "siegel"


_ONE_DIM = (Domain.DISC, Domain.HALF_PLANE)
_HALF_SPACES = (Domain.SIEGEL, Domain.HALF_PLANE)  # where u is minus the margin


# Margin of each domain's defining inequality on rows coords[..., k]: positive
# inside, zero on the boundary.  The flow kernel passes the transposed view y.T
# of its (n, m) state: the same numbers in the same memory give the same bits.
_MARGIN = {
    Domain.DISC: lambda z: 1.0 - np.abs(z[..., 0]),
    Domain.HALF_PLANE: lambda z: z[..., 0].imag,
    Domain.BALL: lambda z: 1.0 - np.sqrt(_sum(np.abs(z) ** 2, axis=-1)),
    Domain.SIEGEL: lambda z: z[..., 0].imag - _sum(np.abs(z[..., 1:]) ** 2, axis=-1),
}


def interior_margin(domain: Domain, coords: np.ndarray) -> np.ndarray:
    """Signed distance-like margin of the defining inequality.

    ``coords`` has shape (..., n); the result drops the last axis.  Positive
    values are interior, zero is the boundary.
    """
    return _MARGIN[domain](np.asarray(coords, dtype=complex))


def _is_interior(domain: Domain, coords: np.ndarray, margin=None) -> np.ndarray:
    """Rows of coords (..., n) that are interior: finite, margin > INTERIOR_MARGIN.

    ``margin`` is the domain's margin at coords, when the caller has it.

    Only the first coordinate needs its own finiteness test: the ball and
    Siegel margins take |z_k| of every other coordinate, which a non-finite
    z_k turns into inf or NaN, so the margin is -inf or NaN and fails the
    bound; disc and half-plane points have no other coordinate.

    A non-finite row may make numpy warn; callers that can meet one hold
    ``np.errstate``.
    """
    if margin is None:
        margin = _MARGIN[domain](coords)
    return np.isfinite(coords[..., 0]) & (margin > INTERIOR_MARGIN)


def _interior_and_poisson(domain: Domain, coords: np.ndarray):
    """``_is_interior`` and ``poisson_values`` of complex rows coords (..., n).

    On the half-space and the half-plane u is minus the margin, so both come
    from one margin computation there (I 2.6% in process, README).
    """
    margin = _MARGIN[domain](coords)
    u = -margin if domain in _HALF_SPACES else poisson_values(domain, coords)
    return _is_interior(domain, coords, margin), u


@record
class DomainPoint:
    """An interior point of one of the four model domains."""

    domain: Domain
    coords: tuple[complex, ...]

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        n = len(coords)
        if n == 0:
            raise ArityMismatchError("a point needs at least one coordinate")
        if self.domain in _ONE_DIM and n != 1:
            raise ArityMismatchError(
                f"{self.domain.value} points are one-dimensional, got n={n}"
            )
        arr = np.array(coords, dtype=complex)
        with np.errstate(all="ignore"):
            if _is_interior(self.domain, arr):
                return
            margin = float(interior_margin(self.domain, arr))
        if not np.isfinite(arr).all():
            raise DomainViolation("point has non-finite coordinates")
        raise DomainViolation(f"point {coords} is not interior to {self.domain.value} "
                              f"(margin {margin:.3e})")

    @property
    def n(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)


def disc_point(z: complex) -> DomainPoint:
    return DomainPoint(Domain.DISC, (z,))


def half_plane_point(z: complex) -> DomainPoint:
    return DomainPoint(Domain.HALF_PLANE, (z,))


def ball_point(*coords: complex) -> DomainPoint:
    return DomainPoint(Domain.BALL, tuple(coords))


def siegel_point(*coords: complex) -> DomainPoint:
    return DomainPoint(Domain.SIEGEL, tuple(coords))


@record
class TangentVector:
    """A tangent vector attached to an interior base point."""

    base: DomainPoint
    v: tuple[complex, ...]

    def __post_init__(self):
        v = tuple(complex(c) for c in self.v)
        object.__setattr__(self, "v", v)
        if len(v) != self.base.n:
            raise ArityMismatchError(
                f"vector length {len(v)} != point dimension {self.base.n}"
            )

    def as_array(self) -> np.ndarray:
        return np.array(self.v, dtype=complex)


# ---------------------------------------------------------------------------
# Poisson kernel
# ---------------------------------------------------------------------------

def poisson_values(domain: Domain, coords: np.ndarray) -> np.ndarray:
    """Pluricomplex Poisson kernel on an array of points, shape (..., n)."""
    coords = np.asarray(coords, dtype=complex)
    if domain in _HALF_SPACES:
        return -_MARGIN[domain](coords)
    if domain in (Domain.BALL, Domain.DISC):
        norm_sq = _sum(np.abs(coords) ** 2, axis=-1)
        return -(1.0 - norm_sq) / np.abs(1.0 - coords[..., 0]) ** 2
    raise ValueError(f"unknown domain {domain!r}")


def poisson(point: DomainPoint) -> float:
    """Poisson kernel at a point; strictly negative on the interior.

    One row of ``poisson_values`` that keeps its batch axis, as in
    ``hyperbolic_norm``.
    """
    return float(poisson_values(point.domain, point.as_array()[None])[0])


# ---------------------------------------------------------------------------
# Cayley transform and its derivative
# ---------------------------------------------------------------------------

def cayley_ball_coords(z: np.ndarray) -> np.ndarray:
    """Coordinates of C(z) for Siegel coordinates z of shape (..., n)."""
    z = np.asarray(z, dtype=complex)
    den = z[..., 0] + 1j
    out = np.empty_like(z)
    out[..., 0] = (z[..., 0] - 1j) / den
    out[..., 1:] = 2.0 * z[..., 1:] / den[..., None]
    return out


def cayley_siegel_coords(w: np.ndarray) -> np.ndarray:
    """Coordinates of C^{-1}(w) for ball coordinates w of shape (..., n)."""
    w = np.asarray(w, dtype=complex)
    den = 1.0 - w[..., 0]
    out = np.empty_like(w)
    out[..., 0] = 1j * (1.0 + w[..., 0]) / den
    out[..., 1:] = 1j * w[..., 1:] / den[..., None]
    return out


def push_tangent_to_ball(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply dC(z) to tangent vectors; both arrays have shape (..., n).

    Nonzero entries of dC: dC1/dz1 = 2i/(z1+i)^2, dCk/dz1 = -2 zk/(z1+i)^2
    and dCk/dzk = 2/(z1+i) for k >= 2.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    den = z[..., 0] + 1j
    out = np.empty(np.broadcast(z, v).shape, dtype=complex)
    out[..., 0] = 2j * v[..., 0] / den**2
    out[..., 1:] = (
        -2.0 * z[..., 1:] * v[..., 0, None] / (den**2)[..., None]
        + 2.0 * v[..., 1:] / den[..., None]
    )
    return out


def pull_tangent_to_siegel(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply dC^{-1}(w) to tangent vectors at ball points w."""
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    den = 1.0 - w[..., 0]
    out = np.empty(np.broadcast(w, v).shape, dtype=complex)
    out[..., 0] = 2j * v[..., 0] / den**2
    out[..., 1:] = (
        1j * w[..., 1:] * v[..., 0, None] / (den**2)[..., None]
        + 1j * v[..., 1:] / den[..., None]
    )
    return out


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------

def bergman_matrix_array(coords: np.ndarray) -> np.ndarray:
    """Metric matrices (g_{j,k}) of the half-space, curvature -1 normalization.

    ``coords`` has shape (..., n); the result has shape (..., n, n).  With
    u = u_{H_n}(z):

        g_{1,1} = 1/u^2                  g_{1,k} = 2 i z_k / u^2
        g_{j,1} = -2 i conj(z_j) / u^2   g_{j,k} = 4 z_k conj(z_j) / u^2
        g_{j,j} = 4 (Im(z1) - sum_{l>=2, l!=j} |z_l|^2) / u^2

    for j, k >= 2, j != k.  Squared length of w is  w^T g conj(w).
    """
    z = np.asarray(coords, dtype=complex)
    u = poisson_values(Domain.SIEGEL, z)
    u_sq = (u * u)[..., None]
    tail = z[..., 1:]
    abs_sq = np.abs(tail) ** 2
    excluded = np.sum(abs_sq, axis=-1)[..., None] - abs_sq
    g = np.empty(z.shape + z.shape[-1:], dtype=complex)
    g[..., 0, 0] = 1.0 / u_sq[..., 0]
    g[..., 0, 1:] = 2j * tail / u_sq
    g[..., 1:, 0] = -2j * np.conj(tail) / u_sq
    outer = 4.0 * tail[..., None, :] * np.conj(tail)[..., :, None]
    g[..., 1:, 1:] = outer / u_sq[..., None]
    diagonal = np.arange(1, z.shape[-1])
    g[..., diagonal, diagonal] = 4.0 * (z[..., 0, None].imag - excluded) / u_sq
    return g


def bergman_matrix(point: DomainPoint) -> np.ndarray:
    """Metric matrix of ``bergman_matrix_array`` at one half-space point, (n, n)."""
    if point.domain not in (Domain.SIEGEL, Domain.HALF_PLANE):
        raise DomainViolation("bergman_matrix expects a half-space point")
    return bergman_matrix_array(point.as_array())


def bergman_norm_sq(coords: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Squared half-space lengths Re(w^T g conj(w)), g from bergman_matrix_array."""
    w = np.asarray(vecs, dtype=complex)[..., None, :]
    value = w @ bergman_matrix_array(coords) @ np.conj(w).swapaxes(-1, -2)
    return value[..., 0, 0].real


def siegel_norm_sq(coords: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Squared hyperbolic length on the half-space, vectorized.

    Expanded form of the metric's quadratic form: with tau = conj(z~)^T w~,

        u^2 ||w||^2 = |w1|^2 - 4 Im(w1 conj(tau)) + 4 |u| ||w~||^2 + 4 |tau|^2.
    """
    coords = np.asarray(coords, dtype=complex)
    vecs = np.asarray(vecs, dtype=complex)
    au = _MARGIN[Domain.SIEGEL](coords)
    w1 = vecs[..., 0]
    tau = np.sum(np.conj(coords[..., 1:]) * vecs[..., 1:], axis=-1)
    q = (
        np.abs(w1) ** 2
        - 4.0 * (w1 * np.conj(tau)).imag
        + 4.0 * au * np.sum(np.abs(vecs[..., 1:]) ** 2, axis=-1)
        + 4.0 * np.abs(tau) ** 2
    )
    return q / (au * au)


def hyperbolic_norm_sq_array(
    domain: Domain, coords: np.ndarray, vecs: np.ndarray
) -> np.ndarray:
    """Squared hyperbolic norms for arrays of (point, vector) pairs."""
    coords = np.asarray(coords, dtype=complex)
    vecs = np.asarray(vecs, dtype=complex)
    if domain == Domain.DISC:
        scale = 2.0 / (1.0 - np.abs(coords[..., 0]) ** 2)
        return (scale * np.abs(vecs[..., 0])) ** 2
    if domain == Domain.HALF_PLANE:
        return (np.abs(vecs[..., 0]) / coords[..., 0].imag) ** 2
    if domain == Domain.SIEGEL:
        return siegel_norm_sq(coords, vecs)
    if domain == Domain.BALL:
        z = cayley_siegel_coords(coords)
        vz = pull_tangent_to_siegel(coords, vecs)
        return siegel_norm_sq(z, vz)
    raise ValueError(f"unknown domain {domain!r}")


def hyperbolic_norm(tangent: TangentVector) -> float:
    """Hyperbolic length of a tangent vector: one row of ``hyperbolic_norm_sq_array``.

    The row keeps its batch axis: numpy's 0-d complex arithmetic rounds
    differently from its array loops, so a 1-d call would not match a batch.
    """
    point = tangent.base
    rows = point.as_array()[None], tangent.as_array()[None]
    return float(np.sqrt(hyperbolic_norm_sq_array(point.domain, *rows)[0]))


# ---------------------------------------------------------------------------
# Serialization: complex scalars as "a+bi" strings
# ---------------------------------------------------------------------------

_COMPLEX_GUARD = re.compile(r"^[0-9eEjJ+\-.]*$")


def format_complex(value: complex) -> str:
    """Render a complex number as "a+bi" with up to 15 significant digits.

    A zero part prints as 0, whatever its sign.
    """
    value = complex(value)
    re_part = value.real + 0.0  # normalize -0.0, exactly
    im_part = value.imag + 0.0
    sign = "+" if im_part >= 0 else "-"
    return f"{re_part:.15g}{sign}{abs(im_part):.15g}i"


def parse_complex(text: str) -> complex:
    """Parse "a+bi" style literals; accepts bare reals, "i", "2i", "1-0.5i"."""
    stripped = "".join(text.split())
    if not stripped:
        raise ValueError("empty complex literal")
    normalized = stripped.replace("i", "j").replace("I", "j")
    if not _COMPLEX_GUARD.match(normalized):
        raise ValueError(f"invalid complex literal {text!r}")
    try:
        value = complex(normalized)
    except ValueError as exc:
        raise ValueError(f"invalid complex literal {text!r}") from exc
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ValueError(f"non-finite complex literal {text!r}")
    return value
