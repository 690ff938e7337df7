"""Normalized geodesics, holomorphic slices, and the tangent decomposition.

For gamma in C^{n-1} the map

    phi_gamma(zeta) = (zeta + i ||gamma||^2, gamma),   Im(zeta) > 0,

parametrizes the complex geodesic of the Siegel half-space through gamma
whose closure meets the distinguished boundary point at infinity.  The
normalization is chosen so that u(phi_gamma(zeta)) = -Im(zeta): the geodesic
parameter sees the half-plane Poisson kernel exactly.

The associated Lempert-style projection is affine,

    P(z1, z~) = (z1 - 2i <z~, gamma> + 2i ||gamma||^2, gamma),

writing <a, b> = conj(b)^T a.  A field H restricted to a geodesic produces
the holomorphic slice

    h_gamma(zeta) = H1(phi_gamma(zeta)) - 2i <H~(phi_gamma(zeta)), gamma>,

a one-dimensional field on the half-plane.  At any interior z the value H(z)
splits into a part tangent to the geodesic through z and its metric-orthogonal
complement:

    tangential = (H1 - 2i <H~, z~>, 0),    orthogonal = (2i <H~, z~>, H~),

whose hyperbolic lengths are |slice|/|u| and 2 ||H~|| / sqrt(|u|).
"""

from __future__ import annotations


import numpy as np

from ._records import record
from .domains import Domain, DomainPoint
from .errors import ArityMismatchError, DomainViolation, FieldEvaluationError
from .fields import VectorField


@record
class GeodesicParam:
    """Parameter gamma of a normalized geodesic through infinity."""

    gamma: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(complex(g) for g in self.gamma))

    @property
    def n(self) -> int:
        return len(self.gamma) + 1

    def gamma_array(self) -> np.ndarray:
        return np.array(self.gamma, dtype=complex)

    def require_dimension(self, dimension: int) -> None:
        """Raise unless a field of this dimension can be sliced along gamma."""
        if dimension != self.n:
            raise ArityMismatchError(
                f"field dimension {dimension} != geodesic dimension {self.n}"
            )


@record
class SliceDecomposition:
    """Split of a field value at z into geodesic-tangent and normal parts."""

    base: DomainPoint
    tangential: tuple[complex, ...]
    orthogonal: tuple[complex, ...]
    slice_value: complex


def geodesic_coords(gamma: np.ndarray, zetas: np.ndarray) -> np.ndarray:
    """phi_gamma on arrays: gamma (..., n-1) broadcast against zetas -> (..., n).

    A single gamma of shape (n-1,) maps zetas of shape (...,) to (..., n); a
    stack of shape (G, 1, n-1) maps zetas of shape (m,) to (G, m, n).
    """
    gamma = np.asarray(gamma, dtype=complex)
    zetas = np.asarray(zetas, dtype=complex)
    first = zetas + 1j * np.sum(np.abs(gamma) ** 2, axis=-1)
    out = np.empty(first.shape + (gamma.shape[-1] + 1,), dtype=complex)
    out[..., 0] = first
    out[..., 1:] = gamma
    return out


def slice_parts(values: np.ndarray, directions: np.ndarray):
    """<H~, d> and H1 - 2i <H~, d> for values H of shape (..., n).

    d broadcasts against H~: gamma for a slice, z~ for the split at z.
    """
    inner = np.sum(np.conj(directions) * values[..., 1:], axis=-1)
    return inner, values[..., 0] - 2j * inner


def geodesic_params(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert phi on arrays: coords (..., n) -> gammas (..., n-1), zetas (...)."""
    coords = np.asarray(coords, dtype=complex)
    gammas = coords[..., 1:]
    zetas = coords[..., 0] - 1j * np.sum(np.abs(gammas) ** 2, axis=-1)
    return gammas, zetas


def project_coords(gammas: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Affine projection P on arrays: gammas (..., n-1) against coords (..., n)."""
    gammas = np.asarray(gammas, dtype=complex)
    coords = np.asarray(coords, dtype=complex)
    # One conj(gamma) * gamma product for both terms: on the geodesic z~ is
    # gamma, the bracket is exactly zero and projecting again returns z1.
    bracket = np.sum(np.conj(gammas) * gammas, axis=-1) - np.sum(
        np.conj(gammas) * coords[..., 1:], axis=-1
    )
    first = coords[..., 0] + 2j * bracket
    out = np.empty(first.shape + coords.shape[-1:], dtype=complex)
    out[..., 0] = first
    out[..., 1:] = gammas
    return out


def split_tangent_array(coords: np.ndarray, values: np.ndarray):
    """Tangential and orthogonal parts of values H at points z, both (..., n).

    tangential = (H1 - 2i <H~, z~>, 0) and orthogonal = (2i <H~, z~>, H~).
    """
    coords = np.asarray(coords, dtype=complex)
    values = np.asarray(values, dtype=complex)
    inner, sliced = slice_parts(values, coords[..., 1:])
    tangential = np.zeros(sliced.shape + values.shape[-1:], dtype=complex)
    tangential[..., 0] = sliced
    orthogonal = values.copy()
    orthogonal[..., 0] = 2j * inner
    return tangential, orthogonal


def project(param: GeodesicParam, point: DomainPoint) -> DomainPoint:
    """Affine projection of the half-space onto the geodesic of ``param``."""
    if point.domain not in (Domain.SIEGEL, Domain.HALF_PLANE):
        raise DomainViolation("project expects a half-space point")
    if point.n != param.n:
        raise ArityMismatchError(
            f"point dimension {point.n} != geodesic dimension {param.n}"
        )
    coords = project_coords(param.gamma_array(), point.as_array())
    domain = Domain.SIEGEL if point.n > 1 else point.domain
    return DomainPoint(domain, tuple(coords))


def slice_field(field: VectorField, param: GeodesicParam) -> VectorField:
    """One-dimensional field h_gamma(zeta) obtained by slicing along phi_gamma."""
    param.require_dimension(field.dimension)
    gamma = param.gamma_array()

    def evaluator(zetas):
        values = field(geodesic_coords(gamma, zetas[..., 0]))
        return slice_parts(values, gamma)[1][..., None]

    return VectorField(1, evaluator, f"slice[{field.description}]")


def slice_value(field: VectorField, param: GeodesicParam, zeta: complex) -> complex:
    """Value of the slice h_gamma at one half-plane parameter; must be finite."""
    zeta = complex(zeta)
    if zeta.imag <= 0:
        raise DomainViolation(f"slice parameter needs Im(zeta) > 0, got {zeta}")
    sliced = slice_field(field, param)
    with np.errstate(all="ignore"):
        value = complex(sliced(np.array([[zeta]]))[0, 0])
    if not np.isfinite(value):
        raise FieldEvaluationError(
            f"{sliced.description} is not finite at zeta = {zeta}, gamma = {param.gamma}"
        )
    return value


def split_tangent(point: DomainPoint, value) -> SliceDecomposition:
    """Decompose one tangent value at ``point`` along the geodesic through it."""
    if point.domain not in (Domain.SIEGEL, Domain.HALF_PLANE):
        raise DomainViolation("split_tangent expects a half-space point")
    value = np.asarray(value, dtype=complex)
    if value.shape != (point.n,):
        raise ArityMismatchError(
            f"value shape {value.shape} != point dimension {point.n}"
        )
    tangential, orthogonal = split_tangent_array(point.as_array(), value)
    return SliceDecomposition(
        base=point,
        tangential=tuple(tangential),
        orthogonal=tuple(orthogonal),
        slice_value=complex(tangential[0]),
    )


def decompose(field: VectorField, point: DomainPoint) -> SliceDecomposition:
    """Split the field value H(point) along the geodesic through the point."""
    with np.errstate(all="ignore"):
        values = field(point.as_array())
    return split_tangent(point, values)
