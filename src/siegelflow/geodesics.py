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

from dataclasses import dataclass

import numpy as np

from .domains import (
    Domain,
    DomainPoint,
    TangentVector,
    hyperbolic_norm,
)
from .errors import ArityMismatchError, DomainViolation
from .fields import VectorField


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def geodesic_point(param: GeodesicParam, zeta: complex) -> DomainPoint:
    """Point phi_gamma(zeta) on the Siegel half-space."""
    zeta = complex(zeta)
    if zeta.imag <= 0:
        raise DomainViolation(f"geodesic parameter needs Im(zeta) > 0, got {zeta}")
    coords = geodesic_coords(param.gamma_array(), np.asarray(zeta))
    return DomainPoint(Domain.SIEGEL, tuple(coords))


def geodesic_through(point: DomainPoint) -> tuple[GeodesicParam, complex]:
    """Invert phi: the unique (gamma, zeta) with phi_gamma(zeta) = point."""
    if point.domain not in (Domain.SIEGEL, Domain.HALF_PLANE):
        raise DomainViolation("geodesic_through expects a half-space point")
    coords = point.as_array()
    gamma = tuple(coords[1:])
    norm_sq = float(np.sum(np.abs(coords[1:]) ** 2))
    zeta = complex(coords[0] - 1j * norm_sq)
    return GeodesicParam(gamma), zeta


def project(param: GeodesicParam, point: DomainPoint) -> DomainPoint:
    """Affine projection of the half-space onto the geodesic of ``param``."""
    if point.domain not in (Domain.SIEGEL, Domain.HALF_PLANE):
        raise DomainViolation("project expects a half-space point")
    if point.n != param.n:
        raise ArityMismatchError(
            f"point dimension {point.n} != geodesic dimension {param.n}"
        )
    coords = point.as_array()
    gamma = param.gamma_array()
    # One conj(gamma) * gamma product for both terms: on the geodesic z~ is
    # gamma, the bracket is exactly zero and projecting again returns z1.
    bracket = np.sum(np.conj(gamma) * gamma) - np.sum(np.conj(gamma) * coords[1:])
    first = coords[0] + 2j * bracket
    return DomainPoint(Domain.SIEGEL, (complex(first), *param.gamma)) \
        if point.n > 1 else DomainPoint(point.domain, (complex(first),))


def slice_field(field: VectorField, param: GeodesicParam) -> VectorField:
    """One-dimensional field h_gamma(zeta) obtained by slicing along phi_gamma."""
    param.require_dimension(field.dimension)
    gamma = param.gamma_array()

    def evaluator(zetas):
        values = field(geodesic_coords(gamma, zetas[..., 0]))
        return slice_parts(values, gamma)[1][..., None]

    return VectorField(1, evaluator, f"slice[{field.description}]")


def slice_value(field: VectorField, param: GeodesicParam, zeta: complex) -> complex:
    """Value of the slice h_gamma at one half-plane parameter."""
    zeta = complex(zeta)
    if zeta.imag <= 0:
        raise DomainViolation(f"slice parameter needs Im(zeta) > 0, got {zeta}")
    return complex(slice_field(field, param)(np.array([[zeta]]))[0, 0])


def split_tangent(point: DomainPoint, value) -> SliceDecomposition:
    """Decompose one tangent value at ``point`` along the geodesic through it."""
    if point.domain not in (Domain.SIEGEL, Domain.HALF_PLANE):
        raise DomainViolation("split_tangent expects a half-space point")
    value = np.asarray(value, dtype=complex)
    if value.shape != (point.n,):
        raise ArityMismatchError(
            f"value shape {value.shape} != point dimension {point.n}"
        )
    inner, sliced = slice_parts(value, point.as_array()[1:])
    slice_val = complex(sliced)
    tangential = (slice_val,) + (0j,) * (point.n - 1)
    orthogonal = (complex(2j * inner),) + tuple(value[1:])
    return SliceDecomposition(
        base=point,
        tangential=tangential,
        orthogonal=orthogonal,
        slice_value=slice_val,
    )


def decompose(field: VectorField, point: DomainPoint) -> SliceDecomposition:
    """Split the field value H(point) along the geodesic through the point."""
    values = field(point.as_array())
    return split_tangent(point, values)


def tangential_norm(decomposition: SliceDecomposition) -> float:
    """Hyperbolic length of the tangential part: |slice value| / |u|."""
    return hyperbolic_norm(
        TangentVector(decomposition.base, decomposition.tangential)
    )


def orthogonal_norm(decomposition: SliceDecomposition) -> float:
    """Hyperbolic length of the orthogonal part: 2 ||H~|| / sqrt(|u|)."""
    return hyperbolic_norm(
        TangentVector(decomposition.base, decomposition.orthogonal)
    )
