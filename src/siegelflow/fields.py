"""Holomorphic vector fields: parsing, built-ins, measures, transport.

A :class:`VectorField` is an evaluatable holomorphic map z -> C^n with one
uniform array interface: calling it on an array of shape (..., n) returns the
component values with the same shape.  Fields are used both as infinitesimal
generators (autonomous and Loewner-type flows) and as self-maps.

Built-in fields:

* ``example1``     H(z) = (0, -i z2/z1) on the two-dimensional half-space;
  every slice has finite capacity but no uniform bound exists.
* ``example2``     H(z) = (-1/z1, z2/(2 z1^2)); uniformly bounded generator.
* ``reciprocal``   H(z) = -1/z on the half-plane, the Cauchy transform of a
  unit point mass at the origin.

``cauchy_transform`` realizes H(z) = sum_k m_k/(u_k - z) for a finitely
supported positive measure on the real line; ``berkson_porta`` builds disc
generators G(z) = (tau - z)(1 - conj(tau) z) p(z) from a boundary point and a
Herglotz factor p.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import expressions
from ._records import record
from .domains import DomainPoint, cayley_siegel_coords, push_tangent_to_ball
from .errors import (
    ArityMismatchError,
    FieldEvaluationError,
    HalfPlaneConditionWarning,
)


class VectorField:
    """An evaluatable holomorphic map z -> C^n.

    A flow map's image of a point is bit-identical in any batch only when the
    evaluator applies the same numpy operations to each row, whatever the
    batch size, into contiguous temporaries.  Writing a result through a
    strided ``out=`` view may make numpy pick another loop, and with it
    other bits, for some batch sizes.
    """

    def __init__(self, dimension: int, evaluator, description: str = "field"):
        if dimension < 1:
            raise ArityMismatchError("field dimension must be >= 1")
        self.dimension = dimension
        self._evaluator = evaluator
        self.description = description

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on points of shape (..., n); no finiteness check.

        A direct call follows numpy's current error state, so a singular
        point may emit a RuntimeWarning.  The package's numeric entry points
        (eval_field, the flow integrators, the analysis scans, the verify
        suites and cli.main) each hold ``np.errstate(all="ignore")`` around
        their evaluations and report non-finite values through their own
        checks.
        """
        points = np.asarray(points, dtype=complex)
        if points.shape[-1] != self.dimension:
            raise ArityMismatchError(
                f"points have dimension {points.shape[-1]}, "
                f"field expects {self.dimension}"
            )
        return self._evaluator(points)

    def __repr__(self):
        return f"VectorField(n={self.dimension}, {self.description})"


def eval_field(field: VectorField, point: DomainPoint) -> tuple[complex, ...]:
    """Evaluate at an interior point, demanding a finite result."""
    if point.n != field.dimension:
        raise ArityMismatchError(
            f"point dimension {point.n} != field dimension {field.dimension}"
        )
    with np.errstate(all="ignore"):
        values = field(point.as_array())
    if not np.all(np.isfinite(values)):
        raise FieldEvaluationError(
            f"{field.description} is singular at {point.coords}"
        )
    return tuple(complex(v) for v in values)


def _from_components(components, dimension, description):
    programs = [expressions.compile_expression(comp) for comp in components]

    def evaluator(points):
        shape = points.shape[:-1]
        out = np.empty(shape + (dimension,), dtype=complex)
        for k, program in enumerate(programs):
            # expressions.evaluate stays the one entry point into the
            # expression layer, where the bench tracer times it.
            out[..., k] = expressions.evaluate(program, points)
        return out

    return VectorField(dimension, evaluator, description)


def parse_field(text: str, dimension: int | None = None) -> VectorField:
    """Parse a semicolon-separated component list into a field."""
    components = expressions.parse_components(text, dimension)
    canonical = expressions.field_to_text(components)
    return _from_components(components, len(components), canonical)


def zero_field(dimension: int) -> VectorField:
    def evaluator(points):
        return np.zeros(points.shape, dtype=complex)

    return VectorField(dimension, evaluator, "0")


def example1() -> VectorField:
    """H(z) = (0, -i z2/z1): slice capacities 2|gamma|^2, unbounded over gamma."""

    def evaluator(points):
        out = np.empty(points.shape, dtype=complex)
        out[..., 0] = 0.0
        out[..., 1] = -1j * points[..., 1] / points[..., 0]
        return out

    return VectorField(2, evaluator, "(0, -i*z2/z1)")


def example2() -> VectorField:
    """H(z) = (-1/z1, z2/(2 z1^2)): a uniformly bounded generator."""
    # 0-d complex operands: numpy would convert a Python float and cast it to
    # complex in every call, to these same numbers, for the same loops.
    minus_one, two = np.array(-1.0 + 0j), np.array(2.0 + 0j)

    def evaluator(points):
        out = np.empty(points.shape, dtype=complex)
        z1 = points[..., 0]
        out[..., 0] = minus_one / z1
        out[..., 1] = points[..., 1] / (two * z1 * z1)
        return out

    return VectorField(2, evaluator, "(-1/z1, z2/(2*z1^2))")


def reciprocal_1d() -> VectorField:
    """H(z) = -1/z, the Cauchy transform of the unit point mass at 0."""

    def evaluator(points):
        return -1.0 / points

    return VectorField(1, evaluator, "-1/z")


_BUILTINS = {
    "example1": example1,
    "example2": example2,
    "reciprocal": reciprocal_1d,
}


def builtin(name: str) -> VectorField:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown built-in field {name!r}; available: {sorted(_BUILTINS)}"
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# Measures and Cauchy transforms
# ---------------------------------------------------------------------------

@record
class DiscreteMeasure:
    """Finitely many point masses m_k >= 0 at real locations u_k."""

    atoms: tuple[tuple[float, float], ...]  # (location, mass) pairs

    def __post_init__(self):
        atoms = tuple((float(u), float(m)) for u, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for u, m in atoms:
            if not (np.isfinite(u) and np.isfinite(m)):
                raise ValueError("measure atoms must be finite")
            if m < 0:
                raise ValueError(f"negative mass {m} at {u}")

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))


def cauchy_transform(measure: DiscreteMeasure) -> VectorField:
    """H(z) = sum_k m_k / (u_k - z); maps the half-plane into its closure.

    The total mass is the capacity of the field: the smallest c with
    |H(z)| <= c / Im(z).
    """
    locations = np.array([u for u, _ in measure.atoms], dtype=float)
    masses = np.array([m for _, m in measure.atoms], dtype=float)

    def evaluator(points):
        z = points[..., 0]
        if locations.size == 0:
            return np.zeros(points.shape, dtype=complex)
        values = np.sum(masses / (locations - z[..., None]), axis=-1)
        return values[..., None]

    return VectorField(1, evaluator, f"cauchy({len(measure.atoms)} atoms)")


# ---------------------------------------------------------------------------
# Disc generators
# ---------------------------------------------------------------------------

_HERGLOTZ_SAMPLES = 100
_HERGLOTZ_SEED = 20210


def berkson_porta(tau: complex, p: VectorField) -> VectorField:
    """Disc generator G(z) = (tau - z)(1 - conj(tau) z) p(z).

    G generates a continuous semigroup of disc self-maps exactly when
    Re p >= 0 on the disc; the factor p is spot-checked on 100 seeded
    interior points and a HalfPlaneConditionWarning is emitted if a sampled
    real part drops below -1e-12.
    """
    tau = complex(tau)
    if abs(tau) > 1.0 + 1e-12:
        raise ValueError(f"tau must lie in the closed disc, got |tau|={abs(tau)}")
    if p.dimension != 1:
        raise ArityMismatchError("the Herglotz factor p must be one-dimensional")

    rng = np.random.default_rng(_HERGLOTZ_SEED)
    radii = 0.97 * np.sqrt(rng.uniform(0.0, 1.0, _HERGLOTZ_SAMPLES))
    angles = rng.uniform(0.0, 2.0 * np.pi, _HERGLOTZ_SAMPLES)
    samples = (radii * np.exp(1j * angles))[:, None]
    with np.errstate(all="ignore"):
        sampled = p(samples)[..., 0]
    worst = float(np.min(sampled.real))
    if worst < -1e-12:
        warnings.warn(
            f"Re p reached {worst:.3e} < 0 on sampled disc points; "
            "G may not be an infinitesimal generator",
            HalfPlaneConditionWarning,
            stacklevel=2,
        )

    def evaluator(points):
        z = points[..., 0]
        pv = p(points)[..., 0]
        values = (tau - z) * (1.0 - np.conj(tau) * z) * pv
        return values[..., None]

    return VectorField(1, evaluator, f"berkson_porta(tau={tau})")


# ---------------------------------------------------------------------------
# Cayley transport of fields
# ---------------------------------------------------------------------------

def pushforward_to_ball(field: VectorField) -> VectorField:
    """Carry a half-space field H to the ball: G(w) = dC(z) H(z), z = C^{-1}(w)."""

    def evaluator(points):
        z = cayley_siegel_coords(points)
        values = field(z)
        return push_tangent_to_ball(z, values)

    return VectorField(field.dimension, evaluator, f"ball[{field.description}]")
