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

import functools
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

    The flow kernel writes the field at points (m, n) into out (m, n), a
    transposed view of one of its component-major stage slots.  Each
    integration starts with one checked call, ``_copy_call(points, out)``:
    it calls the field, so ``__call__`` checks the dimension; it converts a
    list or a real result to complex, raises FieldEvaluationError on a
    result of any other shape, and copies the result into out.  Every later
    stage goes through ``_fill(points, out)``.  Every field this module
    builds has its own ``_formula(points, out)``, which ``_fill`` runs: it
    assigns each component's contiguous temporary to its column of out, and
    the field's evaluator computes the same values on a fresh (..., n)
    array, so its stages skip ``__call__``.  A field built as
    ``VectorField(dimension, evaluator)`` has no formula, and ``_fill``
    makes the checked call for it.
    """

    _formula = None  # an in-place formula (11-16% on six proxies, README)

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
        self._check_points(points)
        return self._evaluator(points)

    def _check_points(self, points: np.ndarray) -> None:
        """Raise ArityMismatchError unless points have shape (..., n)."""
        if points.shape[-1] != self.dimension:
            raise ArityMismatchError(
                f"points have dimension {points.shape[-1]}, "
                f"field expects {self.dimension}"
            )

    def _fill(self, points: np.ndarray, out: np.ndarray) -> None:
        """Write the field at points (m, n) into out (m, n); no finiteness check."""
        if self._formula is None:
            self._copy_call(points, out)
        else:
            self._formula(points, out)

    def _copy_call(self, points: np.ndarray, out: np.ndarray) -> None:
        """Copy the checked call self(points) into out (m, n); no finiteness check."""
        k = np.asarray(self(points), dtype=complex)
        if k.shape != out.shape:
            raise FieldEvaluationError(f"field returned shape {k.shape}, expected {out.shape}")
        out[...] = k

    def __repr__(self):
        return f"VectorField(n={self.dimension}, {self.description})"


def eval_field(field: VectorField, point: DomainPoint) -> tuple[complex, ...]:
    """Evaluate at an interior point, demanding a finite result.

    The point is one row that keeps its batch axis: numpy's 0-d complex
    arithmetic rounds differently from its array loops, so a 1-d call would
    not match the point's row in a batch.
    """
    with np.errstate(all="ignore"):
        values = field(point.as_array()[None])[0]
    if not np.all(np.isfinite(values)):
        raise FieldEvaluationError(
            f"{field.description} is singular at {point.coords}"
        )
    return tuple(complex(v) for v in values)


def _from_components(components, dimension, description):
    columns = tuple(enumerate(expressions.compile_expression(comp) for comp in components))

    def evaluator(points):
        out = np.empty(points.shape, dtype=complex)
        for k, program in columns:
            # A call enters the expression layer through expressions.evaluate,
            # where the bench tracer times it; the stage fills below do not.
            out[..., k] = expressions.evaluate(program, points)
        return out

    def formula(points, out):
        for k, program in columns:
            out[..., k] = program(points)

    field = VectorField(dimension, evaluator, description)
    field._formula = formula
    return field


def parse_field(text: str, dimension: int | None = None) -> VectorField:
    """Parse a semicolon-separated component list into a field."""
    components = expressions.parse_components(text, dimension)
    canonical = expressions.field_to_text(components)
    return _from_components(components, len(components), canonical)


def _formula_field(dimension: int, formula, description: str) -> VectorField:
    """A field whose evaluator and stage fills both run formula(points, out).

    A formula that reads another field fills that field in place too.  The
    evaluator takes the formula's qualified name, such as
    ``example2.<locals>.formula``, whose first part the bench tracer reads
    to book the field's calls as built-in.
    """
    @functools.wraps(formula)
    def evaluator(points):
        out = np.empty(points.shape, dtype=complex)
        formula(points, out)
        return out

    field = VectorField(dimension, evaluator, description)
    field._formula = formula
    return field


def zero_field(dimension: int) -> VectorField:
    def formula(points, out):
        out[...] = 0.0

    return _formula_field(dimension, formula, "0")


def example1() -> VectorField:
    """H(z) = (0, -i z2/z1): slice capacities 2|gamma|^2, unbounded over gamma."""

    minus_i = np.array(-1j)  # 0-d complex, as in example2

    def formula(points, out):
        out[..., 0] = 0.0
        out[..., 1] = minus_i * points[..., 1] / points[..., 0]

    return _formula_field(2, formula, "(0, -i*z2/z1)")


def example2() -> VectorField:
    """H(z) = (-1/z1, z2/(2 z1^2)): a uniformly bounded generator."""
    # 0-d complex operands: numpy would convert a Python float and cast it to
    # complex in every call, to these same numbers, for the same loops (V, G,
    # I and A 4-7% in process, README).
    minus_one, two = np.array(-1.0 + 0j), np.array(2.0 + 0j)

    def formula(points, out):
        z1 = points[..., 0]
        out[..., 0] = minus_one / z1
        out[..., 1] = points[..., 1] / (two * z1 * z1)

    return _formula_field(2, formula, "(-1/z1, z2/(2*z1^2))")


def reciprocal_1d() -> VectorField:
    """H(z) = -1/z, the Cauchy transform of the unit point mass at 0."""
    minus_one = np.array(-1.0 + 0j)  # 0-d complex, as in example2

    def formula(points, out):
        out[...] = minus_one / points

    return _formula_field(1, formula, "-1/z")


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
    locations = np.array([u for u, _ in measure.atoms])
    masses = np.array([m for _, m in measure.atoms])

    def formula(points, out):
        # The sum over no atoms is numpy's +0: the empty measure's field is 0.
        z = points[..., 0]
        out[..., 0] = np.add.reduce(masses / (locations - z[..., None]), axis=-1)

    return _formula_field(1, formula, f"cauchy({len(measure.atoms)} atoms)")


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

    tau_bar = tau.conjugate()
    fill_p = p._fill

    def formula(points, out):
        z = points[..., 0]
        fill_p(points, out)  # p(z), multiplied in last
        out[..., 0] = (tau - z) * (1.0 - tau_bar * z) * out[..., 0]

    return _formula_field(1, formula, f"berkson_porta(tau={tau})")


# ---------------------------------------------------------------------------
# Cayley transport of fields
# ---------------------------------------------------------------------------

def pushforward_to_ball(field: VectorField) -> VectorField:
    """Carry a half-space field H to the ball: G(w) = dC(z) H(z), z = C^{-1}(w)."""

    def formula(points, out):
        z = cayley_siegel_coords(points)
        values = np.empty(z.shape, dtype=complex)
        field._fill(z, values)
        out[...] = push_tangent_to_ball(z, values)

    return _formula_field(field.dimension, formula, f"ball[{field.description}]")
