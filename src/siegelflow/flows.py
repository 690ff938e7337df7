"""Flow integration for semigroup and Loewner-type evolution equations.

The autonomous problem is dw/dt = G(w), w(0) = z0, whose solutions form the
one-parameter semigroup generated by G; the non-autonomous variant swaps in a
piecewise-constant-in-time field.  The integrator is the adaptive embedded
Dormand-Prince 4(5) pair with FSAL and PI step-size control.  The tolerance
is interpreted as local error per unit time, so endpoint errors scale
roughly linearly in ``tol`` for smooth fields.

A batch of points runs through one stage kernel with per-point step control:
every point keeps its own time, step size and controller state, and stages
are evaluated only on the points still in flight.  A point's result is
therefore bit-identical whether it is integrated alone or in any batch.

The kernel stores a batch of m points in n dimensions component-major: the
state as an (n, m) array and the seven stages as one (7, n, m) buffer, both
contiguous, so the per-point reductions (finiteness, error norm, starting
step) run along a leading axis.  A field still receives its points as an
(m, n) array, but that array is the transposed view of the (n, m) state and
is not contiguous; it must return an (m, n) result.

Trajectories must stay inside their domain: a step whose endpoint leaves the
interior (margin <= 1e-12) is rejected and retried at half the step size, and
sixty consecutive rejections raise StepSizeUnderflow.  For fields in the
chordal classes this only happens when something is genuinely wrong, since
their flows increase |u| and therefore move away from the boundary.

Everything here is deterministic: identical inputs produce bit-identical
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import CAPACITY_DEFAULTS, CapacityEstimate, estimate_capacity_1d
from .domains import (
    INTERIOR_MARGIN,
    Domain,
    DomainPoint,
    TangentVector,
    format_complex,
    hyperbolic_norm,
    interior_margin,
    poisson,
    poisson_values,
)
from .errors import (
    BoundViolation,
    CoverageGap,
    DomainViolation,
    FieldEvaluationError,
    MonotonicityViolation,
    StepSizeUnderflow,
)
from .fields import VectorField
from .grids import HOROSPHERE_SAMPLES_V1, horosphere_samples

DEFAULT_TOL = 1e-10

# --- Dormand-Prince 4(5) tableau ------------------------------------------

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Difference between the 5th- and 4th-order weights; the 7th stage is FSAL.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_MAX_CONSECUTIVE_REJECTS = 60
_STEP_GROW_CAP = 5.0
_STEP_SHRINK_CAP = 0.2


class _Segment:
    """One integration leg: final rows, counters and a recorded row's nodes."""

    __slots__ = ("times", "states", "derivs", "accepted", "rejected", "max_error", "y")

    def __init__(self) -> None:
        self.times: list[float] = []
        self.states: list[np.ndarray] = []
        self.derivs: list[np.ndarray] = []
        self.accepted = 0
        self.rejected = 0
        self.max_error = 0.0
        self.y: np.ndarray | None = None

    def record(self, t: float, y: np.ndarray, k: np.ndarray) -> None:
        """Keep row 0 of the component-major state y and stage k, both (n, m)."""
        self.times.append(t)
        self.states.append(y[:, 0])
        self.derivs.append(k[:, 0].copy())


def _check_time_and_tol(t: float, tol: float = DEFAULT_TOL) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _eval_checked(eval_fn, y: np.ndarray) -> np.ndarray:
    """The field at the component-major rows y (n, m), also (n, m).

    The evaluator sees the (m, n) points as the transposed view y.T, which
    is not contiguous, and must return an (m, n) result.
    """
    points = y.T
    k = np.asarray(eval_fn(points), dtype=complex)
    if k.shape != points.shape:
        raise FieldEvaluationError(
            f"field returned shape {k.shape}, expected {points.shape}"
        )
    return k.T


def _weights(row) -> tuple:
    """A tableau row's nonzero weights: (j, w) pairs, stage selector, column."""
    pairs = tuple((j, a) for j, a in enumerate(row) if a != 0.0)
    stages = [j for j, _ in pairs]
    contiguous = stages == list(range(len(stages)))
    select = slice(0, len(stages)) if contiguous else np.array(stages)
    return pairs, select, np.array([a for _, a in pairs])[:, None, None]


_STAGE_WEIGHTS = tuple(_weights(row) for row in _A[1:])
_ERROR_WEIGHTS = _weights(_E)

# Stages of at most this many numbers (n * m) sum faster in one running-sum
# call than in a loop of in-place additions.  On (7, n, m) stage buffers
# (n = 1 and 2, numpy 2.4.6, 2-core VM) the two cross near 80-112 numbers.
# Both add the same terms in the same order, so their sums are identical.
_RUNNING_SUM_SIZE = 64


def _combine(ks: np.ndarray, weights) -> np.ndarray:
    """sum_j w_j ks[j], summed elementwise and left to right over the stages.

    The fixed order of the additions makes each row's result independent of
    the other rows; a BLAS contraction would not guarantee that.
    """
    pairs, select, column = weights
    if ks.shape[1] * ks.shape[2] <= _RUNNING_SUM_SIZE:
        return np.add.accumulate(ks[select] * column, axis=0)[-1]
    (j, w), *rest = pairs
    acc = ks[j] * w
    for j, w in rest:
        acc += ks[j] * w
    return acc


def _stages(eval_fn, y: np.ndarray, ks: np.ndarray, h) -> np.ndarray:
    """Fill stages 1-6 of one Dormand-Prince step from rows y; return y_new.

    Everything is component-major: ``y`` is (n, m) and ``ks`` (7, n, m)
    holds the field at y in ks[0]; ``h`` is a scalar or one step per row,
    (m,).  ks[6] is the field at y_new (FSAL).
    """
    for i, weights in enumerate(_STAGE_WEIGHTS, 1):
        y_i = _combine(ks, weights)
        y_i *= h
        y_i += y
        ks[i] = _eval_checked(eval_fn, y_i)
    return y_i


def _advance(
    eval_fn,
    domain: Domain,
    y0: np.ndarray,
    t0: float,
    t1: float,
    tol: float,
    record: bool = False,
) -> _Segment:
    """Integrate dy/dt = eval_fn(y) from t0 to t1 with EPUS error control.

    Each row of y0, shape (m, n), has its own time, step size, PI state and
    rejection count, and leaves the stage arrays once it reaches t1, so its
    result does not depend on the other rows.  Any failing row fails the
    call.  ``record`` keeps the accepted nodes of a single row (m = 1).
    The state is held component-major (module docstring); ``seg.y`` is
    (m, n) again.
    """
    seg = _Segment()
    y = np.array(np.asarray(y0, dtype=complex).T, order="C")
    n, m = y.shape
    buffer = np.empty(7 * n * m, dtype=complex)
    ks = buffer.reshape(7, n, m)
    ks[0] = _eval_checked(eval_fn, y)
    if not np.isfinite(ks[0]).all():
        raise FieldEvaluationError("field is not finite at the initial point")
    if record:
        seg.record(t0, y, ks[0])
    floor = 1e-15 * max(1.0, abs(t0), abs(t1))
    if t0 >= t1 - floor:
        seg.y = y.T.copy()
        return seg

    out = np.empty((m, n), dtype=complex)
    rows = np.arange(m)
    d0 = np.maximum(np.abs(y).max(axis=0), 1e-6)
    d1 = np.maximum(np.abs(ks[0]).max(axis=0), 1e-16)
    h = np.minimum(t1 - t0, 0.01 * d0 / d1)
    t = np.full(m, float(t0))
    r_prev = np.ones(m)
    consecutive = np.zeros(m, dtype=int)

    with np.errstate(all="ignore"):
        while True:
            if (h < floor).any():
                k = int(np.argmax(h < floor))
                raise StepSizeUnderflow(
                    f"step size underflow at t = {t[k]} (h = {h[k]:.3e})"
                )
            remaining = t1 - t
            last = h >= remaining * (1.0 - 1e-12)
            h_step = np.where(last, remaining, h)
            y_new = _stages(eval_fn, y, ks, h_step)

            # ks[0] is finite: checked above, or carried from an accepted step.
            inside = (np.isfinite(ks[1:]).all(axis=(0, 1))
                      & np.isfinite(y_new).all(axis=0)
                      & (interior_margin(domain, y_new.T) > INTERIOR_MARGIN))
            err = np.abs(_combine(ks, _ERROR_WEIGHTS)).max(axis=0)
            accept = inside & (err <= tol)

            r = np.maximum(err / tol, 1e-10)
            fac = np.maximum(_STEP_SHRINK_CAP, 0.9 * r**-0.175 * r_prev**0.1)
            h_grow = h_step * np.minimum(_STEP_GROW_CAP, fac)
            t_new = np.where(last, t1, t + h_step)
            if accept.all():
                t, y, h, r_prev = t_new, y_new, h_grow, r
                ks[0] = ks[6]
                consecutive[:] = 0
                seg.accepted += rows.size
                seg.max_error = max(seg.max_error, float(err.max()))
                if record:
                    seg.record(float(t[0]), y, ks[0])
            else:
                h_shrink = h_step * np.maximum(0.1, 0.9 * r**-0.25)
                h = np.where(accept, h_grow, np.where(inside, h_shrink, 0.5 * h_step))
                t = np.where(accept, t_new, t)
                y = np.where(accept, y_new, y)
                ks[0] = np.where(accept, ks[6], ks[0])
                r_prev = np.where(accept, r, r_prev)
                consecutive = np.where(accept, 0, consecutive + 1)
                n_accepted = int(np.count_nonzero(accept))
                seg.accepted += n_accepted
                seg.rejected += rows.size - n_accepted
                seg.max_error = max(seg.max_error, float(err[accept].max(initial=0.0)))
                if (consecutive >= _MAX_CONSECUTIVE_REJECTS).any():
                    k = int(np.argmax(consecutive))
                    cause = ("error control failed" if inside[k]
                             else "trajectory left the domain")
                    raise StepSizeUnderflow(
                        f"{cause} near t = {t[k]}; "
                        f"{consecutive[k]} consecutive rejections"
                    )

            done = t >= t1 - floor
            if done.all():
                out[rows] = y.T
                break
            if done.any():
                out[rows[done]] = y[:, done].T
                keep = ~done
                rows, t, h, r_prev, consecutive = (
                    a[keep] for a in (rows, t, h, r_prev, consecutive)
                )
                y = y[:, keep]
                # Only ks[0] carries over; shrink the stage buffer in place,
                # keeping it contiguous over the first 7 * n * rows numbers.
                ks0 = ks[0][:, keep]
                ks = buffer[:7 * n * rows.size].reshape(7, n, rows.size)
                ks[0] = ks0
    seg.y = out
    return seg


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted integration nodes of one flow line, with diagnostics."""

    domain: Domain
    times: np.ndarray    # (N,), increasing, times[0] = 0
    states: np.ndarray   # (N, n) complex coordinates, all interior
    derivs: np.ndarray   # (N, n) field values at the nodes
    steps_accepted: int
    steps_rejected: int
    max_local_error: float
    tol: float

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def final_point(self) -> DomainPoint:
        return DomainPoint(self.domain, tuple(self.states[-1]))

    def u_values(self) -> np.ndarray:
        return poisson_values(self.domain, self.states)

    def sample(self, ts) -> np.ndarray:
        """Cubic Hermite interpolation at the requested times, shape (..., n)."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.times[0], self.times[-1]
        if np.any(ts < lo) or np.any(ts > hi):
            raise ValueError(f"sample times must lie in [{lo}, {hi}]")
        idx = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0,
                      len(self.times) - 2)
        t0 = self.times[idx]
        h = self.times[idx + 1] - t0
        s = ((ts - t0) / h)[..., None]
        y0, y1 = self.states[idx], self.states[idx + 1]
        f0, f1 = self.derivs[idx], self.derivs[idx + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * y0 + h10 * h[..., None] * f0 + h01 * y1 + h11 * h[..., None] * f1

    def to_csv(self, path) -> None:
        """Write `t, re(z1), im(z1), ..., u` rows for external plotting."""
        n = self.dimension
        header = ["t"]
        for k in range(1, n + 1):
            header += [f"re_z{k}", f"im_z{k}"]
        header.append("u")
        us = self.u_values()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            for t, row, u in zip(self.times, self.states, us):
                cells = [f"{t:.17g}"]
                for value in row:
                    cells += [f"{value.real:.17g}", f"{value.imag:.17g}"]
                cells.append(f"{u:.17g}")
                handle.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Public integrators
# ---------------------------------------------------------------------------

def _flow_line(pieces, z0: DomainPoint, t_final: float, tol: float) -> Trajectory:
    """Flow z0 through consecutive constant-field pieces clipped to [0, t_final].

    The first piece always runs, even when empty, so node 0 comes from the
    checked field evaluation at z0.  Each later piece restarts at the
    previous endpoint and drops its first node, which repeats that endpoint.
    """
    y = z0.as_array()[None, :]
    segments = []
    for t_start, t_end, field in pieces:
        start, stop = max(t_start, 0.0), min(t_end, t_final)
        if segments and stop <= start:
            continue
        seg = _advance(field, z0.domain, y, start, stop, tol, record=True)
        if segments:
            del seg.times[0], seg.states[0], seg.derivs[0]
        segments.append(seg)
        y = seg.y
    return Trajectory(
        domain=z0.domain,
        times=np.asarray([t for seg in segments for t in seg.times], dtype=float),
        states=np.asarray([row for seg in segments for row in seg.states], dtype=complex),
        derivs=np.asarray([row for seg in segments for row in seg.derivs], dtype=complex),
        steps_accepted=sum(seg.accepted for seg in segments),
        steps_rejected=sum(seg.rejected for seg in segments),
        max_local_error=max(seg.max_error for seg in segments),
        tol=tol,
    )


def integrate_autonomous(
    field: VectorField,
    z0: DomainPoint,
    t_final: float,
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Flow z0 forward for time t_final along the autonomous field."""
    _check_time_and_tol(t_final, tol)
    if field.dimension != z0.n:
        raise DomainViolation(
            f"field dimension {field.dimension} does not match point {z0.n}"
        )
    return _flow_line(((0.0, t_final, field),), z0, t_final, tol)


@dataclass(frozen=True)
class HerglotzField:
    """Piecewise-constant-in-time driving field on contiguous intervals."""

    pieces: tuple[tuple[float, float, VectorField], ...]

    def __post_init__(self):
        if not self.pieces:
            raise CoverageGap("a Herglotz field needs at least one piece")
        previous_end = None
        dimension = self.pieces[0][2].dimension
        for t_start, t_end, field in self.pieces:
            if not (t_end > t_start):
                raise CoverageGap(f"empty piece [{t_start}, {t_end}]")
            if field.dimension != dimension:
                raise CoverageGap("pieces have mismatched dimensions")
            if previous_end is not None and abs(t_start - previous_end) > 1e-12:
                raise CoverageGap(
                    f"gap between pieces at t = {previous_end} vs {t_start}"
                )
            previous_end = t_end

    @property
    def dimension(self) -> int:
        return self.pieces[0][2].dimension

    @property
    def t_start(self) -> float:
        return self.pieces[0][0]

    @property
    def t_end(self) -> float:
        return self.pieces[-1][1]


def integrate_loewner(
    driver,
    z0: DomainPoint,
    t_final: float,
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Integrate the piecewise-constant evolution equation up to t_final.

    The integration restarts exactly at piece boundaries, so a schedule
    split at an interior time agrees with the unsplit schedule up to the
    integrator tolerance.
    """
    _check_time_and_tol(t_final, tol)
    if not isinstance(driver, HerglotzField):
        driver = HerglotzField(tuple((a, b, f) for a, b, f in driver))
    if driver.t_start > 0.0 or driver.t_end < t_final - 1e-12:
        raise CoverageGap(
            f"pieces cover [{driver.t_start}, {driver.t_end}], "
            f"need [0, {t_final}]"
        )
    if driver.dimension != z0.n:
        raise DomainViolation("driver dimension does not match the point")
    return _flow_line(driver.pieces, z0, t_final, tol)


def integrate_fixed_steps(
    field: VectorField, z0: DomainPoint, t_final: float, steps: int
) -> np.ndarray:
    """Endpoint after `steps` uniform steps of the 5th-order formula.

    No error control or domain policing; intended for convergence-order
    measurements against closed-form solutions.
    """
    _check_time_and_tol(t_final)
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    y = z0.as_array()[:, None]
    ks = np.empty((7,) + y.shape, dtype=complex)
    ks[0] = _eval_checked(field, y)
    for _ in range(steps):
        y = _stages(field, y, ks, t_final / steps)
        ks[0] = ks[6]
    return y[:, 0]


# ---------------------------------------------------------------------------
# Flow maps
# ---------------------------------------------------------------------------

def flow_map(field: VectorField, t: float, tol: float = DEFAULT_TOL,
             domain: Domain | None = None):
    """Return a batch evaluator for the time-t flow map of the field.

    The evaluator accepts coordinates of shape (..., n).  Every point keeps
    its own adaptive step size, so a point's image is bit-identical whether
    it is mapped alone or in any batch.
    """
    _check_time_and_tol(t, tol)
    if domain is None:
        domain = Domain.SIEGEL if field.dimension > 1 else Domain.HALF_PLANE

    def apply(points):
        points = np.asarray(points, dtype=complex)
        flat = points.reshape(-1, points.shape[-1])
        if interior_margin(domain, flat).min() <= INTERIOR_MARGIN:
            raise DomainViolation("flow map applied to a non-interior point")
        return _advance(field, domain, flat, 0.0, t, tol).y.reshape(points.shape)

    return apply


def _minus_identity(self_map, dimension: int, description: str) -> VectorField:
    """The map z -> self_map(z) - z as a vector field."""
    return VectorField(
        dimension=dimension,
        evaluator=lambda points: np.asarray(self_map(points), dtype=complex) - points,
        description=description,
    )


def displacement_field(field: VectorField, t: float, tol: float = DEFAULT_TOL,
                       domain: Domain | None = None) -> VectorField:
    """The displacement map z -> Phi_t(z) - z of the field's flow."""
    return _minus_identity(flow_map(field, t, tol, domain), field.dimension,
                           f"flow[t={t:g}] - id ({field.description})")


# ---------------------------------------------------------------------------
# Dynamical checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    residual: float
    allowance: float
    passed: bool


def semigroup_check(
    field: VectorField,
    z0: DomainPoint,
    t: float,
    s: float,
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Euclidean distance between Phi_{t+s}(z0) and Phi_t(Phi_s(z0))."""
    joint = integrate_autonomous(field, z0, t + s, tol).final_state
    inner = integrate_autonomous(field, z0, s, tol).final_point()
    outer = integrate_autonomous(field, inner, t, tol).final_state
    residual = float(np.linalg.norm(joint - outer))
    allowance = 10.0 * tol * (t + s)
    return ResidualReport(residual, allowance, residual <= allowance)


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    times: np.ndarray
    u_magnitudes: np.ndarray
    min_increment: float
    passed: bool


def julia_monotonicity(
    field: VectorField,
    z0: DomainPoint,
    t_final: float,
    tol: float = DEFAULT_TOL,
) -> MonotonicityReport:
    """Check that |u| never decreases along the flow (Julia-type invariance).

    Raises MonotonicityViolation (carrying the offending time pair) if a
    decrease beyond 10*tol slack is observed.
    """
    trajectory = integrate_autonomous(field, z0, t_final, tol)
    us = np.abs(trajectory.u_values())
    increments = np.diff(us)
    slack = 10.0 * tol
    if increments.size and float(np.min(increments)) < -slack:
        k = int(np.argmin(increments))
        pair = (float(trajectory.times[k]), float(trajectory.times[k + 1]))
        raise MonotonicityViolation(
            f"|u| decreased from {us[k]} to {us[k + 1]} "
            f"between t = {pair[0]} and t = {pair[1]}",
            time_pair=pair,
        )
    min_increment = float(np.min(increments)) if increments.size else 0.0
    return MonotonicityReport(
        times=trajectory.times,
        u_magnitudes=us,
        min_increment=min_increment,
        passed=True,
    )


def displacement_integral(c: float, t: float) -> float:
    """Closed form of the arc-length integral of sqrt(1 + c^2 s^2) on [0, t]."""
    if c == 0.0:
        return t
    return t * math.sqrt(1.0 + c * c * t * t) / 2.0 + math.asinh(c * t) / (2.0 * c)


@dataclass(frozen=True)
class DisplacementBoundReport:
    displacement_norm: float
    bound: float
    passed: bool
    t: float
    constant_c: float


def displacement_bound_check(
    field: VectorField,
    c: float,
    z0: DomainPoint,
    t: float,
    tol: float = DEFAULT_TOL,
    slack: float = 1e-6,
) -> DisplacementBoundReport:
    """Hyperbolic displacement bound for flows of class-c fields.

    Checks  || Phi_t(z0) - z0 ||_{z0}  <=  c (t + integral) / u(z0)^2  where
    the integral of sqrt(1 + c^2 s^2) is evaluated in closed form.  The bound
    is calibrated for |u(z0)| >= 1.
    """
    u = poisson(z0)
    if abs(u) < 1.0 - 1e-12:
        raise DomainViolation(
            f"displacement bound needs |u(z0)| >= 1, got {abs(u)}"
        )
    endpoint = integrate_autonomous(field, z0, t, tol).final_state
    difference = endpoint - z0.as_array()
    lhs = hyperbolic_norm(TangentVector(z0, tuple(difference)))
    rhs = c * (t + displacement_integral(c, t)) / (u * u)
    report = DisplacementBoundReport(
        displacement_norm=lhs,
        bound=float(rhs),
        passed=lhs <= rhs + slack,
        t=t,
        constant_c=c,
    )
    if not report.passed:
        raise BoundViolation(
            f"displacement {lhs} exceeds bound {rhs} at t = {t} (c = {c})"
        )
    return report


@dataclass(frozen=True)
class HorosphereImageReport:
    worst_value: float
    limit: float
    witness: tuple[complex, ...]
    count: int
    grid_name: str
    passed: bool


def horosphere_image_check(
    self_map,
    c: float,
    dimension: int = 2,
    samples: np.ndarray | None = None,
    slack: float = 1e-9,
) -> HorosphereImageReport:
    """Check |u(f(z))| <= 1 + c on samples of the unit horosphere boundary.

    `self_map` is any batch evaluator of shape (..., n) -> (..., n), e.g. a
    flow map or a parsed expression pair.
    """
    grid_name = HOROSPHERE_SAMPLES_V1 if samples is None else "custom"
    points = horosphere_samples(dimension) if samples is None else np.asarray(
        samples, dtype=complex
    )
    images = np.asarray(self_map(points), dtype=complex)
    values = np.abs(poisson_values(Domain.SIEGEL, images))
    index = int(np.argmax(values))
    worst = float(values[index])
    limit = 1.0 + c
    report = HorosphereImageReport(
        worst_value=worst,
        limit=limit,
        witness=tuple(points[index]),
        count=points.shape[0],
        grid_name=grid_name,
        passed=worst <= limit + slack,
    )
    if not report.passed:
        raise BoundViolation(
            f"|u(f(z))| = {worst} exceeds 1 + c = {limit} "
            f"at z = {report.witness}"
        )
    return report


# ---------------------------------------------------------------------------
# Iteration diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IterationDiagnostic:
    tag: str  # diverges_to_infinity | converged_interior | inconclusive
    u_magnitudes: np.ndarray
    final: tuple[complex, ...]
    iterations: int

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "iterations": self.iterations,
            "u_initial": float(self.u_magnitudes[0]),
            "u_final": float(self.u_magnitudes[-1]),
            "final": [format_complex(c) for c in self.final],
        }


def iterate_map(
    self_map,
    z0: DomainPoint,
    count: int,
    divergence_threshold: float = 1e6,
    step_tol: float = 1e-9,
) -> IterationDiagnostic:
    """Iterate a self-map and classify the orbit's boundary behavior.

    diverges_to_infinity: some |u(f^k(z))| exceeds the threshold, or |u| is
    nondecreasing along the whole orbit and at least doubles.
    converged_interior: consecutive iterates get closer than step_tol.
    inconclusive: anything else (the orbit neither settles nor clearly runs
    off to the boundary point at infinity within the budget).
    """
    if count < 0:
        raise ValueError(f"iteration count must be >= 0, got {count}")
    if not (math.isfinite(divergence_threshold) and divergence_threshold > 0.0):
        raise ValueError(
            "divergence threshold must be finite and positive, "
            f"got {divergence_threshold}"
        )
    domain = z0.domain
    current = z0.as_array()[None, :]
    us = [abs(float(poisson_values(domain, current)[0]))]
    tag = None
    performed = 0
    for _ in range(count):
        image = np.asarray(self_map(current), dtype=complex)
        if not np.all(np.isfinite(image)):
            raise FieldEvaluationError("self-map produced non-finite iterate")
        performed += 1
        step = float(np.max(np.abs(image - current)))
        current = image
        us.append(abs(float(poisson_values(domain, current)[0])))
        if us[-1] > divergence_threshold:
            tag = "diverges_to_infinity"
            break
        if step < step_tol:
            tag = "converged_interior"
            break
    us = np.asarray(us)
    if tag is None:
        nondecreasing = bool(np.all(np.diff(us) >= -1e-12 * np.max(us)))
        if nondecreasing and us[-1] >= 2.0 * us[0]:
            tag = "diverges_to_infinity"
        else:
            tag = "inconclusive"
    return IterationDiagnostic(
        tag=tag,
        u_magnitudes=us,
        final=tuple(current[0]),
        iterations=performed,
    )


def extract_capacity(
    self_map,
    y_min: float = 1.0,
    y_max: float = 1e5,
    count: int = CAPACITY_DEFAULTS["count"],
) -> CapacityEstimate:
    """Capacity of a 1-d self-map via the tail of y |f(iy) - iy|.

    The default y_max is smaller than the raw estimator's because computing
    f(iy) - iy at height y loses about y * ulp(y) to cancellation; beyond
    y ~ 1e5 the roundoff noise would dominate the tail for double precision.
    """
    displacement = _minus_identity(self_map, 1, "self-map displacement")
    return estimate_capacity_1d(displacement, y_min=y_min, y_max=y_max, count=count)
