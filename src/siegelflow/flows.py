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

The kernel stores a batch of m points in n dimensions component-major,
contiguous: the state as an (n, m) array and the stages as one (7, n, m)
buffer in the order k1, k0, k2, ..., k6, where every tableau row's nonzero
weights fill one slice.  Per-point reductions run along a leading axis.
A field receives its points as an (m, n) array, the transposed view of the
(n, m) state, which is not contiguous; it must return an (m, n) result.

Trajectories must stay inside their domain (``domains._is_interior``): a step
that leaves it is rejected and retried at half the step size.  Sixty
consecutive rejections of a point raise StepSizeUnderflow, and so do sixty
domain exits of a point in one integration, which stop a flow that creeps
along the boundary.  For fields in the chordal classes this only happens
when something is genuinely wrong, since their flows increase |u| and
therefore move away from the boundary.

Everything here is deterministic: identical inputs produce bit-identical
trajectories.
"""

from __future__ import annotations

import math

import numpy as np

from ._records import record
from .analysis import CapacityEstimate, slice_capacities
from .domains import (
    Domain,
    DomainPoint,
    TangentVector,
    _is_interior,
    format_complex,
    hyperbolic_norm,
    poisson,
    poisson_values,
)
from .errors import CoverageGap, DomainViolation, FieldEvaluationError, StepSizeUnderflow
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
_MAX_DOMAIN_EXITS = 60  # rejected steps of one row that left the domain

# The step loop's float operands are 0-d float64 arrays, not Python floats:
# numpy converts a Python float afresh in every ufunc call.  Both select the
# same float64 loop, so no result changes by a bit.
_STEP_GROW_CAP = np.array(5.0)
_STEP_SHRINK_CAP = np.array(0.2)
_SAFETY = np.array(0.9)  # safety factor of the step-size controller
_ALPHA = np.array(-0.175)  # PI exponent of this step's error ratio
_BETA = np.array(0.1)  # PI exponent of the previous step's error ratio
_R_FLOOR = np.array(1e-10)  # error-ratio floor, keeps r**_ALPHA finite
_NEAR_ONE = np.array(1.0 - 1e-12)  # a step this close to the rest ends the leg

# Reductions: ndarray.max/all/any reach these ufunc methods through
# Python-level wrappers, which cost more than the loop on the few numbers of a
# one-row step.  A whole-array test on a 1-d array reads the entry at its
# argmin or argmax instead: a[a.argmin()] is a.min(), which for a mask is
# a.all(), and a[a.argmax()] is a.max() or a.any(); that costs about a quarter
# of a ufunc reduction of one number.  np.count_nonzero runs only on rejection.
_max, _all, _any = np.maximum.reduce, np.logical_and.reduce, np.logical_or.reduce


class _Segment:
    """One integration leg: final rows and stages, counters, a row's nodes."""

    __slots__ = ("times", "states", "accepted", "rejected", "max_error", "y", "k")

    def __init__(self) -> None:
        self.times: list[float] = []
        self.states: list[np.ndarray] = []
        self.accepted = 0
        self.rejected = 0
        self.max_error = 0.0
        self.y: np.ndarray | None = None
        self.k: np.ndarray | None = None

    def record(self, t: float, y: np.ndarray) -> None:
        """Keep row 0 of the component-major state y, shape (n, m)."""
        self.times.append(t)
        self.states.append(y[:, 0])


def _check_time_and_tol(t: float, tol: float = DEFAULT_TOL) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _field_result(k, shape: tuple) -> np.ndarray:
    """A field's value as a complex array of the expected (m, n) shape."""
    k = np.asarray(k, dtype=complex)
    if k.shape != shape:
        raise FieldEvaluationError(f"field returned shape {k.shape}, expected {shape}")
    return k


_SLOT = (1, 0, 2, 3, 4, 5, 6)  # the slot of stage k_j (module docstring)


def _row(weights) -> tuple:
    """A row's slot slice lo:hi, (slot, w) pairs and weight column (or None)."""
    pairs = tuple(sorted((_SLOT[j], w) for j, w in enumerate(weights) if w != 0.0))
    lo, hi = pairs[0][0], pairs[-1][0] + 1
    assert hi - lo == len(pairs), "a row's weights must fill one slot slice"
    # Complex weights: numpy would cast float ones to complex, to these same
    # numbers, in every product with a stage.
    pairs = tuple((j, np.array(complex(w))) for j, w in pairs)
    column = np.array([w for _, w in pairs])[:, None, None] if len(pairs) > 1 else None
    return lo, hi, pairs, column


_STAGE_PLAN = tuple((_SLOT[i], *_row(row)) for i, row in enumerate(_A[1:], 1))
_ERROR_ROW = _row(_E)
_COMPLEX = np.dtype(complex)  # a singleton, so `is` tells it apart

# Stages of at most this many numbers (n * m) sum faster in one running-sum
# call than in a loop of in-place additions.  On (7, n, m) stage buffers
# (n = 1 and 2, numpy 2.4.6, 2-core VM) the two cross near 80-112 numbers.
# Both add the same terms in the same order, so their sums are identical.
_RUNNING_SUM_SIZE = 64


def _combine(ks: np.ndarray, lo: int, hi: int, pairs, column, small: bool) -> np.ndarray:
    """sum_j w_j ks[j] over slots lo:hi, summed elementwise left to right.

    The fixed order of the additions makes each row's result independent of
    the other rows; a BLAS contraction would not guarantee that.  Slot order
    swaps k0 and k1 in a row's first addition, which is exact either way.
    """
    if column is None:
        return ks[lo] * pairs[0][1]
    if small:
        return np.add.accumulate(ks[lo:hi] * column, axis=0)[-1]
    (j, w), *rest = pairs
    acc = ks[j] * w
    for j, w in rest:
        acc += ks[j] * w
    return acc


def _stages(eval_fn, y: np.ndarray, ks: np.ndarray, h) -> np.ndarray:
    """Fill stages 1-6 of one Dormand-Prince step from rows y; return y_new.

    Everything is component-major: ``y`` is (n, m) and ``ks`` (7, n, m)
    holds the field at y in slot 1; ``h`` is a scalar or one step per row,
    (m,).  Slot 6 is the field at y_new (FSAL).
    """
    shape, small = y.shape[::-1], y.size <= _RUNNING_SUM_SIZE
    h = np.asarray(h, dtype=complex)  # cast once, not in each stage's y_i *= h
    for slot, lo, hi, pairs, column in _STAGE_PLAN:
        y_i = _combine(ks, lo, hi, pairs, column, small)
        y_i *= h
        y_i += y
        k = eval_fn(y_i.T)
        if type(k) is not np.ndarray or k.dtype is not _COMPLEX or k.shape != shape:
            k = _field_result(k, shape)
        ks[slot] = k.T
    return y_i


def _advance(
    eval_fn,
    domain: Domain,
    y0: np.ndarray,
    t0: float,
    t1: float,
    tol: float,
    record: bool = False,
    k0: np.ndarray | None = None,
) -> _Segment:
    """Integrate dy/dt = eval_fn(y) from t0 to t1 with EPUS error control.

    Each row of y0, shape (m, n), has its own time, step size, PI state and
    rejection count, and leaves the stage arrays once it reaches t1, so its
    result does not depend on the other rows.  Every row must start inside
    the domain (else DomainViolation, before any field call), and any
    failing row fails the call.  A row whose step falls below
    1e-15 * max(1, |t|) at its own time t raises StepSizeUnderflow; a span
    shorter than 1e-15 * max(1, |t0|, |t1|) takes no step.  ``record``
    keeps the accepted nodes of a single row (m = 1).
    The state is held component-major (module docstring); ``seg.y`` is
    (m, n) again, and ``seg.k`` holds the field at each row of ``seg.y``:
    the FSAL stage of the row's last step.
    ``k0`` carries such stages in: rows and stages an earlier call returned
    in ``seg.y`` and ``seg.k`` (same field and domain) are interior and
    finite, so with ``k0`` the start row test and start field call are
    skipped, and every row takes the steps a fresh start would take.
    """
    seg = _Segment()
    y = np.array(np.asarray(y0, dtype=complex).T, order="C")
    n, m = y.shape
    buffer = np.empty(7 * n * m, dtype=complex)
    ks = buffer.reshape(7, n, m)
    # One floating-point state for the whole integration: field calls do not
    # set their own, and non-finite stages are caught by the checks below.
    with np.errstate(all="ignore"):
        if k0 is not None:
            ks[1] = k0.T
        else:
            if not _all(_is_interior(domain, y.T)):
                raise DomainViolation("flow started at a non-interior point")
            ks[1] = _field_result(eval_fn(y.T), (m, n)).T
            if not _all(np.isfinite(ks[1]), axis=None):
                raise FieldEvaluationError("field is not finite at the initial point")
        if record:
            seg.record(t0, y)
        # Every row's time stays in [t0, t1], so this floor bounds each row's
        # own floor, 1e-15 * max(1, |t|); only a step below it is checked row
        # by row.
        floor = 1e-15 * max(1.0, abs(t0), abs(t1))
        if t0 >= t1 - floor:
            seg.y, seg.k = y.T.copy(), ks[1].T.copy()
            return seg
        t_done = np.array(t1 - floor)  # 0-d: compared in every step
        t1, tol = np.array(t1), np.array(tol)  # 0-d: operands in every step

        d0 = np.maximum(_max(np.abs(y), axis=0), 1e-6)
        d1 = np.maximum(_max(np.abs(ks[1]), axis=0), 1e-16)
        h = np.minimum(t1 - t0, 0.01 * d0 / d1)
        t = np.empty(m)
        t.fill(t0)
        r_prev = np.empty(m)
        r_prev.fill(1.0)
        consecutive, exits = np.zeros((2, m), dtype=int)
        # Finished rows go to ``out`` at their original index, their states
        # to out[0] and their stages to out[1] (two arrays, so a result does
        # not keep its stages alive); ``rows`` and ``out`` exist only once
        # rows finish at different iterations.
        live, rows, out = m, None, None
        retried = False  # some row's rejection count may be nonzero

        while True:
            if h[h.argmin()] < floor:
                row_floor = 1e-15 * np.maximum(1.0, np.abs(t))
                below = h < row_floor
                if _any(below):
                    k = int(np.argmax(below))
                    raise StepSizeUnderflow(
                        f"step size underflow at t = {t[k]} (h = {h[k]:.3e} is below "
                        f"the floor 1e-15 * max(1, |t|) = {row_floor[k]:.3e})"
                    )
            remaining = t1 - t
            last = h >= remaining * _NEAR_ONE
            ends = last[last.argmax()]  # only a row's final step is clipped
            h_step = h
            if ends:
                h_step = h.copy()
                np.copyto(h_step, remaining, where=last)
            y_new = _stages(eval_fn, y, ks, h_step)

            # Slot 1 is finite: checked above, carried in, or from an accepted step.
            inside = _all(np.isfinite(ks), axis=(0, 1)) & _is_interior(domain, y_new.T)
            small = n * live <= _RUNNING_SUM_SIZE
            err = _max(np.abs(_combine(ks, *_ERROR_ROW, small)), axis=0)
            accept = inside & (err <= tol)

            r = np.maximum(err / tol, _R_FLOOR)
            fac = np.maximum(_STEP_SHRINK_CAP, _SAFETY * r**_ALPHA * r_prev**_BETA)
            h_grow = h_step * np.minimum(_STEP_GROW_CAP, fac)
            t_new = t + h_step
            if ends:
                np.copyto(t_new, t1, where=last)
            if accept[accept.argmin()]:
                t, y, h, r_prev = t_new, y_new, h_grow, r
                ks[1] = ks[6]
                if retried:
                    consecutive[:] = 0
                    retried = False
                seg.accepted += live
                seg.max_error = max(seg.max_error, float(err[err.argmax()]))
                if record:
                    seg.record(float(t[0]), y)
            else:
                n_accepted = int(np.count_nonzero(accept))
                h_shrink = h_step * np.maximum(0.1, 0.9 * r**-0.25)
                h = np.where(accept, h_grow, np.where(inside, h_shrink, 0.5 * h_step))
                t = np.where(accept, t_new, t)
                y = np.where(accept, y_new, y)
                ks[1] = np.where(accept, ks[6], ks[1])
                r_prev = np.where(accept, r, r_prev)
                consecutive = np.where(accept, 0, consecutive + 1)
                exits += ~inside
                retried = True
                seg.accepted += n_accepted
                seg.rejected += live - n_accepted
                seg.max_error = max(seg.max_error, float(_max(err[accept], initial=0.0)))
                if _any(exits >= _MAX_DOMAIN_EXITS):
                    k = int(np.argmax(exits))
                    raise StepSizeUnderflow(
                        f"step size underflow: creeping along the boundary of the "
                        f"{domain.value} near t = {t[k]}; {exits[k]} rejected steps left it"
                    )
                if _any(consecutive >= _MAX_CONSECUTIVE_REJECTS):
                    k = int(np.argmax(consecutive))
                    cause = ("error control failed" if inside[k]
                             else "trajectory left the domain")
                    raise StepSizeUnderflow(
                        f"{cause} near t = {t[k]}; "
                        f"{consecutive[k]} consecutive rejections"
                    )

            done = t >= t_done
            if not done[done.argmax()]:
                continue
            if done[done.argmin()]:
                if out is None:
                    seg.y, seg.k = y.T.copy(), ks[1].T.copy()
                else:
                    out[0][rows], out[1][rows] = y.T, ks[1].T
                    seg.y, seg.k = out
                return seg
            if out is None:
                out = np.empty((m, n), dtype=complex), np.empty((m, n), dtype=complex)
                rows = np.arange(m)
            # compress gathers along axis 1 faster than a boolean index.
            finished = rows[done]
            out[0][finished] = y.compress(done, axis=1).T
            out[1][finished] = ks[1].compress(done, axis=1).T
            keep = ~done
            rows, t, h, r_prev, consecutive, exits = (
                a[keep] for a in (rows, t, h, r_prev, consecutive, exits)
            )
            live = rows.size
            y = y.compress(keep, axis=1)
            # Only slot 1 carries over; shrink the stage buffer in place,
            # keeping it contiguous over the first 7 * n * live numbers.
            ks1 = ks[1].compress(keep, axis=1)
            ks = buffer[:7 * n * live].reshape(7, n, live)
            ks[1] = ks1


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@record(eq=False)
class Trajectory:
    """Accepted integration nodes of one flow line, with diagnostics."""

    domain: Domain
    times: np.ndarray    # (N,), increasing, times[0] = 0
    states: np.ndarray   # (N, n) complex coordinates, all interior
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
            del seg.times[0], seg.states[0]
        segments.append(seg)
        y = seg.y
    return Trajectory(
        domain=z0.domain,
        times=np.asarray([t for seg in segments for t in seg.times], dtype=float),
        states=np.asarray([row for seg in segments for row in seg.states], dtype=complex),
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


@record
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
    with np.errstate(all="ignore"):
        ks[1] = _field_result(field(y.T), y.shape[::-1]).T
        for _ in range(steps):
            y = _stages(field, y, ks, t_final / steps)
            ks[1] = ks[6]
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

    Called on its own last result, as when iterating Phi_t, the evaluator
    resumes from the FSAL stages that result ended on, which hold the field
    at those rows, instead of evaluating the field there again.  The rows
    are matched bit for bit against a private copy, since a caller may
    write into the returned array; the images are the same either way.
    """
    _check_time_and_tol(t, tol)
    if domain is None:
        domain = Domain.SIEGEL if field.dimension > 1 else Domain.HALF_PLANE
    last = (None, None)  # the last result's rows as bytes, and their final stages

    def apply(points):
        nonlocal last
        points = np.asarray(points, dtype=complex)
        flat = points.reshape(-1, points.shape[-1])
        if not flat.size:
            return np.empty_like(points)
        rows, stages = last  # one read: concurrent calls never mix two results
        k0 = stages if rows == flat.tobytes() and stages.shape == flat.shape else None
        seg = _advance(field, domain, flat, 0.0, t, tol, k0=k0)
        last = (seg.y.tobytes(), seg.k)
        return seg.y.reshape(points.shape)

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

# Each check samples fixed inputs and returns a report of what it measured,
# with ``passed`` computed against the slack below; it never raises on a
# violation, so the caller judges the report.
MONOTONICITY_SLACK = 10.0 * DEFAULT_TOL  # allowed drop of |u| between nodes
DISPLACEMENT_SLACK = 1e-6  # absolute, on the displacement bound
HOROSPHERE_IMAGE_SLACK = 1e-9  # absolute, on |u(f(z))| <= 1 + c


@record
class ResidualReport:
    residual: float
    allowance: float
    passed: bool


def semigroup_check(
    field: VectorField, z0: DomainPoint, t: float, s: float
) -> ResidualReport:
    """Euclidean distance between Phi_{t+s}(z0) and Phi_t(Phi_s(z0)).

    ``passed`` means the residual is at most 10 * DEFAULT_TOL * (t + s).
    """
    joint = integrate_autonomous(field, z0, t + s).final_state
    inner = integrate_autonomous(field, z0, s).final_point()
    outer = integrate_autonomous(field, inner, t).final_state
    residual = float(np.linalg.norm(joint - outer))
    allowance = 10.0 * DEFAULT_TOL * (t + s)
    return ResidualReport(residual, allowance, residual <= allowance)


@record(eq=False)
class MonotonicityReport:
    times: np.ndarray
    u_magnitudes: np.ndarray
    min_increment: float
    passed: bool


def julia_monotonicity(
    field: VectorField, z0: DomainPoint, t_final: float
) -> MonotonicityReport:
    """|u| at the accepted nodes of the flow from z0 (Julia-type invariance).

    ``min_increment`` is the smallest change of |u| between consecutive
    nodes (0 for a one-node trajectory); ``passed`` means it is at least
    -MONOTONICITY_SLACK, i.e. |u| never decreased beyond the slack.
    """
    trajectory = integrate_autonomous(field, z0, t_final)
    us = np.abs(trajectory.u_values())
    increments = np.diff(us)
    min_increment = float(np.min(increments)) if increments.size else 0.0
    return MonotonicityReport(
        times=trajectory.times,
        u_magnitudes=us,
        min_increment=min_increment,
        passed=min_increment >= -MONOTONICITY_SLACK,
    )


def displacement_integral(c: float, t: float) -> float:
    """Closed form of the arc-length integral of sqrt(1 + c^2 s^2) on [0, t]."""
    if c == 0.0:
        return t
    return t * math.sqrt(1.0 + c * c * t * t) / 2.0 + math.asinh(c * t) / (2.0 * c)


@record
class DisplacementBoundReport:
    displacement_norm: float
    bound: float
    passed: bool
    t: float
    constant_c: float


def displacement_bound_check(
    field: VectorField, c: float, z0: DomainPoint, t: float
) -> DisplacementBoundReport:
    """Hyperbolic displacement bound for flows of class-c fields.

    Measures  || Phi_t(z0) - z0 ||_{z0}  against  c (t + integral) / u(z0)^2
    where the integral of sqrt(1 + c^2 s^2) is evaluated in closed form;
    ``passed`` means the norm is at most the bound plus DISPLACEMENT_SLACK.
    The bound is calibrated for |u(z0)| >= 1; a point below that raises
    DomainViolation.
    """
    u = poisson(z0)
    if abs(u) < 1.0 - 1e-12:
        raise DomainViolation(
            f"displacement bound needs |u(z0)| >= 1, got {abs(u)}"
        )
    endpoint = integrate_autonomous(field, z0, t).final_state
    difference = endpoint - z0.as_array()
    lhs = hyperbolic_norm(TangentVector(z0, tuple(difference)))
    rhs = c * (t + displacement_integral(c, t)) / (u * u)
    return DisplacementBoundReport(
        displacement_norm=lhs,
        bound=float(rhs),
        passed=lhs <= rhs + DISPLACEMENT_SLACK,
        t=t,
        constant_c=c,
    )


@record
class HorosphereImageReport:
    worst_value: float
    limit: float
    witness: tuple[complex, ...]
    count: int
    grid_name: str
    passed: bool


def horosphere_image_check(self_map, c: float) -> HorosphereImageReport:
    """Largest |u(f(z))| over the versioned samples of the unit horosphere.

    `self_map` is any batch evaluator of shape (..., 2) -> (..., 2), e.g. a
    flow map or a parsed expression pair.  ``passed`` means the largest
    value is at most 1 + c + HOROSPHERE_IMAGE_SLACK.
    """
    points = horosphere_samples(2)
    with np.errstate(all="ignore"):
        images = np.asarray(self_map(points), dtype=complex)
    values = np.abs(poisson_values(Domain.SIEGEL, images))
    index = int(np.argmax(values))
    worst = float(values[index])
    limit = 1.0 + c
    return HorosphereImageReport(
        worst_value=worst,
        limit=limit,
        witness=tuple(points[index]),
        count=points.shape[0],
        grid_name=HOROSPHERE_SAMPLES_V1,
        passed=worst <= limit + HOROSPHERE_IMAGE_SLACK,
    )


# ---------------------------------------------------------------------------
# Iteration diagnostics
# ---------------------------------------------------------------------------

@record(eq=False)
class IterationDiagnostic:
    tag: str  # diverges_to_infinity | converged_interior | inconclusive
    u_magnitudes: np.ndarray
    final: tuple[complex, ...]
    iterations: int


# Iterates this close together (max-norm) count as converged.
_ITERATE_STEP_TOL = 1e-9


def iterate_map(
    self_map, z0: DomainPoint, count: int, divergence_threshold: float = 1e6
) -> IterationDiagnostic:
    """Iterate a self-map and classify the orbit's boundary behavior.

    diverges_to_infinity: some |u(f^k(z))| exceeds the threshold, or |u| is
    nondecreasing along the whole orbit and at least doubles.
    converged_interior: consecutive iterates get closer than 1e-9.
    inconclusive: anything else (the orbit neither settles nor clearly runs
    off to the boundary point at infinity within the budget).

    Every iterate must be finite (else FieldEvaluationError) and interior to
    z0's domain by ``domains._is_interior`` (else DomainViolation naming the
    iteration).
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
    with np.errstate(all="ignore"):
        for _ in range(count):
            image = np.asarray(self_map(current), dtype=complex)
            performed += 1
            if not _is_interior(domain, image[0]):
                if not np.isfinite(image).all():
                    raise FieldEvaluationError("self-map produced non-finite iterate")
                point = ", ".join(format_complex(c) for c in image[0])
                raise DomainViolation(
                    f"iterate {performed} ({point}) is not interior to {domain.value}"
                )
            step = float(_max(np.abs(image - current), axis=None))
            current = image
            us.append(abs(float(poisson_values(domain, current)[0])))
            if us[-1] > divergence_threshold:
                tag = "diverges_to_infinity"
                break
            if step < _ITERATE_STEP_TOL:
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


def extract_capacity(self_map) -> CapacityEstimate:
    """Capacity of a 1-d self-map via the tail of y |f(iy) - iy|, 1 <= y <= 1e5.

    This is the n = 1 case of :func:`slice_capacities`, at gamma = (), applied
    to the displacement f - id in the self-map window.  The window stops below
    the field estimator's y_max because computing f(iy) - iy at height y loses
    about y * ulp(y) to cancellation; beyond y ~ 1e5 the roundoff noise would
    dominate the tail for double precision.
    """
    displacement = _minus_identity(self_map, 1, "self-map displacement")
    return slice_capacities(displacement, [()], y_max=1e5)[0]
