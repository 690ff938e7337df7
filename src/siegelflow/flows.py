"""Flow integration for semigroup and Loewner-type evolution equations.

The autonomous problem is dw/dt = G(w), w(0) = z0, whose solutions form the
one-parameter semigroup generated by G; the non-autonomous variant swaps in a
piecewise-constant-in-time field.  The integrator is the adaptive embedded
Dormand-Prince 4(5) pair with FSAL and PI step-size control.  The tolerance
is interpreted as local error per unit time, so endpoint errors scale
roughly linearly in ``tol`` for smooth fields.

One integration call is a sequence of parts, each a field in its domain
with its own rows.  Every row keeps its own time, step size and controller
state, and stages are evaluated only on the rows still in flight, so a row's
result is bit-identical whether it runs alone or beside any others: the
stage arithmetic is elementwise per row, each part's rows are filled by its
own field and tested against its own domain, and each row has its own start
and end time and tolerance.  A recorded integration keeps every row's
accepted nodes, so trajectories pool the same way endpoints do.
Integrations that run one after another pool as chains of legs: a leg is a
row with its own start and end time, and it may name the leg that continues
from it.  When a leg finishes, that next leg restarts its row in place, at
its own start time, from the endpoint and the FSAL stage of the last step,
with a fresh initial step and controller state, so every leg ends
bit-identical to a fresh integration from that endpoint.  A flow map is one
part; the flows verify suite runs all its integrations of one dimension as
one call, across fields, domains and tolerances, with the iterates of a flow
map, the outer flows of the semigroup law and a Loewner schedule's second
piece as chains in it.

The kernel stores a batch of m points in n dimensions component-major,
contiguous: the state as an (n, m) array and the stages as one (7, n, m)
buffer in the order k1, k0, k2, ..., k6, where every tableau row's nonzero
weights fill one slice.  Per-point reductions run along a leading axis.
Each live part fills every stage of its rows with one call,
``field._fill(points, out)``: the points are an (m, n) array, the
transposed view of the (n, m) stage point, which is not contiguous, and out
is the transposed (m, n) view of the stage's slot.  Every field the
``fields`` module builds, parsed or built-in, writes its formula straight
into the slot.  An integration starts with one checked call instead,
``field._copy_call(points, out)``: the field is called on the start rows,
which checks their dimension, must return an (m, n) result (a list or a
real array is converted to complex), and has it copied in.  A field built
from a bare evaluator is evaluated that way at every stage.

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

import functools
import math

import numpy as np

from ._records import record
from .analysis import CAPACITY_DEFAULTS, CapacityEstimate, _class_constant, _tail_estimates
from .domains import (
    Domain,
    DomainPoint,
    TangentVector,
    _check_arity,
    _interior_and_poisson,
    _is_interior,
    format_complex,
    hyperbolic_norm,
    poisson,
    poisson_values,
)
from .errors import (
    CoverageGap,
    DomainViolation,
    FieldEvaluationError,
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
_MAX_DOMAIN_EXITS = 60  # rejected steps of one row that left the domain

# The step loop's float operands are 0-d float64 arrays, not Python floats,
# which numpy converts afresh in every ufunc call (Python floats: 1-5% slower
# in process, README).  Both select the same float64 loop: the same bits.
_STEP_GROW_CAP = np.array(5.0)
_STEP_SHRINK_CAP = np.array(0.2)
_SAFETY = np.array(0.9)  # safety factor of the step-size controller
_ALPHA = np.array(-0.175)  # PI exponent of this step's error ratio
_BETA = np.array(0.1)  # PI exponent of the previous step's error ratio
_R_FLOOR = np.array(1e-10)  # error-ratio floor, keeps r**_ALPHA finite
_NEAR_ONE = np.array(1.0 - 1e-12)  # a step this close to the rest ends the leg
_EPS = np.array(1e-15)  # relative floor of a row's end time

# Reductions: ndarray.max/all/any reach these ufunc methods through
# Python-level wrappers, which cost more than the loop on the few numbers of a
# one-row step.  A whole-array test on a 1-d array reads the entry at its
# argmin or argmax instead: a[a.argmin()] is a.min(), or a.all() for a mask,
# and a[a.argmax()] is a.max() or a.any(), at a quarter of a ufunc reduction's
# cost (2-6% in process, README).  np.count_nonzero runs only on rejection.
_max, _all, _any = np.maximum.reduce, np.logical_and.reduce, np.logical_or.reduce

class _Segment:
    """One integration leg: final rows and stages, counters, every row's nodes."""

    def __init__(self) -> None:
        # (rows, t, y) per recorded node set: the original indices of the
        # rows it holds (None for all m rows, in order), their times (r,)
        # and their component-major states (n, r).
        self.nodes: list[tuple[np.ndarray | None, np.ndarray, np.ndarray]] = []
        self.accepted = 0
        self.rejected = 0
        self.max_error = 0.0
        self.y: np.ndarray | None = None
        self.k: np.ndarray | None = None

    def trajectory(self, row: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Row ``row``'s recorded nodes in order: times (N,) and states (N, n)."""
        index, times, states = zip(*self.nodes)
        times, states = np.concatenate(times), np.concatenate(states, axis=1)
        every = np.arange(len(self.y))
        index = np.concatenate([every if rows is None else rows for rows in index])
        pick = np.flatnonzero(index == row)
        times, states = times.take(pick), states.take(pick, axis=1)
        return times, states.T.copy()


def _check_time_and_tol(t: float, tol: float = DEFAULT_TOL, name: str = "time") -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {t}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


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


# The six stage rows, each with the slot its stage fills, then the error row
# with slot None: it sums the stages into the error estimate and fills none.
_PLAN = tuple((_SLOT[i], *_row(row)) for i, row in enumerate(_A[1:], 1)) + (
    (None, *_row(_E)),)

# Stages of at most this many numbers (n * m) sum faster in one running-sum
# call than in a loop of in-place additions (they cross near 80-112): the loop
# alone is up to 23% slower in process, the running sum alone 67% on the grid
# flow (README).  Both add the same terms in the same order: the same sums.
_RUNNING_SUM_SIZE = 64
_accumulate = np.add.accumulate


def _stages(fill, y: np.ndarray, ks: np.ndarray, outs: tuple, h
            ) -> tuple[np.ndarray, np.ndarray]:
    """Fill stages 1-6 of one Dormand-Prince step from rows y.

    Everything is component-major: ``y`` is (n, m) and ``ks`` (7, n, m)
    holds the field at y in slot 1; ``h`` is a 0-d array or one step per
    row, (m,).  ``fill`` is the field's ``_fill``, and ``outs`` holds each
    slot of ``ks`` as the transposed (m, n) view that ``fill`` writes.  Slot
    6 is the field at y_new (FSAL).  Returns y_new and the error estimate per
    unit step, sum_j E_j k_j, both (n, m).

    Each weighted sum adds its terms elementwise, left to right, so each
    row's result is independent of the other rows; a BLAS contraction would
    not guarantee that.  Slot order swaps k0 and k1 in a row's first
    addition, which is exact either way.
    """
    small = y.size <= _RUNNING_SUM_SIZE
    h = h.astype(complex)  # once, not in each stage's product: 1-3% (README)
    for slot, lo, hi, pairs, column in _PLAN:
        if column is None:
            acc = ks[lo] * pairs[0][1]
        elif small:
            acc = _accumulate(ks[lo:hi] * column)[-1]
        else:
            (j, w), *rest = pairs
            acc = ks[j] * w
            for j, w in rest:
                acc += ks[j] * w
        if slot is None:
            return y_i, acc
        acc *= h
        acc += y
        y_i = acc  # the stage's point, y + h sum_j a_ij k_j
        fill(y_i.T, outs[slot])


def _initial_step(y: np.ndarray, k: np.ndarray, span: np.ndarray) -> np.ndarray:
    """First step of each column of y (n, r), with k the field there: 0.01 d0 / d1."""
    d0 = np.maximum(_max(np.abs(y), axis=0), 1e-6)
    d1 = np.maximum(_max(np.abs(k), axis=0), 1e-16)
    return np.minimum(span, 0.01 * d0 / d1)


def _blocks(parts, leg_part: np.ndarray | None, rows: np.ndarray | None):
    """The live rows' stage fill, checked start fill and interior test.

    ``leg_part`` holds each leg's part, nondecreasing, or is None for one
    part, and ``rows`` holds each live row's leg, or is None for all legs in
    order.  Rows of one part get its ``_fill``, ``_copy_call`` and interior
    test before any numpy call (I 14%, O 13%, README); rows of several parts
    get the same per part, each on its own block of rows.
    """
    part = 0
    if leg_part is not None:
        row_part = leg_part if rows is None else leg_part.take(rows)
        part = row_part[0] if row_part[0] == row_part[-1] else None
    if part is not None:
        field, domain, _ = parts[part]
        return field._fill, field._copy_call, functools.partial(_is_interior, domain)
    ends = np.bincount(row_part).cumsum().tolist()
    blocks = [(field, domain, lo, hi) for (field, domain, _), lo, hi
              in zip(parts, [0, *ends], ends) if hi > lo]

    def fill(points, out, method="_fill"):
        for field, _, lo, hi in blocks:
            getattr(field, method)(points[lo:hi], out[lo:hi])

    def interior(points):
        return np.concatenate([_is_interior(domain, points[lo:hi])
                               for _, domain, lo, hi in blocks])
    return fill, functools.partial(fill, method="_copy_call"), interior


def _advance(
    parts,
    y0: np.ndarray,
    t0: float | np.ndarray,
    t1: float | np.ndarray,
    tol: float | np.ndarray,
    record: bool | np.ndarray = False,
    k0: np.ndarray | None = None,
    then: np.ndarray | None = None,
) -> _Segment:
    """Integrate dy/dt = field(y), each row in its part, with EPUS error control.

    ``parts`` is the problem: a sequence of (field, domain, L_p) triples of
    one dimension.  Part p owns the next L_p legs, laid out part-major, and
    a chain stays inside its part, so each part's live rows stay one
    contiguous block, filled by its field's ``_fill`` and tested against
    its domain.  The sizes must add up to the call's legs (else ValueError,
    before any field call); one flow of m rows is ``((field, domain, m),)``.

    Each row of y0, shape (m, n), has its own time, step size, PI state and
    rejection count, and leaves the stage arrays once it reaches its end, so
    its result does not depend on the other rows.  ``t0`` and ``t1`` are
    one start and end time or (m,) arrays of per-row times, each end >= its
    start; a float runs as m equal times, through the same per-row code.
    ``tol`` is one tolerance or an (m,) array of per-row ones, the same way.
    Row i's end has the floor 1e-15 * max(1, |t0[i]|, |t1[i]|): a row whose
    span is under it takes no step, and every row stops once its time is
    within it of its end, its last step clipped to land on that end.  Every
    row must start inside the domain (else DomainViolation, before any
    field call), and any failing row fails the call.  A row whose step
    falls below 1e-15 * max(1, |t|) at its own time t raises
    StepSizeUnderflow.  An empty batch returns an empty segment without a
    field call; a batch of the wrong width raises ArityMismatchError.
    ``record`` keeps every row's start and accepted nodes in ``seg.nodes``,
    read back one row at a time by ``seg.trajectory``: a step that every
    live row accepted adds its ``t`` and ``y`` with the live rows' original
    indices, and a step that rejects some row adds just the accepted rows.
    ``record`` may also be a boolean mask over the rows, which keeps only
    the nodes of the rows it marks.
    The state is held component-major (module docstring); ``seg.y`` is
    (m, n) again, and ``seg.k`` holds the field at each row of ``seg.y``:
    the FSAL stage of the row's last step.
    ``k0`` carries such stages in: rows and stages an earlier call returned
    in ``seg.y`` and ``seg.k`` (same parts) are interior and
    finite, so with ``k0`` the start row test and the checked start call
    are skipped, and every row takes the steps a fresh start would take.

    ``then`` chains legs: with it, the call runs L = len(then) legs, each
    with its own ``t0[i]``, ``t1[i]`` and ``tol[i]``, and ``then[i]`` is
    the leg that continues from leg i, or -1.  The legs no leg names start
    from the rows of y0, in order.  When a leg finishes, the leg it names
    restarts its row in place, at its own t0, from the finished leg's
    endpoint and FSAL stage, with a fresh initial step and fresh controller
    state and counts, so each leg ends as a fresh call from that endpoint
    would.  ``seg.y`` and ``seg.k`` are (L, n), a ``record`` mask is over
    the legs, and a recorded leg's start node is its own.

    Each step tests finiteness once on the whole live stage buffer
    (``np.isfinite``, then the entry at its argmin); only when some entry is
    not finite does it reduce per row, to reject just those rows' steps.
    ``seg.max_error`` is the largest error per unit step over every row's
    accepted steps.
    """
    seg = _Segment()
    y = np.array(np.asarray(y0, dtype=complex).T, order="C")
    n, m = y.shape
    # Without ``then`` the legs are the rows.  ``rows`` holds each live
    # row's leg once rows finish apart, legs chain or a mask records.
    legs, rows = m, None
    if then is not None:
        legs = len(then)
        heads = np.ones(legs, dtype=bool)
        heads[then[then >= 0]] = False  # np.setdiff1d would import numpy.ma: 1 MB
        rows = np.flatnonzero(heads)
    # ``leg_part`` holds each leg's part, and is None for one part (_blocks).
    if len(parts) == 1:
        leg_part, sizes = None, parts[0][2]
    else:
        leg_part = np.arange(len(parts)).repeat([part[2] for part in parts])
        sizes = leg_part.size
    if sizes != legs:
        raise ValueError(f"the parts hold {sizes} legs, but the call runs {legs}")
    if not y.size:
        for part in parts:
            part[0]._check_points(y.T)  # no step to take and no field call
        seg.y = seg.k = y.T
        return seg
    buffer = np.empty(7 * n * m, dtype=complex)
    stages = buffer  # the live rows' stages, flat; ks is the same numbers
    ks = buffer.reshape(7, n, m)
    outs = tuple(ks.transpose(0, 2, 1))  # each slot as the (m, n) view fills write
    # One floating-point state for the whole integration: field calls do not
    # set their own, and non-finite stages are caught by the checks below.
    with np.errstate(all="ignore"):
        fill, start, interior = _blocks(parts, leg_part, rows)
        if k0 is not None:
            ks[1] = k0.T
        else:
            if not _all(interior(y.T)):
                raise DomainViolation("flow started at a non-interior point")
            start(y.T, outs[1])
            if not _all(np.isfinite(ks[1]), axis=None):
                raise FieldEvaluationError("field is not finite at the initial point")
        leg_t0, leg_t1, leg_tol = np.empty((3, legs))  # each leg's start, end and tol
        leg_t0[:], leg_t1[:], leg_tol[:] = t0, t1, tol
        # A row's time stays in [t0, t1], so its end's floor bounds its own
        # floor, 1e-15 * max(1, |t|), and the largest end floor over every
        # leg bounds every row's; only a step below that is checked row by
        # row.  An end below t0 takes no step whatever its floor, and for
        # t1 >= t0, max(1, |t0|, t1) is max(1, |t0|, |t1|).
        row_floors = _EPS * np.maximum(leg_t1, np.maximum(1.0, np.abs(leg_t0)))
        leg_done = leg_t1 - row_floors
        floor = row_floors[row_floors.argmax()]
        # ``noted`` marks each live row whose nodes a ``record`` mask keeps.
        noted = None
        if isinstance(record, np.ndarray):
            leg_noted, record = record, bool(_any(record))
            if rows is None:
                rows = np.arange(m)
            noted = leg_noted[rows]
        if rows is None:
            t, t_end, t_done, tol = leg_t0, leg_t1, leg_done, leg_tol
        else:
            t, t_end, t_done, tol = leg_t0[rows], leg_t1[rows], leg_done[rows], leg_tol[rows]
        if record:
            seg.nodes.append((rows, t, y) if noted is None else
                             (rows[noted], t[noted], y[:, noted]))

        h = _initial_step(y, ks[1], t_end - t)
        r_prev = np.empty(m)
        r_prev.fill(1.0)
        consecutive, exits = np.zeros((2, m), dtype=int)
        # Finished legs go to ``out`` at their index, their states to out[0]
        # and their stages to out[1] (two arrays, so a result does not keep
        # its stages alive); ``out`` and an unchained call's ``rows`` exist
        # only once rows finish at different iterations (up to 2.6% in
        # process, README).
        live, out = m, None

        while True:
            done = t >= t_done
            if done[done.argmax()]:
                if out is None:
                    if then is None and done[done.argmin()]:
                        seg.y, seg.k = y.T.copy(), ks[1].T.copy()
                        return seg
                    out = np.empty((legs, n), dtype=complex), np.empty((legs, n), dtype=complex)
                    if rows is None:
                        rows = np.arange(m)
                # compress gathers along axis 1 faster than a boolean index.
                finished = rows[done]
                out[0][finished] = y.compress(done, axis=1).T
                out[1][finished] = ks[1].compress(done, axis=1).T
                if then is not None:
                    slots = np.flatnonzero(done & (then[rows] >= 0))
                    if slots.size:
                        # The next legs take over their rows, whose y and
                        # slot 1 hold the endpoints and FSAL stages; rows and
                        # t are new arrays, since recorded nodes hold the old.
                        rows = rows.copy()
                        rows[slots] = then[rows[slots]]
                        t = t.copy()
                        t[slots] = leg_t0[rows[slots]]
                        t_end, t_done, tol = leg_t1[rows], leg_done[rows], leg_tol[rows]
                        h[slots] = _initial_step(y[:, slots], ks[1][:, slots],
                                                 t_end[slots] - t[slots])
                        r_prev[slots] = 1.0
                        consecutive[slots] = exits[slots] = 0
                        if noted is not None:
                            noted[slots] = leg_noted[rows[slots]]
                            slots = slots[noted[slots]]
                        if record and slots.size:
                            seg.nodes.append((rows[slots], t[slots], y[:, slots]))
                        continue  # a next leg may have no step to take
                if done[done.argmin()]:
                    seg.y, seg.k = out
                    return seg
                keep = ~done
                rows, t, h, r_prev, consecutive, exits, t_end, t_done, tol = (
                    a[keep] for a in (rows, t, h, r_prev, consecutive, exits, t_end, t_done, tol)
                )
                live = rows.size
                if noted is not None:
                    noted = noted[keep]
                if leg_part is not None:
                    fill, start, interior = _blocks(parts, leg_part, rows)
                y = y.compress(keep, axis=1)
                # Only slot 1 carries over; shrink the stage buffer in place,
                # keeping it contiguous over the first 7 * n * live numbers.
                ks1 = ks[1].compress(keep, axis=1)
                stages = buffer[:7 * n * live]
                ks = stages.reshape(7, n, live)
                outs = tuple(ks.transpose(0, 2, 1))
                ks[1] = ks1

            if h[h.argmin()] < floor:
                row_floor = 1e-15 * np.maximum(1.0, np.abs(t))
                below = h < row_floor
                if _any(below):
                    k = int(np.argmax(below))
                    raise StepSizeUnderflow(
                        f"step size underflow at t = {t[k]} (h = {h[k]:.3e} is below "
                        f"the floor 1e-15 * max(1, |t|) = {row_floor[k]:.3e})"
                    )
            remaining = t_end - t
            last = h >= remaining * _NEAR_ONE
            ends = last[last.argmax()]  # final steps only; np.where costs 1-4% (README)
            h_step = h
            if ends:
                h_step = h.copy()
                h_step[last] = remaining[last]
            y_new, e = _stages(fill, y, ks, outs, h_step)

            # Slot 1 is finite (checked above, carried in, or from an accepted
            # step), so a non-finite entry is one of this step's stages.
            finite = np.isfinite(stages)
            inside = interior(y_new.T)
            if not finite[finite.argmin()]:  # whole buffer first: 1-4% (README)
                inside &= _all(finite.reshape(7, n, live), axis=(0, 1))
            err = _max(np.abs(e), axis=0)
            accept = inside & (err <= tol)

            r = np.maximum(err / tol, _R_FLOOR)
            fac = np.maximum(_STEP_SHRINK_CAP, _SAFETY * r**_ALPHA * r_prev**_BETA)
            h_grow = h_step * np.minimum(_STEP_GROW_CAP, fac)
            t_new = t + h_step
            if ends:
                t_new[last] = t_end[last]
            if accept[accept.argmin()]:  # no np.where: 19-40% (README)
                t, y, h, r_prev = t_new, y_new, h_grow, r
                ks[1] = ks[6]
                consecutive[:] = 0
                seg.accepted += live
                seg.max_error = max(seg.max_error, float(err[err.argmax()]))
                if record:
                    if noted is None:
                        # A copy: a few-row y views _stages' running sums.
                        seg.nodes.append((rows, t, y.copy()))
                    elif noted[noted.argmax()]:
                        seg.nodes.append((rows[noted], t[noted], y[:, noted]))
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
                seg.accepted += n_accepted
                seg.rejected += live - n_accepted
                seg.max_error = max(seg.max_error, float(_max(err[accept], initial=0.0)))
                if record and n_accepted:
                    kept = accept if noted is None else accept & noted
                    index = np.flatnonzero(kept) if rows is None else rows[kept]
                    if index.size:
                        seg.nodes.append((index, t[kept], y[:, kept]))
                if _any(exits >= _MAX_DOMAIN_EXITS):
                    k = int(np.argmax(exits))
                    leg = k if rows is None else rows[k]
                    part = parts[0 if leg_part is None else leg_part[leg]]
                    raise StepSizeUnderflow(
                        f"step size underflow: creeping along the boundary of the "
                        f"{part[1].value} near t = {t[k]}; "
                        f"{exits[k]} rejected steps left it"
                    )
                if _any(consecutive >= _MAX_CONSECUTIVE_REJECTS):
                    k = int(np.argmax(consecutive))
                    cause = ("error control failed" if inside[k]
                             else "trajectory left the domain")
                    raise StepSizeUnderflow(
                        f"{cause} near t = {t[k]}; "
                        f"{consecutive[k]} consecutive rejections"
                    )


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
    segments, times, states = [], [], []
    for t_start, t_end, field in pieces:
        start, stop = max(t_start, 0.0), min(t_end, t_final)
        if segments and stop <= start:
            continue
        seg = _advance(((field, z0.domain, 1),), y, start, stop, tol, record=True)
        seg_times, seg_states = seg.trajectory()
        skip = 1 if segments else 0
        times.append(seg_times[skip:])
        states.append(seg_states[skip:])
        segments.append(seg)
        y = seg.y
    return Trajectory(
        domain=z0.domain,
        times=np.concatenate(times),
        states=np.concatenate(states),
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
    outs = tuple(ks.transpose(0, 2, 1))
    h = np.array(t_final / steps)
    fill = field._fill
    with np.errstate(all="ignore"):
        field._copy_call(y.T, outs[1])
        for _ in range(steps):
            y, _ = _stages(fill, y, ks, outs, h)
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
    are matched bit for bit against a private copy, since a caller may write
    into the returned array; the images are the same (I 7-9%, O 8%, README).
    A one-dimensional domain for an n > 1 field raises ArityMismatchError.
    """
    _check_time_and_tol(t, tol)
    if domain is None:
        domain = Domain.SIEGEL if field.dimension > 1 else Domain.HALF_PLANE
    _check_arity(domain, field.dimension)
    last = (None, None)  # the last result's rows as bytes, and their final stages

    def apply(points):
        nonlocal last
        points = np.asarray(points, dtype=complex)
        flat = points.reshape(-1, points.shape[-1])
        rows, stages = last  # one read: concurrent calls never mix two results
        k0 = stages if rows == flat.tobytes() and stages.shape == flat.shape else None
        seg = _advance(((field, domain, len(flat)),), flat, 0.0, t, tol, k0=k0)
        last = (seg.y.tobytes(), seg.k)
        return seg.y.reshape(points.shape)

    return apply


def displacement_field(field: VectorField, t: float, tol: float = DEFAULT_TOL,
                       domain: Domain | None = None) -> VectorField:
    """The displacement map z -> Phi_t(z) - z of the field's flow."""
    phi = flow_map(field, t, tol, domain)
    return VectorField(field.dimension, lambda points: phi(points) - points,
                       f"flow[t={t:g}] - id ({field.description})")


def _self_map_images(self_map, points: np.ndarray) -> np.ndarray:
    """The checked call of a user's self-map: self_map(points) as complex, of their shape."""
    images = np.asarray(self_map(points), dtype=complex)
    if images.shape != points.shape:
        raise FieldEvaluationError(
            f"self-map returned shape {images.shape}, expected {points.shape}")
    return images


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
    A t or s that is negative or not finite raises ValueError naming it.
    """
    _check_time_and_tol(t, name="t")
    _check_time_and_tol(s, name="s")
    joint = integrate_autonomous(field, z0, t + s).final_state
    inner = integrate_autonomous(field, z0, s).final_point()
    outer = integrate_autonomous(field, inner, t).final_state
    return _semigroup_report(joint, outer, t, s)


def _semigroup_report(joint: np.ndarray, outer: np.ndarray, t: float, s: float
                      ) -> ResidualReport:
    """Judge Phi_{t+s}(z0) = joint against Phi_t(Phi_s(z0)) = outer."""
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
    return _monotonicity_report(trajectory.domain, trajectory.times, trajectory.states)


def _monotonicity_report(domain: Domain, times: np.ndarray, states: np.ndarray
                         ) -> MonotonicityReport:
    """Judge |u| at a flow line's nodes, times (N,) and states (N, n)."""
    us = np.abs(poisson_values(domain, states))
    increments = np.diff(us)
    min_increment = float(np.min(increments)) if increments.size else 0.0
    return MonotonicityReport(
        times=times,
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
    DomainViolation.  A c that is negative or not finite raises ValueError.
    """
    c, u = _displacement_start(c, z0)
    endpoint = integrate_autonomous(field, z0, t).final_state
    return _displacement_report(c, u, z0, endpoint, t)


def _displacement_start(c: float, z0: DomainPoint) -> tuple[float, float]:
    """The checked class constant c and u(z0), for a z0 the bound is calibrated for."""
    c = _class_constant(c)
    u = poisson(z0)
    if abs(u) < 1.0 - 1e-12:
        raise DomainViolation(
            f"displacement bound needs |u(z0)| >= 1, got {abs(u)}"
        )
    return c, u


def _displacement_report(c: float, u: float, z0: DomainPoint, endpoint: np.ndarray,
                         t: float) -> DisplacementBoundReport:
    """Judge endpoint = Phi_t(z0) against the bound, c and u from _displacement_start."""
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
    flow map or a parsed expression pair; another shape raises
    FieldEvaluationError.  ``passed`` means the largest value is at most 1 +
    c + HOROSPHERE_IMAGE_SLACK.  A c that is negative or not finite raises
    ValueError.
    """
    c = _class_constant(c)
    points = horosphere_samples(2)
    with np.errstate(all="ignore"):
        images = _self_map_images(self_map, points)
    return _horosphere_image_report(points, images, c)


def _horosphere_image_report(points: np.ndarray, images: np.ndarray, c: float
                             ) -> HorosphereImageReport:
    """Judge ``images``, a self-map's values at the horosphere samples ``points``."""
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
_DIVERGENCE_THRESHOLD = 1e6


def iterate_map(
    self_map, z0: DomainPoint, count: int,
    divergence_threshold: float = _DIVERGENCE_THRESHOLD,
) -> IterationDiagnostic:
    """Iterate a self-map and classify the orbit's boundary behavior.

    diverges_to_infinity: some |u(f^k(z))| exceeds the threshold, or |u| is
    nondecreasing along the whole orbit and at least doubles.
    converged_interior: consecutive iterates get closer than 1e-9.
    inconclusive: anything else (the orbit neither settles nor clearly runs
    off to the boundary point at infinity within the budget).

    Every iterate must be a finite (1, n) row (else FieldEvaluationError)
    interior to z0's domain by ``domains._is_interior`` (else
    DomainViolation naming the iteration).
    """
    if count < 0:
        raise ValueError(f"iteration count must be >= 0, got {count}")
    if not (math.isfinite(divergence_threshold) and divergence_threshold > 0.0):
        raise ValueError(
            "divergence threshold must be finite and positive, "
            f"got {divergence_threshold}"
        )

    def orbit():  # lazy: the judge stops asking once the orbit is classified
        image = z0.as_array()[None, :]
        for _ in range(count):
            image = _self_map_images(self_map, image)
            yield image

    with np.errstate(all="ignore"):
        return _orbit_report(z0, orbit(), divergence_threshold)


def _orbit_report(z0: DomainPoint, images, divergence_threshold: float = _DIVERGENCE_THRESHOLD
                  ) -> IterationDiagnostic:
    """Classify the orbit of z0 whose iterates ``images`` yields as (1, n) rows.

    The rules are ``iterate_map``'s: it reads iterates until one stops the
    orbit, and ``iterations`` counts the iterates it read.
    """
    domain = z0.domain
    current = z0.as_array()[None, :]
    us = [abs(float(poisson_values(domain, current)[0]))]
    tag = None
    performed = 0
    for image in images:
        performed += 1
        inside, u = _interior_and_poisson(domain, image)
        if not inside[0]:
            if not np.isfinite(image).all():
                raise FieldEvaluationError("self-map produced non-finite iterate")
            point = ", ".join(format_complex(c) for c in image[0])
            raise DomainViolation(
                f"iterate {performed} ({point}) is not interior to {domain.value}"
            )
        step = float(_max(np.abs(image - current), axis=None))  # I 2-3% (README)
        current = image
        us.append(abs(float(u[0])))
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


# extract_capacity's window: the points iy, 1 <= y <= 1e5 (its docstring).
_SELF_MAP_WINDOW = 1j * np.geomspace(CAPACITY_DEFAULTS["y_min"], 1e5, CAPACITY_DEFAULTS["count"])


def extract_capacity(self_map) -> CapacityEstimate:
    """Capacity of a 1-d self-map via the tail of y |f(iy) - iy|, 1 <= y <= 1e5.

    The self-map is called once, on the (m, 1) points iy of the self-map
    window, and must return that shape (else FieldEvaluationError); the
    displacement f - id there is judged as :func:`slice_capacities` judges a
    half-plane field.  The window stops below the field estimator's y_max
    because computing f(iy) - iy at height y loses about y * ulp(y) to
    cancellation; beyond y ~ 1e5 the roundoff noise would dominate the tail
    for double precision.
    """
    with np.errstate(all="ignore"):
        displacement = _self_map_images(self_map, _SELF_MAP_WINDOW[:, None]).T - _SELF_MAP_WINDOW
    return _tail_estimates(_SELF_MAP_WINDOW, displacement, "self-map displacement")[0]
