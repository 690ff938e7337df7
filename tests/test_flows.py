"""Flow integration: endpoints, adaptivity, semigroup laws, and diagnostics."""

import functools
import hashlib
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelflow import flows
from siegelflow.cli import main
from siegelflow.domains import (
    Domain,
    DomainPoint,
    _is_interior,
    disc_point,
    half_plane_point,
    interior_margin,
    poisson,
    siegel_point,
)
from siegelflow.errors import (
    ArityMismatchError,
    CoverageGap,
    DomainViolation,
    FieldEvaluationError,
    StepSizeUnderflow,
)
from siegelflow.fields import (
    DiscreteMeasure,
    VectorField,
    builtin,
    cauchy_transform,
    eval_field,
    parse_field,
    zero_field,
)
from siegelflow.flows import (
    DEFAULT_TOL,
    MONOTONICITY_SLACK,
    _advance,
    HerglotzField,
    displacement_bound_check,
    displacement_field,
    displacement_integral,
    extract_capacity,
    flow_map,
    horosphere_image_check,
    integrate_autonomous,
    integrate_fixed_steps,
    integrate_loewner,
    iterate_map,
    julia_monotonicity,
    semigroup_check,
)
from siegelflow.grids import halfplane_grid, siegel_grid_small


# ---------------------------------------------------------------------------
# Endpoint oracles
# ---------------------------------------------------------------------------

def test_disc_contraction_endpoint():
    traj = integrate_autonomous(parse_field("-z", 1), disc_point(0.4 + 0.2j), 1.0)
    expected = (0.4 + 0.2j) * math.exp(-1.0)
    assert abs(complex(traj.final_state[0]) - expected) < 1e-10


def test_example1_flow_endpoint():
    # z1 stays put, z2 picks up the factor exp(-i t / z1)
    z1, z2 = 2j, 0.7
    traj = integrate_autonomous(builtin("example1"), siegel_point(z1, z2), 1.0)
    expected = np.array([z1, z2 * np.exp(-1j / z1)])
    assert np.max(np.abs(traj.final_state - expected)) < 1e-10


def test_reciprocal_flow_endpoint():
    for z0 in (2j, 1 + 2j):
        traj = integrate_autonomous(builtin("reciprocal"), half_plane_point(z0), 1.0)
        expected = np.sqrt(z0 * z0 - 2.0)
        assert abs(complex(traj.final_state[0]) - expected) < 1e-10


def test_trajectory_diagnostics_and_csv(tmp_path, capsys):
    traj = integrate_autonomous(builtin("reciprocal"), half_plane_point(1j), 1.0)
    assert traj.steps_accepted > 0
    assert traj.max_local_error <= DEFAULT_TOL
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    out = tmp_path / "traj.csv"
    assert main(["flow", "--field", "builtin:reciprocal", "--z0", "i", "--t", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re_z1,im_z1,u"
    assert len(lines) == len(traj.times) + 1


def test_tolerance_controls_error():
    coarse = integrate_autonomous(
        builtin("reciprocal"), half_plane_point(1j), 1.0, tol=1e-6
    )
    fine = integrate_autonomous(
        builtin("reciprocal"), half_plane_point(1j), 1.0, tol=1e-12
    )
    exact = 1j * math.sqrt(3.0)
    assert abs(complex(fine.final_state[0]) - exact) < abs(
        complex(coarse.final_state[0]) - exact
    ) + 1e-15
    assert fine.steps_accepted > coarse.steps_accepted


def test_integration_is_deterministic():
    a = integrate_autonomous(builtin("example2"), siegel_point(1j, 0.5), 1.0)
    b = integrate_autonomous(builtin("example2"), siegel_point(1j, 0.5), 1.0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_fixed_steps_has_fifth_order():
    z1c, z2c = 3.0 + 1j, 0.7 + 0.2j
    target = np.array([z1c, z2c * np.exp(-1j / z1c)])
    errors = []
    for steps in (4, 8, 16, 32):
        end = integrate_fixed_steps(
            builtin("example1"), siegel_point(z1c, z2c), 1.0, steps
        )
        errors.append(float(np.max(np.abs(end - target))))
    slopes = [math.log2(errors[k] / errors[k + 1]) for k in range(3)]
    assert all(abs(slope - 5.0) < 1.0 for slope in slopes)


def test_step_size_underflow_at_boundary_exit():
    # constant downward drift leaves the half-plane at t = 1
    with pytest.raises(StepSizeUnderflow):
        integrate_autonomous(parse_field("-i", 1), half_plane_point(1j), 2.0)


# ---------------------------------------------------------------------------
# Piecewise drivers
# ---------------------------------------------------------------------------

def test_two_piece_loewner_endpoint():
    driver = HerglotzField((
        (0.0, 1.0, parse_field("-1/z", 1)),
        (1.0, 2.0, parse_field("-2/z", 1)),
    ))
    traj = integrate_loewner(driver, half_plane_point(1j), 2.0)
    assert abs(complex(traj.final_state[0]) - 1j * math.sqrt(7.0)) < 1e-10


def test_loewner_restart_invariance():
    whole = HerglotzField(((0.0, 2.0, builtin("reciprocal")),))
    split = HerglotzField((
        (0.0, 0.7, builtin("reciprocal")),
        (0.7, 2.0, builtin("reciprocal")),
    ))
    z0 = half_plane_point(1 + 2j)
    a = integrate_loewner(whole, z0, 2.0, tol=1e-13)
    b = integrate_loewner(split, z0, 2.0, tol=1e-13)
    assert abs(complex(a.final_state[0]) - complex(b.final_state[0])) < 1e-12


def test_single_piece_matches_autonomous_exactly():
    piece = HerglotzField(((0.0, 1.5, builtin("reciprocal")),))
    z0 = half_plane_point(2j)
    a = integrate_loewner(piece, z0, 1.5)
    b = integrate_autonomous(builtin("reciprocal"), z0, 1.5)
    for name in ("times", "states"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.steps_accepted, a.steps_rejected, a.max_local_error) == (
        b.steps_accepted, b.steps_rejected, b.max_local_error
    )


def test_single_piece_makes_as_many_field_calls_as_autonomous():
    calls = []

    def counted(points):
        calls.append(1)
        return -1.0 / points

    field = VectorField(1, counted, "-1/z")
    z0 = half_plane_point(1j)
    integrate_autonomous(field, z0, 1.0)
    autonomous = len(calls)
    calls.clear()
    integrate_loewner([(0.0, 1.0, field)], z0, 1.0)
    assert len(calls) == autonomous


def test_a_one_point_flow_map_makes_one_field_call_per_stage(field_evaluations):
    # One checked evaluation at z0 through VectorField.__call__, then six
    # in-place stage fills per attempted step, none of them a call.
    field = parse_field("-1/z^3", 1)
    z0 = half_plane_point(0.5 + 0.2j)
    trajectory = integrate_autonomous(field, z0, 3.0)
    assert trajectory.steps_rejected >= 1
    calls = field_evaluations
    calls.clear()
    image = flow_map(field, 3.0)(z0.as_array()[None, :])
    assert np.array_equal(image[0], trajectory.final_state)
    steps = trajectory.steps_accepted + trajectory.steps_rejected
    assert len(calls) == 1 + 6 * steps
    assert calls[0] == "call" and calls.count("call") == 1


@pytest.mark.parametrize("make", [
    pytest.param(lambda: parse_field("-1/z1; z2/(2*z1^2)"), id="parsed"),
    pytest.param(lambda: builtin("example2"), id="built-in"),
])
def test_a_tracer_style_call_wrapper_sees_each_integration_start(monkeypatch, make):
    # The bench tracer wraps VectorField.__call__ with a (field, points)
    # function.  Each integration reaches it once, with its start rows and
    # no other argument; its stages fill in place and do not reach it.
    field = make()
    points = siegel_grid_small(2)[:64]
    z0 = siegel_point(1j, 0.5)
    image, line = flow_map(field, 1.0)(points), integrate_autonomous(field, z0, 0.5)
    seen, steps = [], []
    call, stages = VectorField.__call__, flows._stages

    @functools.wraps(call)
    def traced(field, points):
        seen.append(points.copy())
        return call(field, points)

    def counted_stages(*args):
        steps.append(1)
        return stages(*args)

    monkeypatch.setattr(VectorField, "__call__", traced)
    monkeypatch.setattr(flows, "_stages", counted_stages)
    assert flow_map(field, 1.0)(points).tobytes() == image.tobytes()
    assert np.array_equal(integrate_autonomous(field, z0, 0.5).states, line.states)
    assert len(steps) > 2  # stages ran, none through the wrapper
    assert [rows.tobytes() for rows in seen] == [points.tobytes(), z0.as_array()[None].tobytes()]


@pytest.mark.parametrize("points", [np.array([[1j, 0.5]]), siegel_grid_small(2)[:64]],
                         ids=["one point", "64 points"])
def test_a_flow_map_on_its_own_result_resumes_from_the_fsal_stage(field_evaluations,
                                                                  points):
    # The second call starts from the stages the first one ended on, which
    # hold the field at its rows, so it skips the start evaluation and gives
    # a fresh evaluator's images on a copy of those rows, bit for bit.
    field = builtin("example2")
    step = flow_map(field, 0.5)
    image = step(points)
    calls = field_evaluations
    calls.clear()
    twice = step(image)
    resumed = len(calls)
    calls.clear()
    fresh = flow_map(field, 0.5)(image.copy())
    assert twice.tobytes() == fresh.tobytes()
    assert resumed == len(calls) - 1


@pytest.mark.parametrize("change", ["write into the result", "a different point"])
def test_a_flow_map_on_anything_but_its_last_result_starts_afresh(field_evaluations,
                                                                  change):
    field = builtin("example2")
    z = np.array([[1j, 0.5]])
    step = flow_map(field, 0.5)
    image = step(z)
    if change == "write into the result":
        image[0, 1] += 0.25
        points = image
    else:
        points = np.array([[2j, 0.5]])
    calls = field_evaluations
    calls.clear()
    got = step(points)
    made = len(calls)
    calls.clear()
    fresh = flow_map(field, 0.5)(points.copy())
    assert got.tobytes() == fresh.tobytes()
    assert made == len(calls)


def test_threads_sharing_a_flow_map_get_fresh_images():
    # Each thread iterates its own point through one shared evaluator, so the
    # kept result changes under it between calls; every image must still be
    # the one a fresh evaluator gives.
    field = builtin("example2")
    step = flow_map(field, 0.3)
    starts = [np.array([[(1 + k) * 1j, 0.1 * k]]) for k in range(4)]
    orbits = [[] for _ in starts]

    def walk(k):
        z = starts[k]
        for _ in range(15):
            z = step(z)
            orbits[k].append(z)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(k,)) for k in range(len(starts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for start, orbit in zip(starts, orbits):
        assert len(orbit) == 15
        z = start
        for image in orbit:
            z = flow_map(field, 0.3)(z)
            assert image.tobytes() == z.tobytes()


def test_coverage_gap_rejected():
    with pytest.raises(CoverageGap):
        HerglotzField((
            (0.0, 1.0, builtin("reciprocal")),
            (1.5, 2.0, builtin("reciprocal")),
        ))
    driver = HerglotzField(((0.5, 2.0, builtin("reciprocal")),))
    with pytest.raises(CoverageGap):
        integrate_loewner(driver, half_plane_point(1j), 2.0)


# ---------------------------------------------------------------------------
# Flow maps and semigroup structure
# ---------------------------------------------------------------------------

def test_flow_map_lockstep_matches_single_runs():
    step = flow_map(builtin("example2"), 0.5)
    pts = np.array([[1j, 0.5], [2j, 0.0], [3j, 1.0]])
    batch = step(pts)
    for k in range(3):
        single = integrate_autonomous(
            builtin("example2"),
            siegel_point(*pts[k]),
            0.5,
        ).final_state
        assert np.array_equal(batch[k], single)


def _batch_field(name: str) -> VectorField:
    """A built-in field by name, a two-atom Cauchy transform, or a parsed field."""
    if name == "cauchy":
        return cauchy_transform(DiscreteMeasure(((-1.0, 0.5), (2.0, 1.5))))
    if name in ("example1", "example2", "reciprocal"):
        return builtin(name)
    return parse_field(name)


# The parsed fields are the ones the benchmark's orbit workload flows, so
# every field kind the benchmark runs is here: a change to any of their
# evaluators that makes a row's bits depend on its batch fails this test.
@pytest.mark.parametrize("name, grid", [
    ("example2", siegel_grid_small(2)),
    ("reciprocal", halfplane_grid()[::37]),
    ("example1", siegel_grid_small(2)),
    pytest.param("-1/z1; z2/(2*z1^2)", siegel_grid_small(2), id="parsed-example2"),
    pytest.param("0; -i*z2/z1", siegel_grid_small(2), id="parsed-example1"),
    ("cauchy", halfplane_grid()[::37]),
])
def test_flow_map_batch_is_bit_identical_to_each_point_alone(name, grid):
    # Low points (Im z1 <= 0.1) take far more steps than high ones; each keeps
    # its own step control, so batching changes no bit of any endpoint.
    assert grid[:, 0].imag.min() <= 0.1 and grid[:, 0].imag.max() >= 100
    t = 1.0
    step = flow_map(_batch_field(name), t)
    batch = step(grid)
    alone = np.array([step(point[None, :])[0] for point in grid])
    assert np.array_equal(batch, alone)
    assert np.array_equal(step(grid[::-1])[::-1], batch)

    z1 = grid[:, 0]
    if name == "cauchy":
        return  # no closed form
    if name in ("example1", "0; -i*z2/z1"):
        # z1 stays put, z2(t) = z2 exp(-i t / z1).
        exact = np.stack([z1, grid[:, 1] * np.exp(-1j * t / z1)], axis=1)
    else:
        # z1(t) = sqrt(z1^2 - 2t), z2(t) = z2 sqrt(z1 / z1(t)).
        z1t = np.sqrt(z1 * z1 - 2.0 * t)
        z1t = np.where(z1t.imag < 0, -z1t, z1t)
        exact = z1t[:, None]
        if grid.shape[1] == 2:
            exact = np.stack([z1t, grid[:, 1] * np.sqrt(z1 / z1t)], axis=1)
    assert np.max(np.abs(batch - exact)) <= 10 * DEFAULT_TOL * t


# SHA-256 of the endpoint bytes (complex128, C order) from the row-major
# kernel that preceded the component-major stage buffers.  The layout moved
# no addition, so no bit of any endpoint may move either.
@pytest.mark.parametrize("name, grid, digest", [
    ("example2", siegel_grid_small(2),
     "7534cf9664753d1242031b768c2554ce1e21047752a24baf1449380e4807b6fb"),
    ("reciprocal", halfplane_grid()[::37],
     "001b9251f685756a7e15d6a95c53e2b2dd77fb2b370e9e8d1c7defa6c5f97232"),
])
def test_flow_map_endpoints_are_pinned_bit_for_bit(name, grid, digest):
    endpoints = flow_map(builtin(name), 1.0)(grid)
    assert endpoints.dtype == complex and endpoints.shape == grid.shape
    assert hashlib.sha256(np.ascontiguousarray(endpoints).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("uniform", [False, True], ids=["mixed ends", "one end"])
def test_a_pooled_advance_gives_each_row_its_solo_run(uniform):
    # Per-row end times from t0 = 0.5: row 0 rejects a step and runs longest,
    # rows 1, 2 and 4 stop at other iterations, and row 3's span, 4.4e-16,
    # is under its floor of 1e-15, so it takes no step.
    field = parse_field("-1/z^3", 1)
    t0 = 0.5
    starts = np.array([[0.5 + 0.2j], [1 + 1j], [2j], [0.3 + 0.4j], [-1 + 3j]])
    ends = np.full(5, 1.7) if uniform else np.array([3.5, 1.7, 2.9, t0 + 4e-16, 1.2])
    solo = [_advance(field, Domain.HALF_PLANE, starts[i:i + 1], t0, float(ends[i]),
                     DEFAULT_TOL) for i in range(len(starts))]
    pooled = _advance(field, Domain.HALF_PLANE, starts, t0, ends, DEFAULT_TOL)
    for i, seg in enumerate(solo):
        assert pooled.y[i].tobytes() == seg.y[0].tobytes(), i
        assert pooled.k[i].tobytes() == seg.k[0].tobytes(), i
    assert pooled.accepted == sum(seg.accepted for seg in solo)
    assert pooled.rejected == sum(seg.rejected for seg in solo)
    assert pooled.max_error == max(seg.max_error for seg in solo)
    if uniform:
        # A float end runs the same per-row code as m equal ends.
        scalar = _advance(field, Domain.HALF_PLANE, starts, t0, 1.7, DEFAULT_TOL)
        assert (scalar.y.tobytes(), scalar.accepted, scalar.rejected) == (
            pooled.y.tobytes(), pooled.accepted, pooled.rejected)
    else:
        assert solo[0].rejected >= 1
        assert solo[3].accepted == 0 and solo[3].y.tobytes() == starts[3].tobytes()
        assert len({seg.accepted for seg in solo}) == len(solo)


def test_a_recorded_pooled_advance_keeps_each_rows_solo_nodes():
    # The mixed ends above: row 0 rejects the first step, which rows 1, 2
    # and 4 accept, row 3 takes no step, and the rows stop at different
    # iterations.  Every row's nodes are the ones its solo run records.
    field = parse_field("-1/z^3", 1)
    t0 = 0.5
    starts = np.array([[0.5 + 0.2j], [1 + 1j], [2j], [0.3 + 0.4j], [-1 + 3j]])
    ends = np.array([3.5, 1.7, 2.9, t0 + 4e-16, 1.2])
    solo = [_advance(field, Domain.HALF_PLANE, starts[i:i + 1], t0, float(ends[i]),
                     DEFAULT_TOL, record=True) for i in range(len(starts))]
    pooled = _advance(field, Domain.HALF_PLANE, starts, t0, ends, DEFAULT_TOL, record=True)
    assert pooled.nodes[1][0].tolist() == [1, 2, 4]  # the partly accepted first step
    assert solo[0].rejected == 1 and len({seg.accepted for seg in solo}) == len(solo)
    for i, seg in enumerate(solo):
        times, states = pooled.trajectory(i)
        solo_times, solo_states = seg.trajectory()
        assert len(times) == seg.accepted + 1, i
        assert times.tobytes() == solo_times.tobytes(), i
        assert states.tobytes() == solo_states.tobytes(), i
        assert states.shape == (len(times), 1) and states.flags.c_contiguous
    assert pooled.accepted == sum(seg.accepted for seg in solo)
    assert pooled.rejected == sum(seg.rejected for seg in solo)


# Fields for the pooled-against-solo property, each with its domain and a
# few interior start points.  Every flow stays inside for all times, and at
# tol 1e-10 example1 and the Cauchy field reject some rows' steps.
_POOLABLE = {
    "example1": (lambda: builtin("example1"), Domain.SIEGEL),
    "example2": (lambda: builtin("example2"), Domain.SIEGEL),
    "parsed": (lambda: parse_field("-1/z", 1), Domain.HALF_PLANE),
    "cauchy": (lambda: cauchy_transform(DiscreteMeasure(((0.4, 0.5), (1.5, 2.0)))),
               Domain.HALF_PLANE),
}
_STARTS = {
    Domain.SIEGEL: np.array([[1j, 0.5], [2j, 0.0], [0.5 + 3j, 1.0], [4j, -1j],
                             [0.1 + 1.2j, 0.3 + 0.2j]]),
    Domain.HALF_PLANE: np.array([[0.5 + 0.2j], [1 + 1j], [2j], [0.3 + 0.4j], [-1 + 3j]]),
}


@st.composite
def _pooled_runs(draw, min_rows):
    """A field, its domain, start rows, t0, per-row ends, a tolerance, record, k0."""
    name = draw(st.sampled_from(sorted(_POOLABLE)))
    make, domain = _POOLABLE[name]
    index = draw(st.lists(st.integers(0, 4), min_size=min_rows, max_size=4))
    t0 = draw(st.sampled_from([0.0, 0.5, 3.0]))
    # Spans from none and one under the end's floor of 1e-15 up to 1.5.
    spans = draw(st.lists(st.sampled_from([0.0, 4e-16, 0.05, 0.3, 0.8, 1.5]),
                          min_size=len(index), max_size=len(index)))
    tol = draw(st.sampled_from([1e-6, 1e-8, DEFAULT_TOL]))
    return (make(), domain, _STARTS[domain][index], t0, t0 + np.array(spans), tol,
            draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(_pooled_runs(min_rows=0))
def test_every_pooled_advance_row_is_its_solo_run(run):
    field, domain, starts, t0, ends, tol, record, carry = run
    k0 = None
    if carry:  # rows and FSAL stages an earlier call returned
        first = _advance(field, domain, starts, t0, t0 + 0.1, tol)
        starts, k0 = first.y, first.k
    pooled = _advance(field, domain, starts, t0, ends, tol, record=record, k0=k0)
    for i in range(len(starts)):
        solo = _advance(field, domain, starts[i:i + 1], t0, float(ends[i]), tol,
                        record=record, k0=None if k0 is None else k0[i:i + 1])
        assert pooled.y[i].tobytes() == solo.y[0].tobytes(), i
        assert pooled.k[i].tobytes() == solo.k[0].tobytes(), i
        if record:
            nodes, solo_nodes = pooled.trajectory(i), solo.trajectory()
            assert [a.tobytes() for a in nodes] == [a.tobytes() for a in solo_nodes], i


@st.composite
def _chained_runs(draw):
    """A field, its domain, start rows, one chain of (t0, t1) legs per row,
    a tolerance, record and k0."""
    make, domain = _POOLABLE[draw(st.sampled_from(sorted(_POOLABLE)))]
    index = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    # Starts from 0 and from nonzero times, like a Loewner schedule split at
    # 0.7; spans from none and one under the end's floor up to 0.8.
    leg = st.tuples(st.sampled_from([0.0, 0.7, 3.0]),
                    st.sampled_from([0.0, 4e-16, 0.05, 0.3, 0.8]))
    chains = [[(t0, t0 + span) for t0, span in draw(st.lists(leg, min_size=1, max_size=5))]
              for _ in index]
    tol = draw(st.sampled_from([1e-6, 1e-8, DEFAULT_TOL]))
    return (make(), domain, _STARTS[domain][index], chains, tol,
            draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(_chained_runs())
def test_every_chained_leg_is_a_fresh_solo_run(run):
    # Each chain's legs are consecutive, each naming the next.  A leg
    # restarts from the FSAL stage of the leg before it, and a head with k0
    # from an earlier call's, yet each must be a fresh call from its start.
    field, domain, starts, chains, tol, record, carry = run
    k0 = None
    if carry:
        first = _advance(field, domain, starts, 0.0, 0.1, tol)
        starts, k0 = first.y, first.k
    legs = [leg for chain in chains for leg in chain]
    then = np.arange(1, len(legs) + 1)
    then[np.cumsum([len(chain) for chain in chains]) - 1] = -1
    t0, t1 = np.array(legs).T
    pooled = _advance(field, domain, starts, t0, t1, tol, record=record, k0=k0, then=then)
    i = 0
    for start, chain in zip(starts, chains):
        y = start[None]
        for t0, t1 in chain:
            solo = _advance(field, domain, y, t0, t1, tol, record=record)
            assert pooled.y[i].tobytes() == solo.y[0].tobytes(), i
            assert pooled.k[i].tobytes() == solo.k[0].tobytes(), i
            if record:
                nodes, solo_nodes = pooled.trajectory(i), solo.trajectory()
                assert [a.tobytes() for a in nodes] == [a.tobytes() for a in solo_nodes], i
            y, i = solo.y, i + 1
    assert pooled.y.shape == (len(legs), starts.shape[1])


# Parts for the merged-call property, by dimension: fields of one dimension
# in their domains, with the -z contraction on the disc beside the
# half-plane fields.
_PARTS = {
    2: {**{name: _POOLABLE[name] for name in ("example1", "example2")},
        "zero": (lambda: zero_field(2), Domain.SIEGEL)},
    1: {**{name: _POOLABLE[name] for name in ("parsed", "cauchy")},
        "contraction": (lambda: parse_field("-z", 1), Domain.DISC)},
}
_STARTS[Domain.DISC] = np.array([[0.3 + 0.2j], [-0.5j], [0.1], [0.6 - 0.1j], [-0.2 + 0.4j]])


@st.composite
def _merged_runs(draw):
    """2-3 parts of one dimension, each (field, domain, starts, chains of
    (t0, t1, tol) legs, record mask), and k0."""
    table = _PARTS[draw(st.sampled_from(sorted(_PARTS)))]
    leg = st.tuples(st.sampled_from([0.0, 0.7, 3.0]),
                    st.sampled_from([0.0, 4e-16, 0.05, 0.3, 0.8]),
                    st.sampled_from([1e-6, 1e-8, DEFAULT_TOL]))
    parts = []
    for name in draw(st.lists(st.sampled_from(sorted(table)), min_size=2, max_size=3)):
        make, domain = table[name]
        index = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
        chains = [[(t0, t0 + span, tol) for t0, span, tol in
                   draw(st.lists(leg, min_size=1, max_size=3))] for _ in index]
        noted = draw(st.lists(st.booleans(), min_size=sum(map(len, chains)),
                              max_size=sum(map(len, chains))))
        parts.append((make(), domain, _STARTS[domain][index], chains, np.array(noted)))
    return parts, draw(st.sampled_from([False, True, "mask"])), draw(st.booleans())


def _leg_arrays(chains):
    """t0, t1, tol and then of chains of (t0, t1, tol) legs, laid out in order."""
    legs = [leg for chain in chains for leg in chain]
    then = np.arange(1, len(legs) + 1)
    then[np.cumsum([len(chain) for chain in chains]) - 1] = -1
    return (*np.array(legs).T, then)


@settings(max_examples=60, deadline=None)
@given(_merged_runs())
def test_every_leg_of_a_merged_call_is_its_one_part_run(run):
    # Parts of different fields, domains and tolerances share one call's
    # steps, yet each leg must end as the call of its part alone ends it.
    parts, record, carry = run
    alone = []
    for field, domain, starts, chains, noted in parts:
        k0 = None
        if carry:
            first = _advance(field, domain, starts, 0.0, 0.1, DEFAULT_TOL)
            starts, k0 = first.y, first.k
        t0, t1, tol, then = _leg_arrays(chains)
        mask = noted if record == "mask" else record
        alone.append((starts, k0, t0, t1, tol, then, mask,
                      _advance(field, domain, starts, t0, t1, tol, record=mask, k0=k0,
                               then=then)))
    columns = list(zip(*alone))
    shifts = np.cumsum([0] + [len(then) for then in columns[5]])[:-1]
    merged = _advance(
        None, None, np.concatenate(columns[0]),
        *(np.concatenate(column) for column in columns[2:5]),
        record=np.concatenate(columns[6]) if record == "mask" else record,
        k0=None if not carry else np.concatenate(columns[1]),
        then=np.concatenate([np.where(then >= 0, then + shift, -1)
                             for then, shift in zip(columns[5], shifts)]),
        parts=[(field, domain, len(then))
               for (field, domain, *_), then in zip(parts, columns[5])])
    for (starts, _, t0, t1, tol, then, _, seg), part in zip(alone, parts):
        # Each leg with its own tolerance is a fresh solo call from its start.
        y = iter(starts)
        for i in range(len(then)):
            start = seg.y[i - 1] if i and then[i - 1] == i else next(y)
            solo = _advance(*part[:2], start[None], t0[i], t1[i], tol[i])
            assert seg.y[i].tobytes() == solo.y[0].tobytes(), i
    for (*_, then, mask, seg), shift in zip(alone, shifts):
        for i in range(len(then)):
            assert merged.y[shift + i].tobytes() == seg.y[i].tobytes(), (shift, i)
            assert merged.k[shift + i].tobytes() == seg.k[i].tobytes(), (shift, i)
            if record is True or (record == "mask" and mask[i]):
                nodes, own = merged.trajectory(shift + i), seg.trajectory(i)
                assert [a.tobytes() for a in nodes] == [a.tobytes() for a in own], (shift, i)
    if record == "mask":  # the legs a mask leaves out keep no node
        kept = {int(i) for rows, _, _ in merged.nodes for i in rows}
        assert kept == set(np.flatnonzero(np.concatenate(columns[6])).tolist())


@pytest.mark.parametrize("calls", [0, 1], ids=["at its start", "in a stage"])
def test_a_part_that_raises_fails_the_merged_call(calls):
    # The broken part's field answers its first ``calls`` calls, then raises.
    def broken(points):
        answered.append(1)
        if len(answered) > calls:
            raise RuntimeError("broken part")
        return builtin("example2")(points)

    good = (builtin("example2"), Domain.SIEGEL, 1)
    bad = (VectorField(2, broken, "broken"), Domain.SIEGEL, 1)
    for parts in ([good, bad], [bad, good]):
        answered = []
        with pytest.raises(RuntimeError, match="broken part"):
            _advance(None, None, np.array([[1j, 0.5], [2j, 0.0]]), 0.0, 1.0, DEFAULT_TOL,
                     parts=parts)


def test_advance_on_an_empty_batch_calls_no_field():
    calls = []

    def evaluator(pts):
        calls.append(len(pts))
        return builtin("example2")(pts)

    field = VectorField(2, evaluator, "counted example2")
    seg = _advance(field, Domain.SIEGEL, np.empty((0, 2)), 0.0, 1.0, DEFAULT_TOL, record=True)
    assert seg.y.shape == seg.k.shape == (0, 2) and seg.y.dtype == complex
    assert (seg.accepted, seg.rejected, calls) == (0, 0, [])
    with pytest.raises(ArityMismatchError, match="points have dimension 3, field expects 2"):
        _advance(field, Domain.SIEGEL, np.empty((0, 3)), 0.0, 1.0, DEFAULT_TOL)
    assert calls == []


@settings(max_examples=25, deadline=None)
@given(_pooled_runs(min_rows=0))
def test_every_flow_map_row_is_its_solo_image(run):
    # One time for every row; a second call on the result resumes from its
    # FSAL stages, and each row must still be its solo run's image.
    field, domain, starts, _, ends, tol, _, again = run
    t = float(ends[0]) if len(ends) else 0.5
    pooled, solo = flow_map(field, t, tol, domain), flow_map(field, t, tol, domain)
    calls = 2 if again else 1
    images = starts
    for _ in range(calls):
        images = pooled(images)
    assert images.shape == starts.shape
    for i in range(len(starts)):
        image = starts[i:i + 1]
        for _ in range(calls):
            image = solo(image)
        assert images[i].tobytes() == image[0].tobytes(), i


@pytest.mark.parametrize("stage", [1, 3, 6])
def test_a_non_finite_stage_rejects_only_that_rows_step(stage):
    field = builtin("example2")
    points = np.array([[1j, 0.5], [2j, 0.0], [0.5 + 3j, 1.0], [4j, -1j]])
    poisoned_row, t = 2, 0.5
    calls = []

    def evaluator(pts):
        values = field(pts)
        calls.append(len(pts))
        # Call 1 is the field at the start points; call 1 + i is stage i of
        # the first step, which every row takes.
        if len(calls) == 1 + stage:
            values[poisoned_row] = np.nan
        return values

    poisoned = VectorField(2, evaluator, "example2 with one non-finite stage")
    clean = _advance(field, Domain.SIEGEL, points, 0.0, t, DEFAULT_TOL)
    seg = _advance(poisoned, Domain.SIEGEL, points, 0.0, t, DEFAULT_TOL)
    assert calls[stage] == len(points)
    assert seg.rejected == clean.rejected + 1
    np.testing.assert_allclose(seg.y[poisoned_row], clean.y[poisoned_row], rtol=1e-8)
    alone = flow_map(field, t)
    for k in range(len(points)):
        if k != poisoned_row:
            assert np.array_equal(seg.y[k], alone(points[k:k + 1])[0])


@pytest.mark.parametrize("wrong", [
    lambda pts: pts.T,
    lambda pts: pts[:, :1],
    lambda pts: pts.T.tolist(),
    lambda pts: np.ones((len(pts), 3)),
])
def test_a_wrong_shaped_field_result_names_the_expected_shape(wrong):
    field = VectorField(2, wrong, "wrong shape")
    points = siegel_grid_small(2)[:5]
    with pytest.raises(FieldEvaluationError,
                       match=r"^field returned shape \(\d+, \d+\), expected \(5, 2\)$"):
        flow_map(field, 0.5)(points)


@pytest.mark.parametrize("name, convert", [
    ("example2", lambda values: values.tolist()),
    ("reciprocal", lambda values: values.tolist()),
    ("real", lambda values: values.real.copy()),
    ("real", lambda values: values.real.tolist()),
])
def test_a_float_or_list_field_result_integrates_like_its_complex_twin(name, convert):
    # A horizontal drift with a height-dependent speed has real values, which
    # its converted field returns as a float64 array or a list of floats.
    twin = (VectorField(1, lambda pts: np.cos(pts.imag) + 0j, "real drift")
            if name == "real" else builtin(name))
    field = VectorField(twin.dimension, lambda pts: convert(twin(pts)), "converted")
    points = (siegel_grid_small(2) if twin.dimension == 2 else halfplane_grid())[::41]
    expected = flow_map(twin, 0.7)(points)
    assert flow_map(field, 0.7)(points).tobytes() == expected.tobytes()
    assert flow_map(field, 0.7)(points[:1]).tobytes() == expected[:1].tobytes()


def test_flow_map_of_an_empty_batch_calls_no_field():
    calls = []

    def evaluator(pts):
        calls.append(len(pts))
        return builtin("example2")(pts)

    step = flow_map(VectorField(2, evaluator, "counted example2"), 1.0)
    empty = np.empty((0, 2), dtype=complex)
    assert step(empty).shape == (0, 2)
    assert step(np.empty((3, 0, 2))).shape == (3, 0, 2)
    assert flow_map(builtin("example2"), 1.0)(empty).dtype == complex
    assert calls == []


def test_flow_map_batch_fails_when_one_point_leaves_the_domain():
    # Constant downward drift: only the point at height 1 exits before t = 2.
    step = flow_map(parse_field("-i", 1), 2.0)
    assert np.allclose(step(np.array([[5j], [3j]])), [[3j], [1j]])
    with pytest.raises(StepSizeUnderflow):
        step(np.array([[5j], [1j], [3j]]))


@pytest.mark.parametrize("field", [zero_field(2), builtin("example2")],
                         ids=["zero", "example2"])
@pytest.mark.parametrize("bad", [[np.nan + 1j, 0.5], [1j, np.nan],
                                 [complex(0, np.inf), 0.5]],
                         ids=["nan-z1", "nan-z2", "inf-im-z1"])
def test_flow_map_rejects_non_finite_points(field, bad):
    # DomainPoint's rule: every row finite, with margin above INTERIOR_MARGIN.
    step = flow_map(field, 1.0)
    for points in (np.array([bad]), np.array([[2j, 0.5], bad])):
        with pytest.raises(DomainViolation):
            step(points)


# Rows at the edge of the interior rule in each domain, and one interior point
# to start iterate_map from.  Only the "2e-12" rows are interior.
_START = {Domain.DISC: (0.3,), Domain.HALF_PLANE: (1j,),
          Domain.BALL: (0.1, 0.2), Domain.SIEGEL: (1j, 0.5)}
_EDGE_ROWS = {
    Domain.DISC: {"nan": [np.nan], "+inf": [np.inf], "-inf": [complex(0, -np.inf)],
                  "0": [1.0], "5e-13": [1 - 5e-13], "2e-12": [-1 + 2e-12]},
    Domain.HALF_PLANE: {"nan": [complex(np.nan, 1)], "+inf": [complex(0, np.inf)],
                        "-inf": [complex(-np.inf, 1)], "0": [2.0],
                        "5e-13": [complex(3, 5e-13)], "2e-12": [complex(-3, 2e-12)]},
    Domain.BALL: {"nan": [0.1, np.nan], "+inf": [np.inf, 0.0],
                  "-inf": [0.1, complex(0, -np.inf)], "0": [0.0, 1j],
                  "5e-13": [1 - 5e-13, 0.0], "2e-12": [0.0, -1 + 2e-12]},
    Domain.SIEGEL: {"nan": [complex(np.nan, 1), 0.5], "+inf": [complex(0, np.inf), 0.5],
                    "-inf": [1j, complex(-np.inf, 0)], "0": [4j, 2.0],
                    "5e-13": [complex(1, 1 + 5e-13), 1.0],
                    "2e-12": [complex(-1, 1 + 2e-12), 1j]},
}


@pytest.mark.parametrize("domain, label", [
    (domain, label) for domain, rows in _EDGE_ROWS.items() for label in rows
])
def test_entry_points_agree_on_the_interior_rule(domain, label):
    row = np.array(_EDGE_ROWS[domain][label], dtype=complex)
    if label[0].isdigit():
        assert interior_margin(domain, row) == pytest.approx(float(label), abs=1e-15)

    def accepts(call):
        try:
            call()
        except (DomainViolation, FieldEvaluationError):
            return False
        return True

    votes = {
        "rule": bool(_is_interior(domain, row[None])[0]),
        "DomainPoint": accepts(lambda: DomainPoint(domain, tuple(row))),
        "flow_map": accepts(lambda: flow_map(zero_field(row.size), 0.0,
                                             domain=domain)(row[None])),
        "iterate_map": accepts(lambda: iterate_map(
            lambda points: row[None], DomainPoint(domain, _START[domain]), 1)),
    }
    assert votes == dict.fromkeys(votes, label == "2e-12")


def test_flow_map_matches_scipy_rk45():
    # scipy's RK45 is the same Dormand-Prince pair, run on the real split
    # system at a much tighter tolerance than the flow map's.
    integrate = pytest.importorskip("scipy.integrate")
    field = builtin("example2")
    points = siegel_grid_small()[::23]
    mapped = flow_map(field, 0.7)(points)
    n = field.dimension

    def rhs(t, y):
        values = field((y[:n] + 1j * y[n:])[None])[0]
        return np.concatenate([values.real, values.imag])

    for start, end in zip(points, mapped):
        solution = integrate.solve_ivp(
            rhs, (0.0, 0.7), np.concatenate([start.real, start.imag]),
            method="RK45", rtol=1e-13, atol=1e-13,
        )
        assert solution.success
        reference = solution.y[:n, -1] + 1j * solution.y[n:, -1]
        assert np.max(np.abs(end - reference)) <= 1e-8


def test_spans_below_the_step_floor_take_no_step():
    # A span under 1e-15 * max(1, |t0|, |t1|) is done before the first step.
    pts = np.array([[1j, 0.5], [2j, 0.0]])
    assert np.array_equal(flow_map(builtin("example2"), 1e-16)(pts), pts)

    z0 = half_plane_point(1j)
    first = (0.0, 0.3, parse_field("-1/z", 1))
    # 0.1 + 0.2 ends the second piece 5.6e-17 after its start.
    split = integrate_loewner((first, (0.3, 1.0, parse_field("-2/z", 1))), z0, 0.1 + 0.2)
    whole = integrate_loewner((first,), z0, 0.3)
    assert np.array_equal(split.final_state, whole.final_state)


def _with_numpy_wrapper_frames(run):
    """run() and the Python frames it opens in numpy's call wrappers.

    ndarray.min/max/all/any/sum reach their ufunc reductions through Python
    functions in _methods.py; C functions such as np.copyto and np.where
    call a Python dispatcher in _core/multiarray.py first; and
    np.count_nonzero is a Python function too.  np.errstate's frames in
    _ufunc_config.py are not counted.
    """
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        filename = frame.f_code.co_filename
        if event == "call" and "numpy" in filename and (
                filename.endswith(("_methods.py", "multiarray.py"))
                or "count_nonzero" in frame.f_code.co_name):
            frames += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, frames


def test_the_step_loop_opens_no_numpy_wrapper_frames():
    # The step loop reduces through ufunc methods and argmin/argmax, so these
    # wrappers' frames do not grow with the number of steps.
    field, z0 = builtin("example2"), siegel_point(1j, 0.5)
    steps, frames = [], []
    for t in (1.0, 5.0):
        trajectory, count = _with_numpy_wrapper_frames(
            lambda: integrate_autonomous(field, z0, t))
        steps.append(trajectory.steps_accepted + trajectory.steps_rejected)
        frames.append(count)
    assert steps[1] > steps[0]
    assert frames[1] == frames[0]


def test_iterated_flow_maps_open_no_numpy_wrapper_frames():
    # Each map's last step clips h and t by boolean assignment, not
    # np.copyto, and the iterate loop reduces through ufunc methods, so these
    # wrappers' frames do not grow with the number of maps.
    z0 = siegel_point(1j, 0.5)
    frames = []
    for count in (10, 40):
        step = flow_map(builtin("example2"), 1.0)
        diagnostic, frame_count = _with_numpy_wrapper_frames(
            lambda: iterate_map(step, z0, count))
        assert diagnostic.iterations == count
        frames.append(frame_count)
    assert frames[1] == frames[0]


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_bad_times_are_rejected(t):
    z0 = siegel_point(1j, 0.5)
    with pytest.raises(ValueError):
        flow_map(builtin("example2"), t)
    with pytest.raises(ValueError):
        integrate_autonomous(builtin("example2"), z0, t)
    with pytest.raises(ValueError):
        integrate_loewner(((0.0, 5.0, builtin("example2")),), z0, t)
    with pytest.raises(ValueError):
        integrate_fixed_steps(builtin("example2"), z0, t, 8)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_bad_tolerances_are_rejected(tol):
    z0 = siegel_point(1j, 0.5)
    with pytest.raises(ValueError):
        flow_map(builtin("example2"), 1.0, tol=tol)
    with pytest.raises(ValueError):
        integrate_autonomous(builtin("example2"), z0, 1.0, tol=tol)
    with pytest.raises(ValueError):
        integrate_loewner(((0.0, 1.0, builtin("example2")),), z0, 1.0, tol=tol)


@pytest.mark.parametrize("entry, width", [
    pytest.param(lambda f, z: integrate_autonomous(f, z, 1.0), 1, id="integrate_autonomous"),
    pytest.param(lambda f, z: integrate_loewner([(0.0, 1.0, f)], z, 1.0), 1,
                 id="integrate_loewner"),
    pytest.param(lambda f, z: integrate_fixed_steps(f, z, 1.0, 4), 1,
                 id="integrate_fixed_steps"),
    pytest.param(lambda f, z: flow_map(f, 1.0, domain=z.domain)(z.as_array()[None]), 1,
                 id="flow_map"),
    pytest.param(lambda f, z: flow_map(f, 1.0)(np.empty((0, 1), complex)), 1,
                 id="flow_map on (0, 1)"),
    pytest.param(lambda f, z: flow_map(f, 1.0)(np.empty((0, 3), complex)), 3,
                 id="flow_map on (0, 3)"),
    pytest.param(eval_field, 1, id="eval_field"),
    pytest.param(lambda f, z: semigroup_check(f, z, 0.5, 0.5), 1, id="semigroup_check"),
    pytest.param(lambda f, z: julia_monotonicity(f, z, 1.0), 1, id="julia_monotonicity"),
    pytest.param(lambda f, z: displacement_bound_check(f, 2.0, z, 1.0), 1,
                 id="displacement_bound_check"),
])
def test_a_dimension_mismatch_raises_one_error_with_one_message(entry, width):
    # A two-dimensional field at an interior half-plane point with u = 2,
    # which passes every other argument check of every entry point, or on
    # an empty batch of another width, where a flow map takes no step.
    with pytest.raises(ArityMismatchError) as raised:
        entry(builtin("example2"), half_plane_point(2j))
    assert str(raised.value) == f"points have dimension {width}, field expects 2"


def test_semigroup_law_residuals():
    for field, z0 in (
        (builtin("example1"), siegel_point(1j, 0.5)),
        (builtin("example2"), siegel_point(2j, 0.0)),
        (builtin("reciprocal"), half_plane_point(1 + 1j)),
    ):
        report = semigroup_check(field, z0, 0.5, 0.5)
        assert report.residual < 1e-9


@pytest.mark.parametrize("t, s, message", [
    (-1.0, 0.5, "t must be finite and nonnegative, got -1.0"),
    (0.5, -0.25, "s must be finite and nonnegative, got -0.25"),
    (math.nan, 0.5, "t must be finite and nonnegative, got nan"),
    (0.5, math.inf, "s must be finite and nonnegative, got inf"),
])
def test_semigroup_check_names_the_bad_time(t, s, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        semigroup_check(builtin("reciprocal"), half_plane_point(1 + 1j), t, s)


def test_julia_monotonicity_reports():
    report = julia_monotonicity(builtin("example2"), siegel_point(1j, 0.5), 1.0)
    assert report.passed
    assert report.min_increment >= -1e-9


def test_julia_monotonicity_reports_a_decrease():
    # H(z) = 1/z pushes 2i straight down, so |u| = Im z falls along the flow.
    report = julia_monotonicity(parse_field("1/z"), half_plane_point(2j), 1.0)
    assert not report.passed
    assert report.min_increment < -MONOTONICITY_SLACK
    assert report.u_magnitudes[-1] < report.u_magnitudes[0]


def test_displacement_integral_closed_form():
    # int_0^t sqrt(1 + c^2 s^2) ds = t sqrt(1+c^2 t^2)/2 + asinh(c t)/(2c)
    c, t = 2.0, 1.0
    expected = t * math.sqrt(1 + c * c * t * t) / 2 + math.asinh(c * t) / (2 * c)
    assert displacement_integral(c, t) == pytest.approx(expected, rel=1e-14)
    # c -> 0 degenerates to t
    assert displacement_integral(1e-12, 0.75) == pytest.approx(0.75, rel=1e-9)


def test_displacement_bound_holds_for_example2():
    for z0 in (siegel_point(2j, 0.0), siegel_point(3j, 0.5)):
        for t in (0.5, 1.0):
            report = displacement_bound_check(builtin("example2"), 2.0, z0, t)
            assert report.displacement_norm <= report.bound + 1e-6
            assert report.passed


def test_displacement_bound_reports_a_violation():
    # example2 is in class c = 2, not c = 0.1: the bound fails by a wide margin.
    report = displacement_bound_check(builtin("example2"), 0.1, siegel_point(2j, 0.0), 1.0)
    assert not report.passed
    assert report.displacement_norm == pytest.approx(0.2247, abs=1e-4)
    assert report.bound == pytest.approx(0.0500, abs=1e-4)


def test_horosphere_image_check_passes():
    report = horosphere_image_check(flow_map(builtin("example2"), 1.0), 2.0)
    assert report.passed
    assert report.worst_value <= 3.0 + 1e-9
    assert report.count == 64


def test_horosphere_image_check_reports_a_violation():
    report = horosphere_image_check(flow_map(builtin("example2"), 1.0), 0.1)
    assert not report.passed
    assert report.limit == 1.1
    assert report.worst_value == pytest.approx(1.6847, abs=1e-4)
    assert report.count == 64


@pytest.mark.parametrize("c", [math.nan, math.inf, -2.0])
def test_displacement_and_horosphere_checks_reject_bad_constants(c):
    message = re.escape(f"class constant c must be finite and >= 0, got {c}")
    with pytest.raises(ValueError, match=message):
        displacement_bound_check(builtin("example2"), c, siegel_point(2j, 0.0), 1.0)
    with pytest.raises(ValueError, match=message):
        horosphere_image_check(flow_map(builtin("example2"), 1.0), c)


# ---------------------------------------------------------------------------
# Iteration diagnostics and capacities of maps
# ---------------------------------------------------------------------------

def test_iterate_flow_map_diverges():
    diag = iterate_map(flow_map(builtin("example2"), 1.0), siegel_point(1j, 0.5), 50)
    assert diag.tag == "diverges_to_infinity"
    assert diag.iterations == 50
    assert diag.u_magnitudes[-1] > diag.u_magnitudes[0]


@pytest.mark.parametrize("field, z0, count, threshold, tag, whole", [
    pytest.param(builtin("example2"), siegel_point(1j, 0.5), 50, 1e6,
                 "diverges_to_infinity", True, id="escape"),
    pytest.param(builtin("example2"), siegel_point(1j, 0.5), 50, 3.0,
                 "diverges_to_infinity", False, id="above-threshold"),
    pytest.param(parse_field("-z", 1), disc_point(0.4 + 0.2j), 40, 1e6,
                 "converged_interior", False, id="converging"),
])
def test_an_orbit_judged_from_a_chain_is_its_iterate_map_report(field, z0, count,
                                                                 threshold, tag, whole):
    # The time-1 flow map's orbit as one chain of legs in one kernel call,
    # judged by iterate_map's own judge, reports what iterate_map reports,
    # also when the orbit stops before its last iterate.
    step = flow_map(field, 1.0, domain=z0.domain)
    report = iterate_map(step, z0, count, divergence_threshold=threshold)
    then = np.append(np.arange(1, count), -1)
    chain = _advance(field, z0.domain, z0.as_array()[None], 0.0, 1.0, DEFAULT_TOL,
                     then=then)
    judged = flows._orbit_report(z0, chain.y[:, None], threshold)
    assert report.tag == judged.tag == tag
    assert report.iterations == judged.iterations
    assert (report.iterations == count) is whole
    assert report.u_magnitudes.tobytes() == judged.u_magnitudes.tobytes()
    assert np.array(report.final).tobytes() == np.array(judged.final).tobytes()


def test_iterate_identity_converges():
    diag = iterate_map(lambda pts: pts, siegel_point(1j, 0.5), 50)
    assert diag.tag == "converged_interior"


def test_iterate_contraction_converges():
    diag = iterate_map(lambda pts: pts / 2, disc_point(0.3), 200)
    assert diag.tag == "converged_interior"


def test_iterate_early_exit_above_threshold():
    diag = iterate_map(lambda pts: 2 * pts, half_plane_point(1j), 50,
                       divergence_threshold=1e3)
    assert diag.tag == "diverges_to_infinity"
    assert diag.iterations < 50


def test_iterate_leaving_the_disc_names_the_iteration():
    # 0.3 -> 0.6 -> 1.2: the second iterate is outside the disc.
    with pytest.raises(DomainViolation, match=r"iterate 2 \(1\.2\+0i\) .* disc"):
        iterate_map(lambda pts: 2 * pts, disc_point(0.3), 5)


def test_iterate_leaving_the_siegel_domain_names_the_iteration():
    # (i, 0.5) -> (-i, 0.5) has Im z1 - |z2|^2 = -1.25.
    with pytest.raises(DomainViolation, match=r"iterate 1 \(.*\) .* siegel"):
        iterate_map(lambda pts: pts - np.array([2j, 0]), siegel_point(1j, 0.5), 3)


def test_iterate_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count"):
        iterate_map(lambda pts: pts, siegel_point(1j, 0.5), -3)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
def test_iterate_rejects_bad_thresholds(threshold):
    with pytest.raises(ValueError, match="threshold"):
        iterate_map(lambda pts: pts, siegel_point(1j, 0.5), 5,
                    divergence_threshold=threshold)


def test_extract_capacity_of_flow_map():
    step = flow_map(builtin("reciprocal"), 1.0)
    est = extract_capacity(step)
    assert est.value == pytest.approx(1.0, abs=1e-3)


def test_flow_capacity_scales_linearly_in_time(rng):
    from siegelflow import sampling

    m = sampling.herglotz_measures(rng, 1)[0]
    field = __import__("siegelflow.fields", fromlist=["cauchy_transform"]).cauchy_transform(m)
    for t in (0.5, 2.0):
        est = extract_capacity(flow_map(field, t))
        assert est.value == pytest.approx(t * m.total_mass, abs=1e-3)
