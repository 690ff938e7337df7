"""Flow integration: endpoints, adaptivity, semigroup laws, and diagnostics."""

import hashlib
import math

import numpy as np
import pytest

from siegelflow.domains import (
    Domain,
    disc_point,
    half_plane_point,
    poisson,
    siegel_point,
)
from siegelflow.errors import CoverageGap, FieldEvaluationError, StepSizeUnderflow
from siegelflow.fields import VectorField, builtin, parse_field
from siegelflow.flows import (
    DEFAULT_TOL,
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


def test_trajectory_diagnostics_and_csv(tmp_path):
    traj = integrate_autonomous(builtin("reciprocal"), half_plane_point(1j), 1.0)
    assert traj.steps_accepted > 0
    assert traj.max_local_error <= DEFAULT_TOL
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    out = tmp_path / "traj.csv"
    traj.to_csv(str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re_z1,im_z1,u"
    assert len(lines) == len(traj.times) + 1


def test_dense_output_matches_closed_form():
    traj = integrate_autonomous(builtin("reciprocal"), half_plane_point(2j), 1.0)
    ts = np.linspace(0.0, 1.0, 17)
    samples = traj.sample(ts)[:, 0]
    exact = np.sqrt((2j) ** 2 - 2 * ts)
    exact = np.where(exact.imag < 0, -exact, exact)
    # cubic Hermite between accepted nodes: interpolation error dominates
    assert np.max(np.abs(samples - exact)) < 1e-7


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
    for name in ("times", "states", "derivs"):
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


@pytest.mark.parametrize("name, grid", [
    ("example2", siegel_grid_small(2)),
    ("reciprocal", halfplane_grid()[::37]),
])
def test_flow_map_batch_is_bit_identical_to_each_point_alone(name, grid):
    # Low points (Im z1 <= 0.1) take far more steps than high ones; each keeps
    # its own step control, so batching changes no bit of any endpoint.
    assert grid[:, 0].imag.min() <= 0.1 and grid[:, 0].imag.max() >= 100
    t = 1.0
    step = flow_map(builtin(name), t)
    batch = step(grid)
    alone = np.array([step(point[None, :])[0] for point in grid])
    assert np.array_equal(batch, alone)
    assert np.array_equal(step(grid[::-1])[::-1], batch)

    # Closed form: z1(t) = sqrt(z1^2 - 2t), z2(t) = z2 sqrt(z1 / z1(t)).
    z1 = grid[:, 0]
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


@pytest.mark.parametrize("wrong", [lambda pts: pts.T, lambda pts: pts[:, :1]])
def test_a_wrong_shaped_field_result_names_the_expected_shape(wrong):
    field = VectorField(2, wrong, "wrong shape")
    points = siegel_grid_small(2)[:5]
    with pytest.raises(FieldEvaluationError, match=r"expected \(5, 2\)"):
        flow_map(field, 0.5)(points)


def test_flow_map_batch_fails_when_one_point_leaves_the_domain():
    # Constant downward drift: only the point at height 1 exits before t = 2.
    step = flow_map(parse_field("-i", 1), 2.0)
    assert np.allclose(step(np.array([[5j], [3j]])), [[3j], [1j]])
    with pytest.raises(StepSizeUnderflow):
        step(np.array([[5j], [1j], [3j]]))


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


def test_semigroup_law_residuals():
    for field, z0 in (
        (builtin("example1"), siegel_point(1j, 0.5)),
        (builtin("example2"), siegel_point(2j, 0.0)),
        (builtin("reciprocal"), half_plane_point(1 + 1j)),
    ):
        report = semigroup_check(field, z0, 0.5, 0.5)
        assert report.residual < 1e-9


def test_julia_monotonicity_reports():
    report = julia_monotonicity(builtin("example2"), siegel_point(1j, 0.5), 1.0)
    assert report.passed
    assert report.min_increment >= -1e-9


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


def test_horosphere_image_check_passes():
    report = horosphere_image_check(flow_map(builtin("example2"), 1.0), 2.0)
    assert report.passed
    assert report.worst_value <= 3.0 + 1e-9
    assert report.count == 64


# ---------------------------------------------------------------------------
# Iteration diagnostics and capacities of maps
# ---------------------------------------------------------------------------

def test_iterate_flow_map_diverges():
    diag = iterate_map(flow_map(builtin("example2"), 1.0), siegel_point(1j, 0.5), 50)
    assert diag.tag == "diverges_to_infinity"
    assert diag.iterations == 50
    assert diag.u_magnitudes[-1] > diag.u_magnitudes[0]


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
