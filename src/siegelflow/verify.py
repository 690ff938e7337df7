"""Deterministic verification suites over the package's exact identities.

Four suites (metric, geodesics, classes, flows) each run a fixed list of
groups.  A group draws its samples from its own seeded generator, evaluates
one identity, fixture, or inequality family, and reports the worst deviation
next to the tolerance it must stay under.  For a fixed seed the report is
identical from run to run, so the JSON that ``siegelflow verify`` prints from
it is too: no timestamps, no environment probes, and every float comes from
the same deterministic computation.

Each group evaluates its identity as one array computation over all of its
samples.  Metric and geodesic quantities are always reached through the
:mod:`siegelflow.domains` and :mod:`siegelflow.geodesics` module objects
rather than through direct imports, and the array kernels are what fault
injection must reach: replacing ``domains.bergman_matrix_array`` (the metric
behind ``bergman_norm_sq`` and ``bergman_matrix``) with a wrong metric must
flip the Pythagoras groups to failed, and a ``domains.poisson_values`` that
raises must fail the groups that use it.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, domains, fields, flows, geodesics, grids, sampling
from ._records import record
from .domains import Domain

SUITE_NAMES = ("metric", "geodesics", "classes", "flows")


@record
class GroupResult:
    """Worst observed deviation of one identity family against its limit."""

    name: str
    count: int
    worst: float
    limit: float
    passed: bool
    detail: str = ""


@record
class SuiteReport:
    suite: str
    groups: tuple[GroupResult, ...]

    @property
    def passed(self) -> bool:
        return all(group.passed for group in self.groups)


@record
class RunReport:
    seed: int
    suites: tuple[SuiteReport, ...]

    @property
    def passed(self) -> bool:
        return all(suite.passed for suite in self.suites)


def _ok(count: int, worst, limit: float, detail: str = "", ok: bool = True):
    """A group's result tuple; it passes when a finite worst <= limit and ``ok`` holds."""
    worst = float(worst)
    return count, worst, limit, math.isfinite(worst) and worst <= limit and ok, detail


def _rel(actual, expected) -> np.ndarray:
    """|actual - expected| scaled by the rowwise magnitude of expected, at least 1."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    num = np.abs(actual - expected)
    if expected.ndim > 1:
        den = np.maximum(np.max(np.abs(expected), axis=-1, keepdims=True), 1.0)
    else:
        den = np.maximum(np.abs(expected), 1.0)
    return num / den


# ---------------------------------------------------------------------------
# Suite: metric
# ---------------------------------------------------------------------------

def _g_cayley_roundtrip(rng):
    count = 1000
    z = sampling.siegel_coords(rng, count, 2, log_u=(-3.0, 1.5))
    back = domains.cayley_siegel_coords(domains.cayley_ball_coords(z))
    worst = np.max(_rel(back, z))
    w = sampling.ball_coords(rng, count, 2)
    back_w = domains.cayley_ball_coords(domains.cayley_siegel_coords(w))
    worst = max(worst, np.max(_rel(back_w, w)))
    return _ok(2 * count, worst, 1e-12)


def _g_poisson_transfer(rng):
    count = 1000
    z = sampling.siegel_coords(
        rng, count, 2, log_u=(-2.0, 2.0), re_scale=2.0, tilde_fraction=0.5
    )
    u_half = domains.poisson_values(Domain.SIEGEL, z)
    u_ball = domains.poisson_values(Domain.BALL, domains.cayley_ball_coords(z))
    worst = np.max(np.abs(u_half - u_ball) / np.abs(u_half))
    return _ok(count, worst, 1e-12)


def _g_metric_cayley_invariance(rng):
    count = 500
    z = sampling.siegel_coords(
        rng, count, 2, log_u=(-1.5, 1.5), re_scale=3.0, tilde_fraction=0.8
    )
    v = sampling.tangent_vectors(rng, count, 2)
    norm_half = domains.hyperbolic_norm_sq_array(Domain.SIEGEL, z, v)
    w = domains.cayley_ball_coords(z)
    v_ball = domains.push_tangent_to_ball(z, v)
    norm_ball = domains.hyperbolic_norm_sq_array(Domain.BALL, w, v_ball)
    worst = np.max(np.abs(norm_half - norm_ball) / np.abs(norm_half))
    return _ok(count, worst, 1e-12)


def _g_closed_form_norms(rng):
    count = 1000
    z = sampling.siegel_coords(rng, count, 2)
    a = sampling.tangent_vectors(rng, count, 1)[:, 0]
    v = sampling.tangent_vectors(rng, count, 1)[:, 0]
    p = z[:, 1] + sampling.tangent_vectors(rng, count, 1)[:, 0]
    u = np.abs(domains.poisson_values(Domain.SIEGEL, z))
    along = np.stack([a, np.zeros_like(a)], axis=-1)
    across = np.stack([2j * np.conj(p) * v, v], axis=-1)
    got = np.sqrt(domains.bergman_norm_sq(z[:, None], np.stack([along, across], 1)))
    expected = np.stack([
        np.abs(a) / u,
        2.0 * np.sqrt(np.abs(v) ** 2 * u + np.abs(np.conj(p - z[:, 1]) * v) ** 2) / u,
    ], axis=1)
    return _ok(2 * count, np.max(np.abs(got - expected) / expected), 1e-12)


def _g_pythagoras_split(rng):
    # Dual route: the total goes through the metric matrix, while the two
    # orthogonal legs use their closed forms, so a corrupted matrix entry
    # breaks the additivity rather than cancelling out of both sides.
    count = 1000
    z = sampling.siegel_coords(rng, count, 2)
    w = sampling.tangent_vectors(rng, count, 2)
    u = np.abs(domains.poisson_values(Domain.SIEGEL, z))
    total_sq = domains.bergman_norm_sq(z, w)
    along_sq = np.abs(w[:, 0] - 2j * np.conj(z[:, 1]) * w[:, 1]) ** 2 / u ** 2
    across_sq = 4.0 * np.abs(w[:, 1]) ** 2 / u
    worst = np.max(np.abs(total_sq - (along_sq + across_sq)) / total_sq)
    return _ok(count, worst, 1e-12)


def _g_bergman_pd_hermitian(rng):
    count = 1000
    z = sampling.siegel_coords(rng, count, 2)
    g = domains.bergman_matrix_array(z)
    worst = np.max(np.abs(g - np.conj(g.swapaxes(-1, -2))))
    min_eig = float(np.min(np.linalg.eigvalsh(g)))
    return _ok(count, worst, 1e-14, f"min eigenvalue {min_eig:.6e}", min_eig > 0.0)


def _g_jacobian_fd(rng):
    # Row j of each stack is dC(z) e_j, i.e. column j of the Jacobian.
    count = 100
    h = 1e-5
    z = sampling.siegel_coords(
        rng, count, 2, log_u=(-1.0, 1.0), re_scale=3.0, tilde_fraction=0.5
    )[:, None, :]
    bumps = h * np.eye(2)
    jac = domains.push_tangent_to_ball(z, np.eye(2))
    plus = domains.cayley_ball_coords(z + bumps)
    minus = domains.cayley_ball_coords(z - bumps)
    approx = (plus - minus) / (2.0 * h)
    worst = np.max(np.abs(approx - jac), axis=(1, 2)) / np.max(np.abs(jac), axis=(1, 2))
    return _ok(count, np.max(worst), 1e-6)


# ---------------------------------------------------------------------------
# Suite: geodesics
# ---------------------------------------------------------------------------

def _geodesic_samples(rng, count):
    gammas = sampling.tangent_vectors(rng, count, 1)
    zetas = sampling.halfplane_coords(rng, count, log_im=(-1.0, 1.0), re_scale=3.0)
    zetas = zetas[:, 0]
    return gammas, zetas, geodesics.geodesic_coords(gammas, zetas)


def _g_normalization(rng):
    count = 1000
    _, zetas, points = _geodesic_samples(rng, count)
    worst = np.max(np.abs(domains.poisson_values(Domain.SIEGEL, points) + zetas.imag))
    return _ok(count, worst, 1e-14)


def _g_geodesic_roundtrip(rng):
    count = 500
    gammas, zetas, points = _geodesic_samples(rng, count)
    gammas_back, zetas_back = geodesics.geodesic_params(points)
    scale = np.maximum(np.abs(zetas), 1.0)
    worst = max(
        np.max(np.abs(gammas_back - gammas)),
        np.max(np.abs(zetas_back - zetas) / scale),
    )
    return _ok(count, worst, 1e-12)


def _g_projection_idempotence(rng):
    count = 1000
    gammas = sampling.tangent_vectors(rng, count, 1)
    z = sampling.siegel_coords(rng, count, 2)
    once = geodesics.project_coords(gammas, z)
    twice = geodesics.project_coords(gammas, once)
    return _ok(count, np.max(np.abs(twice - once)), 1e-13)


def _decomposition_samples(rng, count):
    z = sampling.siegel_coords(rng, count, 2)
    w = sampling.tangent_vectors(rng, count, 2)
    tangential, orthogonal = geodesics.split_tangent_array(z, w)
    return z, w, tangential, orthogonal


def _g_decomposition_pythagoras(rng):
    count = 1000
    z, w, tangential, orthogonal = _decomposition_samples(rng, count)
    total_sq, along_sq, across_sq = domains.bergman_norm_sq(
        z, np.stack([w, tangential, orthogonal])
    )
    worst = np.max(np.abs(total_sq - (along_sq + across_sq)) / total_sq)
    return _ok(count, worst, 1e-12)


def _g_norm_formulas(rng):
    count = 1000
    z, w, tangential, orthogonal = _decomposition_samples(rng, count)
    u = np.abs(domains.poisson_values(Domain.SIEGEL, z))
    expected = np.stack(
        [np.abs(tangential[:, 0]) / u, 2.0 * np.abs(w[:, 1]) / np.sqrt(u)]
    )
    got = np.sqrt(domains.bergman_norm_sq(z, np.stack([tangential, orthogonal])))
    worst = np.max(np.abs(got - expected) / np.maximum(expected, 1e-6))
    return _ok(2 * count, worst, 1e-12)


def _g_slice_consistency(rng):
    count = 500
    z = sampling.siegel_coords(rng, count, 2)
    gammas, zetas = geodesics.geodesic_params(z)
    worst = 0.0
    for field in (fields.example1(), fields.example2()):
        split = geodesics.split_tangent_array(z, field(z))[0][:, 0]
        along = field(geodesics.geodesic_coords(gammas, zetas))
        direct = geodesics.slice_parts(along, gammas)[1]
        worst = max(worst, np.max(np.abs(split - direct) / (1.0 + np.abs(direct))))
    return _ok(2 * count, worst, 1e-13)


# ---------------------------------------------------------------------------
# Suite: classes
# ---------------------------------------------------------------------------

def _g_cauchy_capacity(rng):
    measures = sampling.herglotz_measures(rng, 3)
    worst = 0.0
    for measure in measures:
        estimate = analysis.slice_capacities(fields.cauchy_transform(measure), [()])[0]
        worst = max(worst, abs(estimate.value - measure.total_mass))
    return _ok(len(measures), worst, 1e-6)


def _g_cauchy_range(rng):
    measures = sampling.herglotz_measures(rng, 3)
    points = sampling.halfplane_coords(rng, 1000)
    worst = 0.0
    for measure in measures:
        values = fields.cauchy_transform(measure)(points)[..., 0]
        worst = max(worst, float(np.max(-values.imag)))
    return _ok(3 * 1000, worst, 1e-12, "worst is -min Im(H)")


def _g_pointwise_self_consistency(rng):
    measures = sampling.herglotz_measures(rng, 3)
    worst = -math.inf
    verdicts = []
    for measure in measures:
        field = fields.cauchy_transform(measure)
        c = analysis.slice_capacities(field, [()])[0].value
        report = analysis.membership(field, c)
        verdicts.append(report.verdict)
        worst = max(worst, (report.sup_observed - c) / c)
    return _ok(len(measures), worst, analysis.INEQUALITY_SLACK,
               "worst is (grid sup - capacity)/capacity",
               all(v == "consistent" for v in verdicts))


def _g_worked_example_slices(rng):
    worst = 0.0
    gammas = (1.0, 2.0)
    estimates = analysis.slice_capacities(fields.example1(), gammas, y_max=1e6)
    for gamma, estimate in zip(gammas, estimates):
        expected = 2.0 * abs(gamma) ** 2
        worst = max(worst, abs(estimate.value - expected) / expected)
    for estimate in analysis.slice_capacities(fields.example2(), (0.0, 1.0, 1.0 + 1.0j)):
        worst = max(worst, abs(estimate.value - 1.0))
    return _ok(5, worst, 1e-5)


def _g_membership_verdicts(rng):
    bounded = analysis.membership(fields.example2(), 2.0)
    unbounded = analysis.membership(fields.example1(), 7.0)
    trivial = analysis.membership(fields.zero_field(2), 0.0)
    tail = abs(unbounded.witness[1])
    verdicts = (bounded.verdict, unbounded.verdict, trivial.verdict)
    detail = f"verdicts {'/'.join(verdicts)}, violation witness |z~| = {tail:g}"
    return _ok(3, bounded.sup_observed**2, 4.0 * (1.0 + analysis.INEQUALITY_SLACK),
               detail, verdicts == ("consistent", "violated", "consistent") and tail >= 2.0)


def _g_cayley_verdict_agreement(rng):
    worst = 0.0
    agree = True
    for field, c in ((fields.example2(), 2.0), (fields.example1(), 7.0)):
        half = analysis.membership(field, c)
        ball = analysis.membership(fields.pushforward_to_ball(field), c, Domain.BALL)
        worst = max(
            worst, abs(ball.sup_observed - half.sup_observed) / half.sup_observed
        )
        agree = agree and ball.verdict == half.verdict
    return _ok(2, worst, 1e-9, "worst is relative sup gap", agree)


def _g_parser_consistency(rng):
    count = 200
    z = sampling.siegel_coords(rng, count, 2)
    parsed = fields.parse_field("0; -i*z2/z1")
    built = fields.example1()
    worst = np.max(_rel(parsed(z), built(z)))
    stable = True
    for text in ("0; -i*z2/z1", "-1/z1; z2/(2*z1^2)", "-1/z", "exp(z)/(1+z^2)"):
        once = fields.parse_field(text).description
        twice = fields.parse_field(once).description
        stable = stable and once == twice
    return _ok(count, worst, 1e-14, "includes canonical-form check", stable)


# ---------------------------------------------------------------------------
# Suite: flows
# ---------------------------------------------------------------------------

def _g_fixture_endpoints(rng):
    errors = []

    contraction = fields.parse_field("-z")
    start = 0.4 + 0.2j
    end = flows.integrate_autonomous(
        contraction, domains.disc_point(start), 1.0
    ).final_state[0]
    errors.append(abs(end - start * math.exp(-1.0)))

    z0 = domains.siegel_point(2j, 0.7)
    end = flows.integrate_autonomous(fields.example1(), z0, 1.0).final_state
    expected = np.array([2j, 0.7 * np.exp(-1j / 2j)])
    errors.append(float(np.max(np.abs(end - expected))))

    for start in (2j, 1 + 2j):
        end = flows.integrate_autonomous(
            fields.reciprocal_1d(), domains.half_plane_point(start), 1.0
        ).final_state[0]
        errors.append(abs(end - np.sqrt(start**2 - 2.0)))

    return _ok(len(errors), max(errors), 1e-8)


def _g_semigroup_law(rng):
    cases = (
        (fields.example1(), domains.siegel_point(1j, 0.5)),
        (fields.example2(), domains.siegel_point(2j, 0.0)),
        (fields.reciprocal_1d(), domains.half_plane_point(1 + 1j)),
    )
    reports = [flows.semigroup_check(f, z0, 0.5, 0.5) for f, z0 in cases]
    worst = max(report.residual for report in reports)
    return _ok(len(reports), worst, reports[0].allowance, "",
               all(r.passed for r in reports))


def _g_julia_monotonicity(rng):
    runs = (
        (fields.example1(), domains.siegel_point(1j, 0.5), 2.0),
        (fields.example2(), domains.siegel_point(2j, 0.0), 2.0),
        (fields.example2(), domains.siegel_point(1j, 0.5), 1.0),
        (fields.zero_field(2), domains.siegel_point(1j, 0.5), 1.0),
    )
    worst = 0.0
    for field, z0, t_final in runs:
        report = flows.julia_monotonicity(field, z0, t_final)
        worst = max(worst, -report.min_increment)
    return _ok(len(runs), worst, flows.MONOTONICITY_SLACK)


def _g_integrator_order(rng):
    # Off-axis start so the leading error coefficient does not cancel; step
    # counts stop at 32 to stay above the double-precision floor.
    field = fields.example1()
    z0 = domains.siegel_point(3.0 + 1j, 0.7 + 0.2j)
    z1c, z2c = 3.0 + 1j, 0.7 + 0.2j
    target = np.array([z1c, z2c * np.exp(-1j / z1c)])
    errors = []
    for steps in (4, 8, 16, 32):
        end = flows.integrate_fixed_steps(field, z0, 1.0, steps)
        errors.append(max(float(np.max(np.abs(end - target))), 1e-300))
    slopes = [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]
    worst = max(abs(slope - 5.0) for slope in slopes)
    detail = "slopes " + ", ".join(f"{slope:.3f}" for slope in slopes)
    return _ok(len(errors), worst, 1.0, detail)


def _g_displacement_bound(rng):
    field = fields.example2()
    worst = -math.inf
    count = 0
    for z0 in (domains.siegel_point(2j, 0.0), domains.siegel_point(3j, 0.5)):
        for t in (0.5, 1.0):
            report = flows.displacement_bound_check(field, 2.0, z0, t)
            worst = max(worst, report.displacement_norm - report.bound)
            count += 1
    return _ok(count, worst, flows.DISPLACEMENT_SLACK, "worst is (norm - bound)")


def _g_horosphere_checks(rng):
    displacement = flows.displacement_field(fields.example2(), 1.0)
    inequality = analysis.horosphere_inequality_check(displacement, grid="small")
    image = flows.horosphere_image_check(flows.flow_map(fields.example2(), 1.0), 2.0)
    worst = max(-inequality.worst_margin, image.worst_value - image.limit)
    detail = (
        f"orthogonality margin {inequality.worst_margin:.3e}, "
        f"image |u| max {image.worst_value:.6f} of {image.limit:g}"
    )
    return _ok(grids.siegel_grid_small().shape[0] + image.count, worst,
               flows.HOROSPHERE_IMAGE_SLACK, detail, inequality.ok and image.passed)


def _g_loewner_restart(rng):
    one = fields.reciprocal_1d()
    two = fields.parse_field("-2/z")
    z0 = domains.half_plane_point(1j)

    staged = flows.integrate_loewner(
        [(0.0, 1.0, one), (1.0, 2.0, two)], z0, 2.0
    ).final_state[0]
    endpoint_error = abs(staged - 1j * math.sqrt(7.0))

    whole = flows.integrate_loewner([(0.0, 2.0, one)], z0, 2.0, tol=1e-13)
    split = flows.integrate_loewner(
        [(0.0, 0.7, one), (0.7, 2.0, one)], z0, 2.0, tol=1e-13
    )
    restart_gap = abs(whole.final_state[0] - split.final_state[0])

    plain = flows.integrate_autonomous(one, z0, 2.0).final_state[0]
    single = flows.integrate_loewner([(0.0, 2.0, one)], z0, 2.0).final_state[0]
    exact_match = plain == single

    detail = (
        f"two-piece endpoint error {endpoint_error:.3e}, "
        f"single piece matches autonomous: {exact_match}"
    )
    return _ok(4, restart_gap, 1e-12, detail, endpoint_error <= 1e-8 and exact_match)


def _g_flow_capacity(rng):
    measure = fields.DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
    field = fields.cauchy_transform(measure)
    errors = []
    for t in (0.5, 1.0, 2.0):
        estimate = flows.extract_capacity(flows.flow_map(field, t))
        errors.append(abs(estimate.value - t * measure.total_mass))
    step = flows.flow_map(fields.reciprocal_1d(), 1.0)
    cap_one = flows.extract_capacity(step).value
    cap_two = flows.extract_capacity(lambda pts: step(step(pts))).value
    errors.append(abs(2.0 * cap_one - cap_two))
    detail = f"composite capacity {cap_two:.6f} vs parts {cap_one:.6f} + {cap_one:.6f}"
    return _ok(len(errors), max(errors), 1e-3, detail)


def _g_iteration_diagnostic(rng):
    step = flows.flow_map(fields.example2(), 1.0)
    escape = flows.iterate_map(step, domains.siegel_point(1j, 0.5), 50)
    fixed = flows.iterate_map(lambda pts: pts, domains.siegel_point(1j, 0.5), 10)
    contracting = flows.iterate_map(
        lambda pts: np.asarray(pts, dtype=complex) / 2.0,
        domains.disc_point(0.3),
        200,
    )
    expected = ("diverges_to_infinity", "converged_interior", "converged_interior")
    got = (escape.tag, fixed.tag, contracting.tag)
    mismatches = sum(1 for e, g in zip(expected, got) if e != g)
    detail = "tags " + ", ".join(got)
    return _ok(3, float(mismatches), 0.0, detail)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

_SUITE_TABLES = {
    "metric": (
        ("cayley-roundtrip", _g_cayley_roundtrip),
        ("poisson-transfer", _g_poisson_transfer),
        ("metric-cayley-invariance", _g_metric_cayley_invariance),
        ("closed-form-norms", _g_closed_form_norms),
        ("pythagoras-split", _g_pythagoras_split),
        ("bergman-pd-hermitian", _g_bergman_pd_hermitian),
        ("jacobian-fd", _g_jacobian_fd),
    ),
    "geodesics": (
        ("normalization", _g_normalization),
        ("geodesic-roundtrip", _g_geodesic_roundtrip),
        ("projection-idempotence", _g_projection_idempotence),
        ("decomposition-pythagoras", _g_decomposition_pythagoras),
        ("norm-formulas", _g_norm_formulas),
        ("slice-consistency", _g_slice_consistency),
    ),
    "classes": (
        ("cauchy-capacity", _g_cauchy_capacity),
        ("cauchy-range", _g_cauchy_range),
        ("pointwise-self-consistency", _g_pointwise_self_consistency),
        ("worked-example-slices", _g_worked_example_slices),
        ("membership-verdicts", _g_membership_verdicts),
        ("cayley-verdict-agreement", _g_cayley_verdict_agreement),
        ("parser-consistency", _g_parser_consistency),
    ),
    "flows": (
        ("fixture-endpoints", _g_fixture_endpoints),
        ("semigroup-law", _g_semigroup_law),
        ("julia-monotonicity", _g_julia_monotonicity),
        ("integrator-order", _g_integrator_order),
        ("displacement-bound", _g_displacement_bound),
        ("horosphere-checks", _g_horosphere_checks),
        ("loewner-restart", _g_loewner_restart),
        ("flow-capacity", _g_flow_capacity),
        ("iteration-diagnostic", _g_iteration_diagnostic),
    ),
}


def _run_group(name: str, fn, rng) -> GroupResult:
    try:
        count, worst, limit, passed, detail = fn(rng)
    except Exception as exc:  # a failed group must not take down the run
        return GroupResult(
            name=name,
            count=0,
            worst=math.inf,
            limit=0.0,
            passed=False,
            detail=f"{type(exc).__name__}: {exc}",
        )
    return GroupResult(
        name=name,
        count=int(count),
        worst=float(worst),
        limit=float(limit),
        passed=bool(passed),
        detail=detail,
    )


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    """Run one named suite with per-group seeded generators."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"verify seed must be a non-negative integer, got {seed}")
    if name not in _SUITE_TABLES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    suite_index = SUITE_NAMES.index(name)
    groups = []
    # One floating-point state for the suite: groups call fields directly.
    with np.errstate(all="ignore"):
        for group_index, (group_name, fn) in enumerate(_SUITE_TABLES[name]):
            rng = np.random.default_rng([seed, suite_index, group_index])
            groups.append(_run_group(group_name, fn, rng))
    return SuiteReport(name, tuple(groups))


def run(suite: str = "all", seed: int = 0) -> RunReport:
    """Run the requested suite (or every suite) and collect one report."""
    names = SUITE_NAMES if suite == "all" else (suite,)
    return RunReport(
        seed=int(seed), suites=tuple(run_suite(name, seed) for name in names)
    )
