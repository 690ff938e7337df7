"""Deterministic verification suites over the package's exact identities.

Four suites (metric, geodesics, classes, flows) each run a fixed list of
groups.  A group draws its samples from its own seeded generator, evaluates
one identity, fixture, or inequality family, and reports the worst deviation
next to the tolerance it must stay under.  For a fixed seed the report is
identical from run to run, so the JSON that ``siegelflow verify`` prints from
it is too: no timestamps, no environment probes, and every float comes from
the same deterministic computation.

Each group evaluates its identity as one array computation over all of its
samples.  The flows groups also share their integrations: the flows of
one dimension, from any group and of any field, domain and tolerance, run
as one kernel call, flows that continue one another as chains of legs in
it, and each group judges its own legs of it.  Metric and geodesic
quantities are always reached through the :mod:`siegelflow.domains` and
:mod:`siegelflow.geodesics` module objects rather than through direct
imports, and the array kernels are what fault
injection must reach: replacing ``domains.bergman_matrix_array`` (the metric
behind ``bergman_norm_sq`` and ``bergman_matrix``) with a wrong metric must
flip the Pythagoras groups to failed, and a ``domains.poisson_values`` that
raises must fail the groups that use it.
"""

from __future__ import annotations

import functools
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
    zetas = sampling.siegel_coords(rng, count, 1, log_u=(-1.0, 1.0), re_scale=3.0)
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
    points = sampling.siegel_coords(rng, 1000, 1)
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

class _Pools:
    """The flows suite's built-in fields and its pools, one of each per run.

    Every flow a group queues here joins the part of its field object and
    domain, as a leg with its own start and end time and tolerance.  The
    parts of one dimension, whatever their fields, domains and tolerances,
    run as one ``_advance`` call, so each leg is bit-identical to its own
    run.  A chain's legs run one after another in their part, each from the
    endpoint of the one before, alongside the other legs.  Parts are keyed
    by the field object, never by its description: ``reciprocal_1d()`` and
    ``parse_field("-1/z")`` print alike but need not compute alike.  Only
    the legs queued with ``record`` keep their nodes.  A group reads its
    legs back by the handle its queue call returned.  When a call raises,
    each of its parts runs again alone, and a part whose call raises fails
    each group with legs in it; the rest run (V 18%, A 16% in process, and
    V 10%, A 8% for the merge across parts, README).
    """

    def __init__(self) -> None:
        # (id(field), domain) -> [field, domain, head starts, legs as
        # (t0, t1, next leg within the part, tol, record)]
        self._parts = {}
        # part key -> (the _advance result, the part's first leg in it), or
        # what the part's call raised
        self._runs = {}

    # Built by the first group that asks, so a factory that raises fails
    # that group, and each later one that asks, not the suite.
    @functools.cached_property
    def example1(self) -> fields.VectorField:
        return fields.example1()

    @functools.cached_property
    def example2(self) -> fields.VectorField:
        return fields.example2()

    @functools.cached_property
    def reciprocal(self) -> fields.VectorField:
        return fields.reciprocal_1d()

    def chains(self, field, domain: Domain, starts: np.ndarray, chains,
               tol: float = flows.DEFAULT_TOL, record: bool = False):
        """Queue one chain of (t0, t1) legs per row of the (r, n) ``starts``."""
        key = (id(field), domain)
        _, _, heads, legs = self._parts.setdefault(key, [field, domain, [], []])
        first = len(legs)
        heads.append(starts)
        for chain in chains:
            last = len(legs) + len(chain) - 1
            legs.extend((t0, t1, i + 1 if i < last else -1, tol, record)
                        for i, (t0, t1) in enumerate(chain, len(legs)))
        return key, slice(first, len(legs))

    def add(self, field, domain: Domain, starts: np.ndarray, t):
        """Queue the flows of ``field`` from the (r, n) ``starts`` to time t (or t[i])."""
        return self.chains(field, domain, starts,
                           [((0.0, end),) for end in np.broadcast_to(t, len(starts))])

    def chain(self, field, z0: domains.DomainPoint, legs, tol: float = flows.DEFAULT_TOL,
              record: bool = False):
        """Queue flows of ``field`` over the (t0, t1) ``legs``, each from the last one's end."""
        return self.chains(field, z0.domain, z0.as_array()[None], [legs], tol, record)

    def flow(self, field, z0: domains.DomainPoint, t: float, record: bool = False):
        """Queue the flow of ``field`` from z0 to time t."""
        return self.chain(field, z0, ((0.0, t),), record=record)

    def run(self) -> None:
        """One ``_advance`` call per dimension; a call that raises runs again part by part."""
        dimensions = {}
        for key, (_, _, heads, _) in self._parts.items():
            dimensions.setdefault(heads[0].shape[1], []).append(key)
        for keys in dimensions.values():
            try:
                seg = self._call(keys)
            except Exception:
                for key in keys:
                    try:
                        self._runs[key] = self._call([key]), 0
                    except Exception as exc:  # it fails each group with legs here, at its judge
                        self._runs[key] = exc
                continue
            first = 0
            for key in keys:
                self._runs[key] = seg, first
                first += len(self._parts[key][3])

    def _call(self, keys):
        """The recorded ``_advance`` call of the parts ``keys``, laid out part-major."""
        parts, heads, legs = [], [], []
        for key in keys:
            field, domain, part_heads, part_legs = self._parts[key]
            parts.append((field, domain, len(part_legs)))
            heads.extend(part_heads)
            shift = len(legs)  # a part's next legs shift by the legs before it
            legs.extend((t0, t1, then + shift if then >= 0 else -1, tol, record)
                        for t0, t1, then, tol, record in part_legs)
        t0, t1, then, tol, record = (np.array(column) for column in zip(*legs))
        return flows._advance(None, None, np.concatenate(heads), t0, t1, tol,
                              record=record, then=then, parts=parts)

    def _rows(self, handle):
        key, rows = handle
        run = self._runs[key]
        if isinstance(run, Exception):
            raise run
        seg, first = run
        return seg, slice(first + rows.start, first + rows.stop)

    def y(self, handle) -> np.ndarray:
        """The handle's legs' endpoints, (r, n)."""
        seg, rows = self._rows(handle)
        return seg.y[rows]

    def nodes(self, handle) -> tuple[np.ndarray, np.ndarray]:
        """The handle's first leg's start and accepted nodes, times (N,) and states (N, n).

        Only a leg queued with ``record`` has them.
        """
        seg, rows = self._rows(handle)
        return seg.trajectory(rows.start)


# A flows group draws: it queues its flows in the suite's pools and returns
# its judge, which runs once every group has drawn and every pool has run.

def _unpooled(group):
    """A flows group that queues nothing: it runs whole as its judge."""
    return lambda rng, pools: lambda: group(rng, pools)


def _g_fixture_endpoints(rng, pools):
    start = 0.4 + 0.2j
    contraction = pools.flow(fields.parse_field("-z"), domains.disc_point(start), 1.0)
    example1 = pools.flow(pools.example1, domains.siegel_point(2j, 0.7), 1.0)
    # The closed form of the half-plane flows stays on Python scalars, whose
    # np.sqrt rounds unlike the array loop's.
    starts = (2j, 1 + 2j)
    reciprocal = pools.add(pools.reciprocal, Domain.HALF_PLANE, np.array(starts)[:, None], 1.0)

    def judge():
        errors = [abs(pools.y(contraction)[0, 0] - start * math.exp(-1.0))]
        expected = np.array([2j, 0.7 * np.exp(-1j / 2j)])
        errors.append(float(np.max(np.abs(pools.y(example1)[0] - expected))))
        for z0, end in zip(starts, pools.y(reciprocal)[:, 0]):
            errors.append(abs(end - np.sqrt(z0**2 - 2.0)))
        return _ok(len(errors), max(errors), 1e-8)
    return judge


def _g_semigroup_law(rng, pools):
    t = s = 0.5
    cases = (
        (pools.example1, domains.siegel_point(1j, 0.5)),
        (pools.example2, domains.siegel_point(2j, 0.0)),
        (pools.reciprocal, domains.half_plane_point(1 + 1j)),
    )
    # Each outer leg restarts from its inner leg's endpoint, in the same pool.
    legs = [(pools.flow(field, z0, t + s), pools.chain(field, z0, ((0.0, s), (0.0, t))))
            for field, z0 in cases]

    def judge():
        reports = [flows._semigroup_report(pools.y(joint)[0], pools.y(chain)[1], t, s)
                   for joint, chain in legs]
        worst = max(report.residual for report in reports)
        return _ok(len(reports), worst, reports[0].allowance, "",
                   all(r.passed for r in reports))
    return judge


def _g_julia_monotonicity(rng, pools):
    runs = (
        pools.flow(pools.example1, domains.siegel_point(1j, 0.5), 2.0, record=True),
        pools.flow(pools.example2, domains.siegel_point(2j, 0.0), 2.0, record=True),
        pools.flow(pools.example2, domains.siegel_point(1j, 0.5), 1.0, record=True),
        pools.flow(fields.zero_field(2), domains.siegel_point(1j, 0.5), 1.0, record=True),
    )

    def judge():
        worst = 0.0
        for run in runs:
            report = flows._monotonicity_report(Domain.SIEGEL, *pools.nodes(run))
            worst = max(worst, -report.min_increment)
        return _ok(len(runs), worst, flows.MONOTONICITY_SLACK)
    return judge


def _g_integrator_order(rng, pools):
    # Off-axis start so the leading error coefficient does not cancel; step
    # counts stop at 32 to stay above the double-precision floor.
    field = pools.example1
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


def _g_displacement_bound(rng, pools):
    runs = []
    for z0 in (domains.siegel_point(2j, 0.0), domains.siegel_point(3j, 0.5)):
        c, u = flows._displacement_start(2.0, z0)
        for t in (0.5, 1.0):
            runs.append((c, u, z0, t, pools.flow(pools.example2, z0, t)))

    def judge():
        worst = -math.inf
        for c, u, z0, t, flow in runs:
            report = flows._displacement_report(c, u, z0, pools.y(flow)[0], t)
            worst = max(worst, report.displacement_norm - report.bound)
        return _ok(len(runs), worst, flows.DISPLACEMENT_SLACK, "worst is (norm - bound)")
    return judge


def _g_horosphere_checks(rng, pools):
    # The grid and the horosphere samples ride in the example2 pool; each
    # row's image is the one a flow map call on its own points gives, and
    # the public checks' own judges read them.
    grid, grid_name = grids.grid_by_name("small")
    samples = grids.horosphere_samples(2)
    flow = pools.add(pools.example2, Domain.SIEGEL, np.concatenate([grid, samples]), 1.0)

    def judge():
        images = pools.y(flow)
        inequality = analysis._horosphere_inequality_report(
            grid, images[:len(grid)] - grid, grid_name
        )
        image = flows._horosphere_image_report(samples, images[len(grid):], 2.0)
        worst = max(-inequality.worst_margin, image.worst_value - image.limit)
        detail = (
            f"orthogonality margin {inequality.worst_margin:.3e}, "
            f"image |u| max {image.worst_value:.6f} of {image.limit:g}"
        )
        return _ok(len(grid) + image.count, worst,
                   flows.HOROSPHERE_IMAGE_SLACK, detail, inequality.ok and image.passed)
    return judge


def _g_loewner_restart(rng, pools):
    one = pools.reciprocal
    z0 = domains.half_plane_point(1j)
    plain = pools.flow(one, z0, 2.0)  # the autonomous run, in the -1/z pool
    # The unsplit run over [0, 2] and the split run, whose second piece
    # restarts from the first one's endpoint as integrate_loewner does, in
    # one pool at tol 1e-13.
    whole = pools.chain(one, z0, ((0.0, 2.0),), tol=1e-13)
    split = pools.chain(one, z0, ((0.0, 0.7), (0.7, 2.0)), tol=1e-13)

    def judge():
        staged = flows.integrate_loewner(
            [(0.0, 1.0, one), (1.0, 2.0, fields.parse_field("-2/z"))], z0, 2.0
        ).final_state[0]
        endpoint_error = abs(staged - 1j * math.sqrt(7.0))
        restart_gap = abs(pools.y(whole)[0, 0] - pools.y(split)[1, 0])

        single = flows.integrate_loewner([(0.0, 2.0, one)], z0, 2.0).final_state[0]
        exact_match = pools.y(plain)[0, 0] == single

        detail = (
            f"two-piece endpoint error {endpoint_error:.3e}, "
            f"single piece matches autonomous: {exact_match}"
        )
        return _ok(4, restart_gap, 1e-12, detail, endpoint_error <= 1e-8 and exact_match)
    return judge


def _known_at(points, images):
    """The self-map known only at ``points``, which it sends to ``images``."""
    def self_map(pts):
        if not np.array_equal(pts, points):
            raise ValueError("self-map called off the points it is known at")
        return images
    return self_map


def _g_flow_capacity(rng, pools):
    # extract_capacity maps the window of heights below, as slice_capacities
    # builds it; the flows of every window point ride in the pools, and
    # extract_capacity reads their images back through _known_at.
    defaults = analysis.CAPACITY_DEFAULTS
    ys = np.geomspace(defaults["y_min"], flows._SELF_MAP_Y_MAX, defaults["count"])
    window = geodesics.geodesic_coords(np.zeros((1, 1, 0)), 1j * ys)
    starts = window.reshape(-1, 1)
    measure = fields.DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
    times = (0.5, 1.0, 2.0)
    # The three time-t maps of the Cauchy field, one part with per-row ends.
    maps = pools.add(fields.cauchy_transform(measure), Domain.HALF_PLANE,
                     np.concatenate([starts] * len(times)), np.repeat(times, len(starts)))
    # step and step o step of -1/z: one two-leg chain per window point.
    steps = pools.chains(pools.reciprocal, Domain.HALF_PLANE, starts,
                         [((0.0, 1.0), (0.0, 1.0))] * len(starts))

    def capacity(images):
        return flows.extract_capacity(_known_at(window, images.reshape(window.shape))).value

    def judge():
        errors = [abs(capacity(images) - t * measure.total_mass)
                  for t, images in zip(times, np.split(pools.y(maps), len(times)))]
        images = pools.y(steps)
        cap_one, cap_two = capacity(images[0::2]), capacity(images[1::2])
        errors.append(abs(2.0 * cap_one - cap_two))
        detail = f"composite capacity {cap_two:.6f} vs parts {cap_one:.6f} + {cap_one:.6f}"
        return _ok(len(errors), max(errors), 1e-3, detail)
    return judge


def _g_iteration_diagnostic(rng, pools):
    # The escape orbit is 50 time-1 flow maps of example2, one chain in its
    # pool; iterate_map's own judge reads it.
    z0 = domains.siegel_point(1j, 0.5)
    orbit = pools.chain(pools.example2, z0, ((0.0, 1.0),) * 50)

    def judge():
        escape = flows._orbit_report(z0, pools.y(orbit)[:, None])
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
    return judge


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
        ("integrator-order", _unpooled(_g_integrator_order)),
        ("displacement-bound", _g_displacement_bound),
        ("horosphere-checks", _g_horosphere_checks),
        ("loewner-restart", _g_loewner_restart),
        ("flow-capacity", _g_flow_capacity),
        ("iteration-diagnostic", _g_iteration_diagnostic),
    ),
}


def _draw(group, rng, pools):
    """A flows group's judge, or one that raises what its draw raised."""
    try:
        return group(rng, pools)
    except Exception as exc:
        def judge():
            raise exc
        return judge


def _run_group(name: str, judge) -> GroupResult:
    try:
        count, worst, limit, passed, detail = judge()
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
    """Run one named suite with per-group seeded generators.

    The flows suite runs in two passes: every group draws, queueing its
    flows in the suite's pools; then the pools of each dimension run as one
    kernel call, and each group's judge reads its rows.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"verify seed must be a non-negative integer, got {seed}")
    if name not in _SUITE_TABLES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    suite_index = SUITE_NAMES.index(name)
    table = _SUITE_TABLES[name]
    rngs = [np.random.default_rng([seed, suite_index, i]) for i in range(len(table))]
    # One floating-point state for the suite: groups call fields directly.
    with np.errstate(all="ignore"):
        if name == "flows":
            pools = _Pools()
            judges = [_draw(fn, rng, pools) for (_, fn), rng in zip(table, rngs)]
            pools.run()
        else:
            judges = [functools.partial(fn, rng) for (_, fn), rng in zip(table, rngs)]
        groups = tuple(_run_group(group_name, judge)
                       for (group_name, _), judge in zip(table, judges))
    return SuiteReport(name, groups)


def run(suite: str = "all", seed: int = 0) -> RunReport:
    """Run the requested suite (or every suite) and collect one report."""
    names = SUITE_NAMES if suite == "all" else (suite,)
    return RunReport(
        seed=int(seed), suites=tuple(run_suite(name, seed) for name in names)
    )
