"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints one PASS line with the measured numbers once its assertions
hold; a failure surfaces as the usual pytest FAILED line for that criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from siegelflow import sampling
from siegelflow.analysis import (
    horosphere_inequality_check,
    membership,
    slice_capacities,
)
from siegelflow.domains import (
    Domain,
    DomainPoint,
    TangentVector,
    bergman_matrix,
    disc_point,
    half_plane_point,
    hyperbolic_norm,
    poisson,
    siegel_point,
)
from siegelflow.fields import builtin, cauchy_transform, parse_field
from siegelflow.flows import (
    displacement_bound_check,
    displacement_field,
    extract_capacity,
    flow_map,
    horosphere_image_check,
    integrate_autonomous,
    iterate_map,
    julia_monotonicity,
    semigroup_check,
)
from siegelflow.geodesics import (
    GeodesicParam,
    decompose,
    geodesic_coords,
    geodesic_params,
    project,
    slice_field,
    slice_value,
)


def _report(number: int, detail: str) -> None:
    print(f"PASS criterion {number}: {detail}")


def _quadratic_norm_sq(point: DomainPoint, w: np.ndarray) -> float:
    # The metric contracts as sum_jk g[j,k] w_j conj(w_k).
    g = bergman_matrix(point)
    return float(np.real(w @ g @ np.conj(w)))


def test_criterion_01_example1_slices_and_membership():
    start = time.perf_counter()
    field = builtin("example1")
    values = []
    for gamma, expected in (((1.0,), 2.0), ((2.0,), 8.0)):
        est = slice_capacities(slice_field(field, GeodesicParam(gamma)), [()],
                               y_max=1e6)[0]
        assert est.value == pytest.approx(expected, rel=1e-5)
        values.append(est.value)
    report = membership(field, 7.0)
    assert report.verdict == "violated"
    assert abs(report.witness[1]) >= 2.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"slice capacities {values[0]:.6f}, {values[1]:.6f}; "
               f"c=7 violated with |z~| = {abs(report.witness[1]):.1f}; "
               f"{elapsed:.2f}s")


def test_criterion_02_example2_slices_and_grid_sup():
    start = time.perf_counter()
    field = builtin("example2")
    values = []
    for gamma in ((0.0,), (1.0,), (1 + 1j,)):
        est = slice_capacities(slice_field(field, GeodesicParam(gamma)), [()])[0]
        assert est.value == pytest.approx(1.0, rel=1e-5)
        values.append(est.value)
    report = membership(field, 2.0)
    sup_sq = report.sup_observed ** 2
    assert sup_sq <= 4.0 * (1 + 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"slice capacities {values}; grid sup u^4||H||^2 = "
               f"{sup_sq:.6f} <= 4; {elapsed:.2f}s")


def test_criterion_03_norm_formulas_against_quadratic_form():
    rng = np.random.default_rng(321)
    count = 1000
    z = sampling.siegel_coords(rng, count, 2, log_u=(-1.5, 1.5), re_scale=3.0,
                               tilde_fraction=0.8)
    a = rng.normal(size=count) + 1j * rng.normal(size=count)
    p = z[:, 1] + (rng.normal(size=count) + 1j * rng.normal(size=count))
    v = rng.normal(size=count) + 1j * rng.normal(size=count)
    w_full = sampling.tangent_vectors(rng, count, 2)
    worst = {"normproj00": 0.0, "normorth00": 0.0, "orth00": 0.0}
    for k in range(count):
        point = DomainPoint(Domain.SIEGEL, tuple(z[k]))
        g = bergman_matrix(point)
        assert np.array_equal(g, np.conj(g.T))
        assert np.min(np.linalg.eigvalsh(g)) > 0
        u = abs(poisson(point))
        # (normproj00): ||(a, 0)|| = |a| / |u|
        horizontal = np.array([a[k], 0.0])
        form = _quadratic_norm_sq(point, horizontal)
        closed = (abs(a[k]) / u) ** 2
        worst["normproj00"] = max(worst["normproj00"],
                                  abs(form - closed) / closed)
        # (normorth00): ||(2i conj(p)^T v, v)||
        ortho = np.array([2j * np.conj(p[k]) * v[k], v[k]])
        form = _quadratic_norm_sq(point, ortho)
        closed = 4 * (abs(v[k]) ** 2 * u
                      + abs(np.conj(p[k] - z[k, 1]) * v[k]) ** 2) / u ** 2
        worst["normorth00"] = max(worst["normorth00"],
                                  abs(form - closed) / closed)
        # (orth00): the split against the two closed-form legs
        w = w_full[k]
        tau = np.conj(z[k, 1]) * w[1]
        total = _quadratic_norm_sq(point, w)
        legs = abs(w[0] - 2j * tau) ** 2 / u ** 2 + 4 * abs(w[1]) ** 2 / u
        worst["orth00"] = max(worst["orth00"], abs(total - legs) / total)
    for name, value in worst.items():
        assert value < 1e-12, (name, value)
    _report(3, "worst relative errors " + ", ".join(
        f"{k} {v:.2e}" for k, v in worst.items()) + f"; {count} samples, "
        "metric Hermitian PD everywhere")


def test_criterion_04_geodesic_toolkit_tolerances():
    rng = np.random.default_rng(654)
    count = 1000
    z = sampling.siegel_coords(rng, count, 2, log_u=(-1.5, 1.5), re_scale=3.0,
                               tilde_fraction=0.8)
    gammas = rng.normal(size=count) + 1j * rng.normal(size=count)
    zetas = rng.normal(size=count) + 1j * np.exp(rng.uniform(-1, 1, count))
    field = builtin("example2")
    worst_norm = worst_idem = worst_pyth = worst_formula = 0.0
    for k in range(count):
        param = GeodesicParam((gammas[k],))
        # normalization u(phi(zeta)) = -Im zeta
        p = DomainPoint(Domain.SIEGEL,
                        tuple(geodesic_coords(param.gamma_array(), zetas[k])))
        worst_norm = max(worst_norm, abs(poisson(p) + zetas[k].imag))
        # projection idempotence
        point = DomainPoint(Domain.SIEGEL, tuple(z[k]))
        once = project(param, point)
        twice = project(param, once)
        worst_idem = max(worst_idem, float(np.max(np.abs(
            np.asarray(twice.coords) - np.asarray(once.coords)))))
        # Pythagoras of the field decomposition + closed norm formulas
        dec = decompose(field, point)
        values = np.asarray(dec.tangential) + np.asarray(dec.orthogonal)
        total_sq = hyperbolic_norm(TangentVector(point, tuple(values))) ** 2
        t_norm = hyperbolic_norm(TangentVector(point, dec.tangential))
        o_norm = hyperbolic_norm(TangentVector(point, dec.orthogonal))
        worst_pyth = max(worst_pyth,
                         abs(total_sq - (t_norm**2 + o_norm**2)) / total_sq)
        u = abs(poisson(point))
        gamma_k, zeta_k = geodesic_params(z[k])
        h = slice_value(field, GeodesicParam(tuple(gamma_k)), zeta_k)
        tail = np.asarray(dec.orthogonal)[1:]
        scale = max(t_norm, 1e-6)
        worst_formula = max(
            worst_formula,
            abs(t_norm - abs(h) / u) / scale,
            abs(o_norm - 2 * np.linalg.norm(tail) / np.sqrt(u))
            / max(o_norm, 1e-6),
        )
    assert worst_norm < 1e-14
    assert worst_idem < 1e-13
    assert worst_pyth < 1e-12
    assert worst_formula < 1e-12
    _report(4, f"normalization {worst_norm:.2e}, idempotence {worst_idem:.2e},"
               f" pythagoras {worst_pyth:.2e}, norm formulas "
               f"{worst_formula:.2e}; {count} samples each")


def test_criterion_05_flow_fixtures():
    start = time.perf_counter()
    worst_end = 0.0
    # disc contraction
    traj_d = integrate_autonomous(parse_field("-z", 1), disc_point(0.4 + 0.2j),
                                  1.0, tol=1e-10)
    worst_end = max(worst_end, abs(complex(traj_d.final_state[0])
                                   - (0.4 + 0.2j) * np.exp(-1.0)))
    # example1 on H_2
    traj_1 = integrate_autonomous(builtin("example1"), siegel_point(2j, 0.7),
                                  1.0, tol=1e-10)
    expected = np.array([2j, 0.7 * np.exp(-1j / 2j)])
    worst_end = max(worst_end, float(np.max(np.abs(traj_1.final_state
                                                   - expected))))
    # reciprocal on the half-plane
    for z0 in (2j, 1 + 2j):
        traj = integrate_autonomous(builtin("reciprocal"),
                                    half_plane_point(z0), 1.0, tol=1e-10)
        worst_end = max(worst_end,
                        abs(complex(traj.final_state[0])
                            - np.sqrt(z0 * z0 - 2.0)))
    assert worst_end < 1e-8
    # semigroup law at t = s = 0.5
    worst_res = 0.0
    for field, z0 in (
        (builtin("example1"), siegel_point(1j, 0.5)),
        (builtin("example2"), siegel_point(2j, 0.0)),
        (builtin("reciprocal"), half_plane_point(1 + 1j)),
    ):
        worst_res = max(worst_res, semigroup_check(field, z0, 0.5, 0.5).residual)
    assert worst_res < 1e-9
    # |u| is monotone along flows of the admissible-class fixtures; the disc
    # contraction spirals into an interior rest point where |u| drops from
    # 2 to 1, so it is checked for endpoint accuracy only.
    monotone_cases = (
        (builtin("example1"), siegel_point(2j, 0.7)),
        (builtin("reciprocal"), half_plane_point(2j)),
        (builtin("reciprocal"), half_plane_point(1 + 2j)),
    )
    worst_inc = np.inf
    for field, z0 in monotone_cases:
        report = julia_monotonicity(field, z0, 1.0)
        assert report.passed
        worst_inc = min(worst_inc, report.min_increment)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"worst endpoint error {worst_end:.2e}, worst semigroup "
               f"residual {worst_res:.2e}, min |u| increment {worst_inc:.2e} "
               f"on {len(monotone_cases)} admissible fixtures; {elapsed:.2f}s")


def test_criterion_06_capacity_from_flows():
    rng = np.random.default_rng(987)
    measures = sampling.herglotz_measures(rng, 3)
    worst_static = 0.0
    for m in measures:
        est = slice_capacities(cauchy_transform(m), [()])[0]
        worst_static = max(worst_static, abs(est.value - m.total_mass))
    assert worst_static < 1e-6
    m = measures[0]
    field = cauchy_transform(m)
    worst_flow = 0.0
    for t in (0.5, 1.0, 2.0):
        est = extract_capacity(flow_map(field, t))
        worst_flow = max(worst_flow, abs(est.value - t * m.total_mass))
    assert worst_flow < 1e-3
    step = flow_map(builtin("reciprocal"), 1.0)
    cap_one = extract_capacity(step).value
    cap_two = extract_capacity(lambda pts: step(step(pts))).value
    gap = abs(cap_two - 2 * cap_one)
    assert gap < 1e-3
    _report(6, f"static capacity error {worst_static:.2e}, flow capacity "
               f"error {worst_flow:.2e}, additivity gap {gap:.2e}")


def test_criterion_07_displacement_bounds():
    worst = -np.inf
    for z0 in (siegel_point(2j, 0.0), siegel_point(3j, 0.5)):
        for t in (0.5, 1.0):
            report = displacement_bound_check(builtin("example2"), 2.0, z0, t)
            worst = max(worst, report.displacement_norm - report.bound)
            assert report.displacement_norm <= report.bound + 1e-6
    _report(7, f"worst (displacement - bound) = {worst:.2e} over 4 runs")


def test_criterion_08_horosphere_checks():
    ineq = horosphere_inequality_check(displacement_field(builtin("example2"),
                                                          1.0))
    assert ineq.ok
    image = horosphere_image_check(flow_map(builtin("example2"), 1.0), 2.0)
    assert image.passed
    assert image.count == 64
    assert image.worst_value <= 3.0 * (1 + 1e-9)
    _report(8, f"orthogonality margin {ineq.worst_margin:.2e} on "
               f"{ineq.grid_name}; image |u| max {image.worst_value:.4f} "
               f"<= 3 on 64 horosphere samples")


def test_criterion_09_iteration_budget():
    start = time.perf_counter()
    diag = iterate_map(flow_map(builtin("example2"), 1.0),
                       siegel_point(1j, 0.5), 10_000)
    u_final = float(diag.u_magnitudes[-1])
    assert u_final > 100.0
    assert diag.tag == "diverges_to_infinity"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(9, f"|u| = {u_final:.1f} > 100 after {diag.iterations} "
               f"iterations; {elapsed:.2f}s")


def test_criterion_10_verify_cli_determinism():
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "siegelflow.cli", "verify", "--suite", "all",
           "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["passed"] is True
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(10, f"two runs byte-identical ({len(first.stdout)} bytes), "
                f"exit 0; {elapsed:.2f}s")
