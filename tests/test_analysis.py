"""Capacity estimation and sampled membership inequalities."""

import numpy as np
import pytest

from siegelflow import sampling
from siegelflow.analysis import (
    CAPACITY_DEFAULTS,
    horosphere_inequality_check,
    membership,
    slice_capacities,
)
from siegelflow.domains import Domain
from siegelflow.errors import ArityMismatchError, FieldEvaluationError
from siegelflow.fields import (
    DiscreteMeasure,
    builtin,
    cauchy_transform,
    parse_field,
    pushforward_to_ball,
    zero_field,
)
from siegelflow.flows import displacement_field, flow_map
from siegelflow.geodesics import GeodesicParam, slice_field


def capacity(field, **window):
    """The capacity estimate of a 1-d field: its only slice, gamma = ()."""
    return slice_capacities(field, [()], **window)[0]


def test_capacity_of_reciprocal_is_one():
    est = capacity(builtin("reciprocal"))
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert est.trend == "converged"
    assert len(est.samples) == 64


def test_capacity_equals_total_mass(rng):
    for m in sampling.herglotz_measures(rng, 3):
        est = capacity(cauchy_transform(m))
        assert est.value == pytest.approx(m.total_mass, abs=1e-6)


def test_capacity_trend_flags():
    # constant drift: y |i| = y grows without bound
    est = capacity(parse_field("i", 1))
    assert est.trend == "increasing"
    est = capacity(parse_field("0", 1))
    assert est.trend == "converged"
    assert est.value == 0.0


def test_capacity_rejects_bad_windows():
    with pytest.raises(ValueError):
        capacity(builtin("reciprocal"), y_min=10.0, y_max=1.0)
    for window in ({"y_max": np.inf}, {"y_min": np.nan}, {"y_max": np.nan}):
        with pytest.raises(ValueError, match="finite"):
            capacity(builtin("reciprocal"), **window)
    with pytest.raises(ArityMismatchError):
        capacity(builtin("example1"))


@pytest.mark.parametrize("count", [0, 1, 7])
def test_capacity_needs_two_tail_samples(count):
    with pytest.raises(ValueError, match="count"):
        capacity(builtin("reciprocal"), count=count)


def test_capacity_smallest_count_keeps_a_two_sample_tail():
    est = capacity(builtin("reciprocal"), count=8)
    assert len(est.samples) == 8
    assert est.trend == "converged"


def test_pointwise_1d_verdicts():
    ok = membership(builtin("reciprocal"), 1.0)
    assert ok.verdict == "consistent"
    assert ok.sup_observed <= 1.0 * (1 + 1e-9)
    bad = membership(builtin("reciprocal"), 0.5)
    assert bad.verdict == "violated"
    assert abs(bad.witness[0]) > 0


def test_pointwise_1d_flags_wrong_range():
    report = membership(parse_field("-i", 1), 10.0)
    assert any("does not map" in note for note in report.notes)


def test_membership_example1_witness():
    report = membership(builtin("example1"), 7.0)
    assert report.verdict == "violated"
    assert report.sup_observed == pytest.approx(7500.0, rel=1e-12)
    assert abs(report.witness[1]) >= 2.0
    assert report.grid_name == "siegel-grid-v1"


def test_membership_example2_consistent():
    report = membership(builtin("example2"), 2.0)
    assert report.verdict == "consistent"
    # true supremum of u^2 ||H|| is sqrt(256/243) < 4/3
    assert report.sup_observed <= np.sqrt(256 / 243) + 1e-9


def test_membership_zero_field_class_zero():
    report = membership(zero_field(2), 0.0)
    assert report.verdict == "consistent"
    assert report.sup_observed == 0.0


def test_ball_membership_agrees_with_siegel():
    field = builtin("example2")
    siegel = membership(field, 2.0)
    ball = membership(pushforward_to_ball(field), 2.0, Domain.BALL)
    assert ball.verdict == siegel.verdict
    assert ball.sup_observed == pytest.approx(siegel.sup_observed, rel=1e-9)


def test_slice_capacities_and_pointwise_checks():
    field = builtin("example1")
    gammas = [(1.0,), (2.0,)]
    values = [e.value for e in slice_capacities(field, gammas, y_max=1e6)]
    assert values[0] == pytest.approx(2.0, rel=1e-5)
    assert values[1] == pytest.approx(8.0, rel=1e-5)
    for gamma in gammas:
        report = membership(slice_field(field, GeodesicParam(gamma)), 8.0)
        assert report.verdict == "consistent"


@pytest.mark.parametrize("spec", ["0; -i*z2/z1", "0; -i*z3/z1; z2/z1^2"])
def test_slice_capacities_equal_each_slice_alone(spec):
    field = parse_field(spec)
    rng = np.random.default_rng(3)
    gammas = [
        tuple(rng.normal(size=field.dimension - 1)
              + 1j * rng.normal(size=field.dimension - 1))
        for _ in range(7)
    ]
    stacked = slice_capacities(field, gammas, y_max=1e6, count=40)
    for gamma, estimate in zip(gammas, stacked):
        alone = slice_capacities(
            slice_field(field, GeodesicParam(gamma)), [()], y_max=1e6, count=40
        )
        assert [estimate] == alone


def test_one_dimensional_slice_is_the_field_itself():
    # At n = 1 the samples are y |H(iy)| sampled directly, bit for bit.
    field = parse_field("exp(i*z)/(2+z^2) - 3/z", 1)
    ys = np.geomspace(CAPACITY_DEFAULTS["y_min"], CAPACITY_DEFAULTS["y_max"],
                      CAPACITY_DEFAULTS["count"])
    with np.errstate(all="ignore"):
        direct = ys * np.abs(field((1j * ys)[:, None])[:, 0])
    assert capacity(field).samples == tuple(zip(ys.tolist(), direct.tolist()))


def test_non_finite_capacity_samples_name_the_field():
    # A 1-d field is reported by its own description, a slice as slice[...].
    with pytest.raises(FieldEvaluationError) as one:
        capacity(parse_field("exp(z)/(1+z^2)", 1))
    assert str(one.value) == "exp(z1)/(1 + z1^2) produced non-finite values"
    with pytest.raises(FieldEvaluationError) as two:
        slice_capacities(parse_field("1/(1+z1^2); 0", 2), [(0.0,)])
    assert str(two.value) == "slice[1/(1 + z1^2); 0] produced non-finite values"


@pytest.mark.parametrize("domain", [Domain.SIEGEL, Domain.BALL])
def test_an_overflowing_membership_scan_is_a_field_failure(domain):
    # The field is finite on the grid, but u^2 ||H|| overflows to inf - inf:
    # a NaN supremum would read "consistent", so it raises, without a warning.
    with pytest.raises(FieldEvaluationError) as info:
        membership(parse_field("1e160; 1e160"), 1.0, domain)
    assert str(info.value) == "u^2 ||H|| of 1e+160; 1e+160 produced non-finite values"


def test_an_overflowing_capacity_sample_is_a_field_failure():
    # h(iy) = iy is finite up to y = 1e300, but y |h(iy)| is not.
    # The message names the scaled quantity, as a non-finite h(iy) names h.
    with pytest.raises(FieldEvaluationError) as info:
        slice_capacities(parse_field("z"), [()], y_max=1e300)
    assert str(info.value) == "y |h(iy)| of z1 produced non-finite values"
    with pytest.raises(FieldEvaluationError) as info:
        slice_capacities(parse_field("0; z1*1e290"), [(1,)], y_max=1e10)
    assert str(info.value) == "y |h(iy)| of slice[0; z1*1e+290] produced non-finite values"


def test_slice_capacities_checks_each_gamma():
    assert slice_capacities(builtin("example2"), []) == []
    with pytest.raises(ValueError, match="finite"):
        slice_capacities(builtin("example2"), [], y_max=np.inf)
    with pytest.raises(ArityMismatchError):
        slice_capacities(builtin("example2"), [(1.0,), (1.0, 2.0)])
    with pytest.raises(ValueError, match="count"):
        slice_capacities(builtin("example2"), [(1.0,)], count=7)


@pytest.mark.parametrize("c", [np.nan, np.inf, -1.0])
def test_membership_rejects_bad_class_constants(c):
    with pytest.raises(ValueError, match="class constant c"):
        membership(builtin("example2"), c)
    with pytest.raises(ValueError, match="class constant c"):
        membership(pushforward_to_ball(builtin("example2")), c, Domain.BALL)
    with pytest.raises(ValueError, match="class constant c"):
        membership(builtin("reciprocal"), c)


def test_membership_domain_defaults_by_dimension_and_refuses_the_disc():
    assert membership(builtin("reciprocal"), 1.0).witness_domain == Domain.HALF_PLANE
    assert membership(builtin("example2"), 2.0).witness_domain == Domain.SIEGEL
    with pytest.raises(ValueError, match="disc"):
        membership(builtin("reciprocal"), 1.0, Domain.DISC)
    with pytest.raises(ArityMismatchError):
        membership(builtin("example2"), 2.0, Domain.HALF_PLANE)


def test_horosphere_inequality_for_flow_displacement():
    report = horosphere_inequality_check(displacement_field(builtin("example2"), 0.5))
    assert report.ok
    assert report.worst_margin > 0


def test_capacity_additivity_check():
    # The composite's capacity is the sum of its parts', not one part's.
    from siegelflow.flows import extract_capacity

    step = flow_map(builtin("reciprocal"), 1.0)
    cap_one = extract_capacity(step).value
    cap_two = extract_capacity(lambda pts: step(step(pts))).value
    assert abs(2.0 * cap_one - cap_two) <= 1e-3
    assert abs(cap_one - cap_two) > 1e-6
