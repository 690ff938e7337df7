"""The verification suites: structure, determinism, and fault sensitivity."""

import json
import warnings

import numpy as np
import pytest

import siegelflow.analysis as analysis
import siegelflow.domains as domains
import siegelflow.fields as fields
import siegelflow.flows as flows
import siegelflow.grids as grids
from siegelflow.cli import main
from siegelflow.fields import VectorField
from siegelflow.verify import SUITE_NAMES, GroupResult, run, run_suite


def test_all_suites_pass():
    report = run("all", 7)
    assert report.passed
    assert [s.suite for s in report.suites] == list(SUITE_NAMES)


def test_single_suite_selection():
    report = run("metric", 3)
    assert [s.suite for s in report.suites] == ["metric"]
    assert report.passed


def test_metric_suite_has_enough_groups_with_counts():
    suite = run_suite("metric", 7)
    assert len(suite.groups) >= 4
    for group in suite.groups:
        assert group.count > 0
        assert group.passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", 0)


def test_negative_seed_is_named():
    with pytest.raises(ValueError, match="verify seed must be a non-negative integer, got -1"):
        run("all", -1)


def test_render_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify", "--suite", "all", "--seed", "7"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["seed"] == 7
    assert payload["passed"] is True


def test_different_seeds_still_pass():
    for seed in (0, 1, 11):
        assert run("all", seed).passed


def test_broken_metric_entry_is_named(monkeypatch):
    # flip the sign of g[1,1]; the Pythagoras identity must report it
    real = domains.bergman_matrix_array

    def broken(coords):
        g = real(coords).copy()
        if g.shape[-1] > 1:
            g[..., 1, 1] = -g[..., 1, 1]
        return g

    monkeypatch.setattr(domains, "bergman_matrix_array", broken)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run("metric", 7)
    assert not report.passed
    failing = [g.name for s in report.suites for g in s.groups if not g.passed]
    assert any("pythagoras" in name for name in failing)


def test_group_exception_becomes_failure(monkeypatch):
    # groups must contain their own failures instead of aborting the run
    def explode(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(domains, "poisson_values", explode)
    report = run("geodesics", 7)
    assert not report.passed
    details = [g.detail for s in report.suites for g in s.groups if not g.passed]
    assert any("injected" in d for d in details)
    # the failed group has no finite worst (verify prints it as null)
    failed = [g for s in report.suites for g in s.groups if not g.passed]
    assert all(not np.isfinite(g.worst) for g in failed)


def test_a_violated_bound_is_measured_not_lost(monkeypatch):
    # example2 scaled by 10 leaves the class c = 2 the displacement group
    # assumes: the group must report its four measured cases, not an error.
    real = fields.example2

    def scaled():
        field = real()
        return fields.VectorField(field.dimension, lambda z: 10.0 * field(z),
                                  "10 * example2")

    monkeypatch.setattr(fields, "example2", scaled)
    report = run_suite("flows", 7)
    group = next(g for g in report.groups if g.name == "displacement-bound")
    assert group.count == 4
    assert np.isfinite(group.worst) and group.worst > group.limit
    assert not group.passed


def test_the_flows_suite_makes_a_pinned_number_of_field_calls(monkeypatch,
                                                             field_evaluations):
    # The flows of every field, domain and tolerance of one dimension share
    # one kernel call across groups (n = 2: example1, example2 and the zero
    # field; n = 1: -z on the disc, -1/z at tol 1e-10 and 1e-13, and
    # flow-capacity's Cauchy field), and chains restart their legs inside
    # those calls: 5460 field calls in 720 steps and 5 kernel calls, the
    # other three from loewner-restart's public runs.  With one kernel call per
    # field, domain and tolerance and flow-capacity's maps on their own, the
    # suite made 6226 field calls in 1034 steps and 14 kernel calls; with
    # every chain leg a call of its own, 8271 calls in 1374 steps and 68
    # kernel calls; pooled within groups only, 9948 calls in 1651 steps; and
    # with every flow on its own 11218 calls in 1862 steps.
    steps, calls = [], []
    stages, advance = flows._stages, flows._advance

    def counted_stages(*args):
        steps.append(1)
        return stages(*args)

    def counted_advance(*args, **kwargs):
        calls.append(1)
        return advance(*args, **kwargs)

    monkeypatch.setattr(flows, "_stages", counted_stages)
    monkeypatch.setattr(flows, "_advance", counted_advance)
    assert run_suite("flows", 7).passed
    assert (len(field_evaluations), len(steps), len(calls)) == (5460, 720, 5)


def test_horosphere_checks_report_what_the_public_checks_report():
    # The group judges pooled rows with the two public checks' own judges,
    # so it reports what the checks report on a flow map of their own.
    field = fields.example2()
    image = flows.horosphere_image_check(flows.flow_map(field, 1.0), 2.0)
    inequality = analysis.horosphere_inequality_check(
        flows.displacement_field(field, 1.0), grid="small")
    group = next(g for g in run_suite("flows", 7).groups if g.name == "horosphere-checks")
    assert group == GroupResult(
        name="horosphere-checks",
        count=len(grids.siegel_grid_small()) + image.count,
        worst=max(-inequality.worst_margin, image.worst_value - image.limit),
        limit=flows.HOROSPHERE_IMAGE_SLACK,
        passed=inequality.ok and image.passed,
        detail=(f"orthogonality margin {inequality.worst_margin:.3e}, "
                f"image |u| max {image.worst_value:.6f} of {image.limit:g}"),
    )


@pytest.mark.parametrize("factory, failing", [
    # example1's part carries fixture-endpoints, semigroup-law and
    # julia-monotonicity; integrator-order steps example1 on its own.
    ("example1", ("fixture-endpoints", "semigroup-law", "julia-monotonicity",
                  "integrator-order")),
    # -1/z's part carries fixture-endpoints, semigroup-law, loewner-restart
    # and flow-capacity.
    ("reciprocal_1d", ("fixture-endpoints", "semigroup-law", "loewner-restart",
                       "flow-capacity")),
], ids=["example1", "reciprocal_1d"])
def test_a_failing_pool_fails_only_the_groups_with_rows_in_it(monkeypatch, factory,
                                                              failing):
    # Each failing group names the error, and every other group still passes.
    real = getattr(fields, factory)

    def broken():
        field = real()

        def evaluator(points):
            raise RuntimeError(f"{factory} is broken")

        return VectorField(field.dimension, evaluator, field.description)

    monkeypatch.setattr(fields, factory, broken)
    report = run_suite("flows", 7)
    failed = {g.name: g.detail for g in report.groups if not g.passed}
    assert failed == dict.fromkeys(failing, f"RuntimeError: {factory} is broken")
    assert len(report.groups) == 9
