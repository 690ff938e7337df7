"""The verification suites: structure, determinism, and fault sensitivity."""

import json
import warnings

import numpy as np
import pytest

import siegelflow.domains as domains
from siegelflow.cli import main
from siegelflow.verify import SUITE_NAMES, run, run_suite


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
    import siegelflow.fields as fields

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
