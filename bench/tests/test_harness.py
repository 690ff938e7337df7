"""Tracer, op accounting and one checked op of each workload."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from pace import Pace
import workloads
from workloads import WORKLOADS

siegelflow = importlib.import_module("siegelflow")


def test_tracer_records_spans_and_restores_every_original():
    from siegelflow import domains, expressions, fields, flows

    originals = (domains.poisson, flows.poisson, fields.VectorField.__call__,
                 expressions.evaluate)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert flows.poisson is domains.poisson is not originals[0]
        field = fields.parse_field("-1/z1; z2/(2*z1^2)")
        flows.flow_map(field, 0.5)(np.array([[2j, 0.5], [3j, 0.1]]))
        flows.semigroup_check(field, domains.siegel_point(2j, 0.5), 0.25, 0.25)
    finally:
        tracer.uninstall()
    assert (domains.poisson, flows.poisson, fields.VectorField.__call__,
            expressions.evaluate) == originals

    summary = tracer.summary()
    names = summary["per_name"]
    assert names["flows.flow_map.apply"]["points"] == 2
    # semigroup_check integrates three single-point flows.
    assert names["flows.integrate_autonomous"]["points"] == 3
    parsed = names[f"{spans.FIELD_CALL}[parsed]"]
    # Recursion inside evaluate records one span per component per call.
    assert names["expressions.evaluate"]["calls"] == 2 * parsed["calls"]
    assert parsed["leaf_points"] == parsed["points"] > parsed["calls"]
    flows_layer = summary["per_layer"]["flows"]
    assert 0 < flows_layer["self_s"] < flows_layer["busy_s"]


class _Broken:
    """A workload whose ops alternately raise and return a wrong answer."""

    round_size = 2

    def op(self, index):
        def run_raises():
            raise ValueError("boom")

        def check_misses(result):
            return workloads.Outcome(misses=["endpoint: miss 1.0e+00 > allowed 1.0e-09"])

        if index % 2:
            return workloads.Op("bad", {"i": index}, lambda: None, check_misses)
        return workloads.Op("raises", {"i": index}, run_raises, check_misses)


def test_failed_ops_are_counted_reported_and_never_fatal(capsys):
    runner = run.Runner(_Broken(), Pace("point"))
    for index in range(4):
        runner.do(index)
    assert (runner.attempted, runner.failed, runner.correct) == (4, 4, False)
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [line["failed_op"] for line in lines] == [0, 1, 2, 3]
    assert lines[0]["errors"] == ["ValueError: boom"]
    assert lines[1]["inputs"] == {"i": 1} and "miss" in lines[1]["misses"][0]


def test_pace_scales_by_the_nearest_kernel_samples():
    pace = Pace("point")
    pace.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0]
    pace.durations = [pace.reference_s * f for f in (2, 2, 2, 2, 2, 2, 2, 50)]
    assert pace.scale(2.5, 1.0) == pytest.approx(0.5)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([float(k) for k in range(100)]) == 89.0
    assert run.tail([float(k) for k in range(40)]) == 29.0


@pytest.mark.parametrize("name, ops", [("orbit", range(6)), ("verify-sweep", [1])])
def test_workload_ops_pass_their_checks(tmp_path: Path, name, ops):
    workload = WORKLOADS[name](7, tmp_path, siegelflow)
    for index in ops:
        op = workload.op(index)
        if op.prepare:
            op.prepare()
        outcome = op.check(op.run())
        assert not outcome.errors and not outcome.misses, (op.inputs, outcome)
        assert outcome.seeds == 1 and outcome.maps > 0


def test_grid_flow_check_catches_a_perturbed_endpoint(tmp_path: Path):
    workload = WORKLOADS["grid-flow"](7, tmp_path, siegelflow)
    op = workload.op(0)
    endpoints, report = op.run()
    assert op.check((endpoints, report)).misses == []
    endpoints = endpoints.copy()
    endpoints[17, 1] += 1e-8
    misses = op.check((endpoints, report)).misses
    assert len(misses) == 1 and "endpoint[35]" in misses[0]


class _Replay:
    """One verify-sweep op whose CLI results are replaced before the check."""

    round_size = 1

    def __init__(self, op, results):
        self.op_ = workloads.Op(op.kind, op.inputs, lambda: results, op.check)

    def op(self, index):
        return self.op_


def _verify_sweep_op(tmp_path, index):
    op = WORKLOADS["verify-sweep"](7, tmp_path, siegelflow).op(index)
    return op, op.run()


def test_a_wrong_member_verdict_makes_the_run_incorrect(tmp_path: Path):
    op, results = _verify_sweep_op(tmp_path, 1)
    code, out, err = results[2]
    assert code == 0 and json.loads(out)["verdict"] == "consistent"
    wrong = json.dumps({**json.loads(out), "verdict": "violated"})
    results[2] = (1, wrong, err)
    runner = run.Runner(_Replay(op, results), Pace("point"))
    runner.do(0)
    assert (runner.attempted, runner.failed, runner.correct) == (1, 1, False)


def test_a_crash_exit_is_an_error_not_a_miss(tmp_path: Path):
    op, results = _verify_sweep_op(tmp_path, 1)
    results[3] = (3, "", "numerical failure: step size underflow")
    outcome = op.check(results)
    assert outcome.misses == [] and "exit 3" in outcome.errors[0]


def test_the_known_fault_fails_the_op_but_keeps_the_run_correct(tmp_path: Path):
    op, results = _verify_sweep_op(tmp_path, 0)
    assert op.inputs["verify_seed"] in workloads.KNOWN_FAILING_SEEDS
    runner = run.Runner(_Replay(op, results), Pace("point"))
    runner.do(0)
    assert (runner.attempted, runner.failed, runner.correct) == (1, 1, True)
    # The same report on a seeded slot is a miss.
    outcome = workloads.VerifySweep(7, tmp_path, siegelflow).op(1).check(results)
    assert outcome.misses and "projection-idempotence" in outcome.misses[0]
