"""Command-line contract: flag parsing, JSON output, and exit codes."""

import hashlib
import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from siegelflow import cli, grids
from siegelflow.cli import main, parse_point, resolve_field, resolve_map
from siegelflow.domains import Domain, parse_complex
from siegelflow.fields import VectorField


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------

def test_parse_point_whitespace_insensitive():
    p = parse_point("( i ,  0.5 )")
    assert p.domain == Domain.SIEGEL
    assert p.coords == (1j, 0.5 + 0j)
    q = parse_point("(i,0.5)")
    assert q.coords == p.coords


def test_parse_point_one_dim_defaults_to_half_plane():
    p = parse_point("2+3i")
    assert p.domain == Domain.HALF_PLANE
    assert p.coords == (2 + 3j,)


def test_parse_point_domain_override():
    p = parse_point("0.5", "disc")
    assert p.domain == Domain.DISC


def test_resolve_field_forms(tmp_path):
    assert resolve_field("builtin:example1").dimension == 2
    assert resolve_field("0; -i*z2/z1").dimension == 2
    m = resolve_field('measure:[{"u": -1, "m": 0.5}, {"u": 1, "m": 0.5}]')
    assert m.dimension == 1
    path = tmp_path / "m.json"
    path.write_text('[{"u": 0, "m": 2.0}]')
    assert resolve_field(f"measure:@{path}").dimension == 1
    bp = resolve_field("bp:0:1")
    out = bp(np.array([[0.5 + 0j]]))
    np.testing.assert_allclose(out[0, 0], -0.5, atol=1e-15)


def test_resolve_map_flow_spec():
    step, dim = resolve_map("flow1:builtin:example2", Domain.SIEGEL)
    assert dim == 2
    out = step(np.array([[1j, 0.5]]))
    assert out.shape == (1, 2)
    # The flow map integrates in the given domain: 0.3 is in the disc.
    step, dim = resolve_map("flow1:-z", Domain.DISC)
    assert dim == 1
    assert abs(step(np.array([[0.3]]))[0, 0] - 0.3 * np.exp(-1.0)) < 1e-10
    with pytest.raises(ValueError):
        resolve_map("flowX:builtin:example2", Domain.SIEGEL)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_field(capsys):
    code, out, _ = run_cli(capsys, "eval", "--field", "0; -i*z2/z1",
                           "--at", "(i, 0.5)")
    assert code == 0
    assert json.loads(out) == ["0+0i", "-0.5+0i"]


def test_eval_poisson(capsys):
    code, out, _ = run_cli(capsys, "eval", "--what", "poisson", "--at", "(i, 0)")
    assert code == 0
    assert json.loads(out) == -1.0


def test_eval_slice(capsys):
    code, out, _ = run_cli(capsys, "eval", "--what", "slice",
                           "--field", "builtin:example2",
                           "--gamma", "0", "--zeta", "i")
    assert code == 0
    assert json.loads(out) == "0+1i"


def test_eval_metric(capsys):
    code, out, _ = run_cli(capsys, "eval", "--what", "metric", "--at", "(2i, 1)")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == ["1+0i", "0+2i"]
    assert rows[1][1] == "8+0i"


def test_iterate_map_malformed_bp_spec_names_map(capsys):
    code, out, err = run_cli(capsys, "iterate", "--map", "flow1:bp:0",
                             "--z0", "0.3", "--domain", "disc", "--n", "3")
    assert code == 2
    assert out == ""
    assert "--map" in err and "--field" not in err
    assert "'bp:0'" in err and "bp:TAU:P_EXPR" in err


def test_flow_driver_malformed_bp_spec_names_file_and_piece(capsys, tmp_path):
    pieces = tmp_path / "pieces.json"
    pieces.write_text(json.dumps([
        {"t0": 0, "t1": 1, "field": "-1/z"},
        {"t0": 1, "t1": 2, "field": "bp:0"},
    ]))
    code, out, err = run_cli(capsys, "flow", "--driver", str(pieces),
                             "--z0", "0.3", "--domain", "disc", "--t", "2")
    assert code == 2
    assert out == ""
    assert f"piece 1 in {pieces}" in err and "--field" not in err
    assert "'bp:0'" in err and "bp:TAU:P_EXPR" in err


@pytest.mark.parametrize("body", [
    '{"u": 1, "m": 1}', "[1, 2]", "5", '[{"u": null, "m": 1}]', '[{"u": 0, "m": true}]',
])
def test_malformed_measure_json_exits_2(capsys, body):
    code, out, err = run_cli(capsys, "eval", "--what", "field",
                             "--field", "measure:" + body, "--at", "i")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "measure" in err


def test_eval_syntax_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--field", "z +", "--at", "i")
    assert code == 2
    assert "offset" in err


@pytest.mark.parametrize("spec", ["bp:0", "bp:"])
def test_eval_malformed_bp_spec_exits_2(capsys, spec):
    code, out, err = run_cli(capsys, "eval", "--field", spec, "--at", "0.3",
                             "--domain", "disc")
    assert code == 2
    assert out == ""
    assert "--field" in err and "bp:TAU:P_EXPR" in err


def test_eval_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--what", "poisson", "--at", "(-i, 0)")
    assert code == 2
    assert "not interior" in err


def test_eval_singularity_exits_3(capsys):
    code, _, err = run_cli(capsys, "eval", "--field", "1/(z-i)", "--at", "i")
    assert code == 3
    assert "singular" in err


@pytest.mark.parametrize("field, gamma, zeta", [
    ("1/(z1-2*i); 0", "0", "2i"),           # a pole at phi_0(2i) = (2i, 0)
    ("builtin:example2", "1e200", "i"),     # ||gamma||^2 overflows
])
def test_eval_non_finite_slice_exits_3(capsys, field, gamma, zeta):
    code, out, err = run_cli(capsys, "eval", "--what", "slice", "--field", field,
                             "--gamma", gamma, "--zeta", zeta)
    assert code == 3
    assert out == ""
    assert "is not finite at" in err


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_one_dim(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--field", "-1/z")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.0, rel=1e-12)
    assert payload["trend"] == "converged"


# SHA-256 of the stdout of capacity on a one-dimensional field, taken from
# the separate half-plane estimator (then behind --one-dim) that the n = 1
# slice replaced: the field's dimension picks the mode, and no byte moved.
@pytest.mark.parametrize("argv, digest", [
    (["--field", "-1/z"],
     "a8a9bec8ed11ef29d82f59087613e3256b22c6747dc4261894167cf0b210e944"),
    (["--field", "builtin:reciprocal", "--count", "8", "--y-max", "1e5"],
     "ef81fcfe04e3c14f18ae1c2213cca9bdb34c7e1431373bfcd3e8fcd0aa7110ca"),
])
def test_capacity_of_a_one_dimensional_field_is_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, "capacity", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_capacity_slices(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--field", "builtin:example1",
                           "--slices", "1,2", "--y-max", "1e6")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["value"] == pytest.approx(2.0, rel=1e-5)
    assert payload[1]["value"] == pytest.approx(8.0, rel=1e-5)


def test_capacity_slices_batch_matches_single_slices(capsys):
    args = ("capacity", "--field", "builtin:example2", "--slices")
    code, batch, _ = run_cli(capsys, *args, "0,1,1+i")
    assert code == 0
    alone = []
    for gamma in ("0", "1", "1+i"):
        code, out, _ = run_cli(capsys, *args, gamma)
        assert code == 0
        alone.extend(json.loads(out))
    assert batch == json.dumps(alone, indent=2) + "\n"
    for entry in json.loads(batch):
        assert entry["value"] == pytest.approx(1.0, rel=1e-5)


@pytest.mark.parametrize("count", ["0", "7"])
def test_capacity_small_count_exits_2(capsys, count):
    code, out, err = run_cli(capsys, "capacity", "--field", "-1/z", "--count", count)
    assert code == 2
    assert out == ""
    assert "count" in err


def _never_called(*args, **kwargs):
    raise AssertionError("the bound must be checked before any field is built")


@pytest.mark.parametrize("mode", [(), ("--slices", "1")])
def test_capacity_count_above_bound_exits_2(capsys, monkeypatch, mode):
    monkeypatch.setattr(cli, "resolve_field", _never_called)
    code, out, err = run_cli(capsys, "capacity", "--field", "-1/z", *mode,
                             "--count", str(cli.MAX_SAMPLE_COUNT + 1))
    assert code == 2
    assert out == ""
    assert "--count" in err and str(cli.MAX_SAMPLE_COUNT) in err


def test_iterate_n_above_bound_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "resolve_map", _never_called)
    code, out, err = run_cli(capsys, "iterate", "--map", "flow1:builtin:example2",
                             "--z0", "(i,0.5)", "--n", str(cli.MAX_ITERATIONS + 1))
    assert code == 2
    assert out == ""
    assert "--n" in err and str(cli.MAX_ITERATIONS) in err


def test_help_states_the_work_bounds(capsys):
    for command, flag, bound in (("capacity", "--count", cli.MAX_SAMPLE_COUNT),
                                 ("iterate", "--n", cli.MAX_ITERATIONS)):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert flag in out and str(bound) in out


@pytest.mark.parametrize("mode", [(), ("--slices", "1")])
def test_capacity_infinite_window_exits_2(capsys, mode):
    field = "builtin:example2" if mode else "-1/z"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "capacity", "--field", field, *mode,
                                 "--y-max", "inf")
    assert code == 2
    assert out == ""
    assert "y_max" in err
    assert "Warning" not in err


def test_capacity_needs_a_mode(capsys):
    # The field's dimension picks the mode: n > 1 needs --slices.
    code, out, err = run_cli(capsys, "capacity", "--field", "builtin:example2")
    assert code == 2
    assert out == ""
    assert "--slices" in err


def test_capacity_refuses_slices_of_a_one_dimensional_field(capsys):
    code, out, err = run_cli(capsys, "capacity", "--field", "-1/z", "--slices", "1")
    assert code == 2
    assert out == ""
    assert "--slices" in err


def test_capacity_has_no_one_dim_flag(capsys):
    code, out, err = run_cli(capsys, "capacity", "--field", "-1/z", "--one-dim")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --one-dim" in err


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_flow_summary_and_csv(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "flow", "--field", "builtin:example1",
                           "--z0", "(i, 0.5)", "--t", "1",
                           "--out", str(out_path))
    assert code == 0
    payload = json.loads(out)
    endpoint = payload["endpoint"]
    assert endpoint[0] == "0+1i"
    assert endpoint[1].startswith("0.18393972")
    assert payload["csv"] == str(out_path)
    header = out_path.read_text().splitlines()[0]
    assert header == "t,re_z1,im_z1,re_z2,im_z2,u"


def test_flow_driver_pieces(capsys, tmp_path):
    pieces = tmp_path / "pieces.json"
    pieces.write_text(json.dumps([
        {"t0": 0, "t1": 1, "field": "-1/z"},
        {"t0": 1, "t1": 2, "field": "-2/z"},
    ]))
    code, out, _ = run_cli(capsys, "flow", "--driver", str(pieces),
                           "--z0", "i", "--t", "2")
    assert code == 0
    endpoint = json.loads(out)["endpoint"][0]
    assert endpoint.startswith("0+2.645751311")


def test_flow_driver_checks_the_field_at_z0_at_time_zero(capsys, tmp_path):
    pieces = tmp_path / "pieces.json"
    pieces.write_text(json.dumps([{"t0": 0, "t1": 1, "field": "1/(z-i)"}]))
    for source in (["--driver", str(pieces)], ["--field", "1/(z-i)"]):
        code, out, err = run_cli(capsys, "flow", *source, "--z0", "i", "--t", "0")
        assert code == 3
        assert out == ""
        assert "not finite at the initial point" in err


@pytest.mark.parametrize("spec, names_piece, says", [
    ({"t0": 0}, False, "JSON list of pieces"),
    ([[0, 1, "-1/z"]], True, "must be an object"),
    ([{"t0": 0, "t1": 1, "field": "-1/z"}, {"t0": 1, "t1": 2}], True, "lacks field"),
    ([{"t0": "0", "t1": 1, "field": "-1/z"}], True, "numeric t0 and t1"),
    ([{"t0": 0, "t1": True, "field": "-1/z"}], True, "numeric t0 and t1"),
    ([{"t0": 0, "t1": 1, "field": 3}], True, "string field"),
])
def test_flow_driver_bad_shape_exits_2(capsys, tmp_path, spec, names_piece, says):
    pieces = tmp_path / "pieces.json"
    pieces.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "flow", "--driver", str(pieces),
                             "--z0", "i", "--t", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(pieces) in err and says in err
    index = len(spec) - 1 if isinstance(spec, list) else None
    assert (f"piece {index} in" in err) == names_piece


def test_flow_underflow_exits_3(capsys):
    code, _, err = run_cli(capsys, "flow", "--field", "-i", "--z0", "i",
                           "--t", "2")
    assert code == 3
    assert "underflow" in err


def test_flow_underflow_names_the_step_floor(capsys, tmp_path):
    # A row's step floor is 1e-15 * max(1, |t|) at its own time.  At
    # t = 1e12 the floor is 1e-3, and -1/z at 1e-5 i starts with a step of
    # 0.01 * |z| / |z'| = 1e-12, so the flow stops there and says why.
    pieces = tmp_path / "pieces.json"
    pieces.write_text(json.dumps([
        {"t0": 0, "t1": 1e12, "field": "0"},
        {"t0": 1e12, "t1": 1e12 + 1, "field": "-1/z"},
    ]))
    code, out, err = run_cli(capsys, "flow", "--driver", str(pieces),
                             "--z0", "0.00001i", "--t", "1000000000001")
    assert code == 3
    assert out == ""
    assert "step size underflow at t = 1000000000000.0 (h = 1.000e-12" in err
    assert "below the floor 1e-15 * max(1, |t|) = 1.000e-03" in err


@pytest.mark.parametrize("argv, z1, t", [
    (["flow", "--field", "builtin:example2", "--z0", "(0.0001i, 0)", "--t", "1e5"],
     1e-4j, 1e5),
    (["flow", "--field", "-1/z", "--z0", "0.00001i", "--t", "1e7"], 1e-5j, 1e7),
    (["iterate", "--map", "flow1e6:-1/z", "--z0", "0.00001i", "--n", "2"], 1e-5j, 2e6),
], ids=["flow-example2", "flow-reciprocal", "iterate-reciprocal"])
def test_small_first_steps_of_long_flows_are_above_their_floor(capsys, argv, z1, t):
    # The first steps this near the real axis are below 1e-15 * t, but not
    # below the floor at the row's own time, 1e-15 * max(1, |t|).
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    data = json.loads(out)
    got = parse_complex((data.get("endpoint") or data["final"])[0])
    assert abs(got - np.sqrt(z1 * z1 - 2.0 * t)) <= 1e-10 * t


def test_flow_creeping_along_the_boundary_exits_3(capsys):
    # z' = z^2 - 1 carries -0.5i to the boundary point -1 of the disc; near
    # t = 14.06 the steps start to leave the disc, and the integrator stops
    # after 60 such rejected steps instead of creeping along the margin.
    argv = ["flow", "--field", "z^2 - 1", "--z0", "-0.5i", "--domain", "disc"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--t", "15")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "underflow" in err and "boundary of the disc" in err
    code, out, _ = run_cli(capsys, *argv, "--t", "14")
    assert code == 0
    assert json.loads(out)["steps_accepted"] == 369


@pytest.mark.parametrize("t", ["nan", "inf", "-1"])
def test_flow_bad_time_exits_2(capsys, t):
    code, out, err = run_cli(capsys, "flow", "--field", "builtin:example2",
                             "--z0", "(i, 0.5)", "--t", t)
    assert code == 2
    assert out == ""
    assert "time" in err


def test_flow_nan_tol_exits_2(capsys):
    code, out, err = run_cli(capsys, "flow", "--field", "builtin:example2",
                             "--z0", "(i, 0.5)", "--t", "1", "--tol", "nan")
    assert code == 2
    assert out == ""
    assert "tol" in err


@pytest.mark.parametrize("spec", ["flownan:builtin:example2",
                                  "flowinf:builtin:example2"])
def test_iterate_nonfinite_flow_time_exits_2(capsys, spec):
    code, out, _ = run_cli(capsys, "iterate", "--map", spec,
                           "--z0", "(i,0.5)", "--n", "5")
    assert code == 2
    assert out == ""


# SHA-256 of stdout (and of the CSV) of one-point commands, taken from the
# kernel before the integration-wide floating-point state: bookkeeping
# changes in the integrator or the CLI must not move a byte.  The parsed
# flow map equals the built-in one bit for bit, so both pin one digest.
_Z0 = "(0.1+1.2i, 0.3+0.2i)"
_ITERATE_DIGEST = "c3d076c39b4ce24b75a2b95e49349eaa630b160ccde93ec1e2d4e11c462b6b40"


@pytest.mark.parametrize("argv, digest", [
    (["iterate", "--map", "flow0.9:builtin:example2", "--z0", _Z0, "--n", "300"],
     _ITERATE_DIGEST),
    (["iterate", "--map", "flow0.9:-1/z1; z2/(2*z1^2)", "--z0", _Z0, "--n", "300"],
     _ITERATE_DIGEST),
    (["flow", "--field", "0; -i*z2/z1", "--z0", _Z0, "--t", "1.3", "--out", "traj.csv"],
     "8f305c5e452ae6bfc0f06256e48fe32d3d6bab430abde5f3605bcbacc445d804"),
    (["flow", "--driver", "driver.json", "--z0", "0.2+0.9i", "--t", "1.6"],
     "cda6b88378d71d3ed84ef7a25abca80d4bfff94427118333107117339b949cc9"),
])
def test_one_point_commands_are_pinned_bit_for_bit(capsys, tmp_path, monkeypatch,
                                                   argv, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "driver.json").write_text(json.dumps([
        {"t0": 0, "t1": 0.7, "field": "-1/z"},
        {"t0": 0.7, "t1": 1.6, "field": "-2/z"},
    ]))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if "--out" in argv:
        csv = (tmp_path / "traj.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == (
            "22e32f2dc231f39736da4177b893d7e163523a081bba467df9b416494d363e2c")


def test_iterated_flow_maps_hand_their_last_stage_on(capsys, monkeypatch):
    # 300 flow maps over 443 steps: 6 field calls per step and one start
    # evaluation for the first map only; every later map resumes from the
    # FSAL stage its predecessor ended on.
    calls = []
    call = VectorField.__call__

    def counted(self, points):
        calls.append(1)
        return call(self, points)

    monkeypatch.setattr(VectorField, "__call__", counted)
    code, out, err = run_cli(capsys, "iterate", "--map", "flow1:builtin:example2",
                             "--z0", "(i, 0.5)", "--n", "300")
    assert code == 0 and err == ""
    assert len(calls) == 2659 == 1 + 6 * 443


def test_flows_suite_output_is_pinned_bit_for_bit(capsys):
    # SHA-256 of the stdout of `verify --suite flows --seed 7`, taken from the
    # stage kernel with k0 in slot 0: the slot order moved no addition.
    code, out, err = run_cli(capsys, "verify", "--suite", "flows", "--seed", "7")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5b5ef973f96a2841c9c2e0789c8ae8129a7dfe3b6785a1182a252e30a5c8ce09")


# SHA-256 of stdout taken while the records still rendered themselves: the
# JSON now built in cli from their fields must not move a byte.
@pytest.mark.parametrize("argv, code, digest", [
    (["verify", "--suite", "all", "--seed", "7"], 0,
     "5ee8684ba879cb9c9cd13df5f5f8086e161aaf5164c7dc6bb83e508ec5c14cff"),
    (["capacity", "--field", "builtin:example1", "--slices", "1,2,1+i",
      "--y-max", "1e6"], 0,
     "e56e880f03f47a2909c4d7f225895d00f189cce66e449f4950ad427a4db9361c"),
    (["member", "--field", "-i", "--c", "1"], 1,
     "1b1e6f13bb42edbb930515681741cd385b565adbaecb4f9210625f15563dfc8c"),
    (["iterate", "--map", "z/2", "--z0", "0.3", "--domain", "disc", "--n", "200"], 0,
     "8a82e7c7372ce7d6e3e4045baa49cd34b460d7a399f4c3db190e9d7cc42b8fe1"),
])
def test_record_output_is_pinned_bit_for_bit(capsys, argv, code, digest):
    got, out, err = run_cli(capsys, *argv)
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_repeated_main_calls_start_from_fresh_arguments(capsys, tmp_path):
    flow = ["flow", "--field", "builtin:example2", "--z0", "(i, 0.5)", "--t", "1"]
    code, out, _ = run_cli(capsys, *flow, "--out", str(tmp_path / "traj.csv"))
    assert code == 0 and "csv" in json.loads(out)
    code, again, _ = run_cli(capsys, *flow)
    assert code == 0 and "csv" not in json.loads(again)
    assert json.loads(again)["endpoint"] == json.loads(out)["endpoint"]
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "usage:" in out
    code, out, _ = run_cli(capsys, *flow)
    assert code == 0 and out == again


def test_json_output_is_strict(capsys):
    from siegelflow.cli import _print_json

    with pytest.raises(ValueError):
        _print_json({"t": float("nan")})
    with pytest.raises(ValueError):
        _print_json([float("inf")])
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# member / iterate / verify
# ---------------------------------------------------------------------------

def test_member_consistent_exit_0(capsys):
    code, out, _ = run_cli(capsys, "member", "--field", "builtin:example2",
                           "--c", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "consistent"
    assert payload["grid"] == "siegel-grid-v1"


def test_member_violated_exit_1(capsys):
    code, out, _ = run_cli(capsys, "member", "--field", "builtin:example1",
                           "--c", "100")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "violated"
    assert payload["sup"] > 100


def test_member_one_dim_route(capsys):
    for grid in ([], ["--grid", "default"], ["--grid", "halfplane-grid-v1"]):
        code, out, _ = run_cli(capsys, "member", "--field", "-1/z", "--c", "1", *grid)
        assert code == 0
        assert json.loads(out)["verdict"] == "consistent"
        assert json.loads(out)["grid"] == "halfplane-grid-v1"


# SHA-256 of member stdout on the Siegel and ball sides; the half-plane
# case of the same scan may round differently, these bytes may not move.
@pytest.mark.parametrize("argv, digest", [
    (["builtin:example2", "--c", "2", "--domain", "siegel"],
     "f411425c5f393610d55c75c853d1ff7cde7529b6eb23133b51f316ce6b74d67a"),
    (["builtin:example2", "--c", "2", "--domain", "ball"],
     "3d9761750ed3b30e892f05d5357d042e2ea388f4e4862eeded31f204b6e215f0"),
    (["builtin:example1", "--c", "7", "--domain", "siegel"],
     "c7f573f6787c61983087758afe534348362218f81eacf1d6b7ddcc2578a2496c"),
    (["builtin:example1", "--c", "7", "--domain", "ball"],
     "b696fbb6382eb52963de921a37a818bd4ba2d9afee2d2715e1ffb1ce5cc0bc8b"),
    (["builtin:example2", "--c", "2", "--domain", "siegel", "--grid", "small"],
     "5496818b538288ec15d147d6779ecb651778767ba77e109868fa6192c9eaaf66"),
    (["builtin:example2", "--c", "2", "--domain", "ball", "--grid", "small"],
     "7c6b2cead5a23da518817ae61da8bc7ac5e360574710f01be59a03a682733d9f"),
])
def test_member_siegel_and_ball_output_is_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, "member", "--field", *argv)
    assert err == ""
    assert code == (1 if argv[0] == "builtin:example1" else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec, code", [
    ("-1/z", 0),
    ("-2/z", 1),
    ('measure:[{"u": -1, "m": 0.5}, {"u": 1, "m": 0.5}]', 0),
])
def test_member_one_dim_sup_is_the_half_plane_form(capsys, spec, code):
    # On the half-plane u^2 ||H||_z is Im z |H(z)|; the scan may round it
    # differently, by a few ulps, but not change the verdict at c = 1.
    got, out, err = run_cli(capsys, "member", "--field", spec, "--c", "1")
    assert (got, err) == (code, "")
    points = grids.halfplane_grid()
    values = resolve_field(spec)(points)[:, 0]
    expected = float(np.max(points[:, 0].imag * np.abs(values)))
    report = json.loads(out)
    assert abs(report["sup"] - expected) <= 4 * np.spacing(expected)
    assert report["verdict"] == ("consistent" if code == 0 else "violated")
    assert report["grid"] == "halfplane-grid-v1"


def test_member_small_grid(capsys):
    code, out, _ = run_cli(capsys, "member", "--field", "builtin:example2",
                           "--c", "2", "--grid", "small")
    assert code == 0
    assert json.loads(out)["verdict"] == "consistent"
    assert json.loads(out)["grid"] == "siegel-grid-small-v1"
    for domain, name in (("siegel", "siegel-grid-small-v1"),
                         ("ball", "cayley[siegel-grid-small-v1]")):
        code, out, _ = run_cli(capsys, "member", "--field", "builtin:example2",
                               "--c", "2", "--grid", "small", "--domain", domain)
        assert code in (0, 1)
        assert json.loads(out)["grid"] == name


@pytest.mark.parametrize("field, c, code, verdict", [
    ("builtin:example2", "2", 0, "consistent"),
    ("builtin:example1", "7", 1, "violated"),
])
def test_member_ball_checks_the_pushforward(capsys, field, c, code, verdict):
    # --field is a half-space field; --domain ball checks its Cayley pushforward
    # on the Cayley image of the grid, which holds the ball origin.
    got, out, err = run_cli(capsys, "member", "--field", field, "--c", c,
                            "--domain", "ball")
    assert (got, err) == (code, "")
    report = json.loads(out)
    assert report["verdict"] == verdict
    assert report["domain"] == "ball"
    assert report["grid"] == "cayley[siegel-grid-v1]"


@pytest.mark.parametrize("grid", ["", "huge"])
def test_member_unknown_grid_exits_2(capsys, grid):
    code, out, err = run_cli(capsys, "member", "--field", "builtin:example2",
                             "--c", "2", "--grid", grid)
    assert code == 2
    assert out == ""
    assert "unknown Siegel grid" in err


@pytest.mark.parametrize("grid", ["nonsense", "small", "siegel-grid-v1", ""])
def test_member_one_dim_rejects_a_grid_it_would_ignore(capsys, grid):
    code, out, err = run_cli(capsys, "member", "--field", "-1/z", "--c", "1",
                             "--grid", grid)
    assert code == 2
    assert out == ""
    assert "--grid" in err


@pytest.mark.parametrize("field, domain", [
    ("builtin:example2", "disc"),
    ("builtin:example2", "halfplane"),
    ("-1/z", "ball"),
    ("-1/z", "siegel"),
    ("-1/z", "disc"),
])
def test_member_rejects_a_domain_it_would_ignore(capsys, field, domain):
    code, out, err = run_cli(capsys, "member", "--field", field, "--c", "2",
                             "--grid", "small", "--domain", domain)
    assert code == 2
    assert out == ""
    assert "--domain" in err


@pytest.mark.parametrize("c", ["nan", "inf", "-1"])
def test_member_bad_constant_exits_2(capsys, c):
    for field in ("builtin:example2", "-1/z"):
        code, out, err = run_cli(capsys, "member", "--field", field, "--c", c)
        assert code == 2
        assert out == ""
        assert "class constant c" in err


def test_iterate_negative_count_exits_2(capsys):
    code, out, err = run_cli(capsys, "iterate", "--map", "flow1:builtin:example2",
                             "--z0", "(i,0.5)", "--n", "-3")
    assert code == 2
    assert out == ""
    assert "count" in err


@pytest.mark.parametrize("threshold", ["nan", "0"])
def test_iterate_bad_threshold_exits_2(capsys, threshold):
    code, out, err = run_cli(capsys, "iterate", "--map", "flow1:builtin:example2",
                             "--z0", "(i,0.5)", "--n", "5", "--threshold", threshold)
    assert code == 2
    assert out == ""
    assert "threshold" in err


@pytest.mark.parametrize("argv, expected", [
    (["--map", "flow1:-z", "--z0", "0.3", "--domain", "disc", "--n", "5"],
     [0.3 * np.exp(-5.0)]),
    (["--map", "flow0.5:-z1;-z2", "--z0", "(0.1, 0.2)", "--domain", "ball", "--n", "3"],
     [0.1 * np.exp(-1.5), 0.2 * np.exp(-1.5)]),
])
def test_iterate_flow_map_runs_in_the_domain_of_z0(capsys, argv, expected):
    code, out, err = run_cli(capsys, "iterate", *argv)
    assert code == 0, err
    final = [parse_complex(c) for c in json.loads(out)["final"]]
    np.testing.assert_allclose(final, expected, rtol=1e-9, atol=0)


def test_iterate_flow_map_leaving_the_ball_is_a_numerical_failure(capsys):
    # example2 is a Siegel field; on the ball its flow from (0.5i, 0.1) runs
    # into the boundary, where the integrator stops instead of stepping out.
    code, out, err = run_cli(capsys, "iterate", "--map", "flow0.5:builtin:example2",
                             "--z0", "(0.5i, 0.1)", "--domain", "ball", "--n", "3")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.parametrize("argv, iterate", [
    (["--map", "2*z", "--z0", "0.3", "--domain", "disc", "--n", "5"], 2),
    (["--map", "z1 - 2*i; z2", "--z0", "(i, 0.5)", "--n", "3"], 1),
])
def test_iterate_leaving_the_domain_exits_2(capsys, argv, iterate):
    code, out, err = run_cli(capsys, "iterate", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: iterate {iterate} (") and "is not interior" in err


def test_iterate_example(capsys):
    code, out, _ = run_cli(capsys, "iterate", "--map", "flow1:builtin:example2",
                           "--z0", "(i,0.5)", "--n", "50")
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "diverges_to_infinity"
    assert payload["iterations"] == 50


def test_verify_passes_and_exits_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "metric", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    groups = payload["suites"][0]["groups"]
    assert len(groups) >= 4
    assert all(g["count"] > 0 for g in groups)


def test_verify_output_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "siegelflow.cli", "verify", "--suite", "all",
           "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_negative_seed_exits_2_naming_the_seed(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "verify seed must be a non-negative integer, got -1" in err


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def test_verify_prints_strict_json_when_a_group_raises(capsys, monkeypatch):
    # A group that raises has no measured worst: null, never Infinity.
    import siegelflow.domains as domains

    def explode(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(domains, "poisson_values", explode)
    code, out, err = run_cli(capsys, "verify", "--suite", "metric", "--seed", "7")
    assert (code, err) == (1, "")
    payload = json.loads(out, parse_constant=_reject_constant)
    failed = [g for g in payload["suites"][0]["groups"] if not g["passed"]]
    assert failed and all(g["worst"] is None for g in failed)


def test_help_lists_grids(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "siegel-grid-v1" in out
    assert "halfplane-grid-v1" in out


def test_memory_error_exits_2(capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli.analysis, "slice_capacities", no_memory)
    code, out, err = run_cli(capsys, "capacity", "--field", "builtin:example2",
                             "--slices", "1", "--count", str(cli.MAX_SAMPLE_COUNT))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "745. GiB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["member", "--field", "builtin:example2", "--c", "2", "--grid", "nope"],
    ["eval", "--field", "builtin:nope", "--at", "(i,0.5)"],
])
def test_lookup_errors_print_their_message_unquoted(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown")


def test_unknown_builtin_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--field", "builtin:nope",
                           "--at", "(i,0)")
    assert code == 2
    assert "unknown built-in" in err
