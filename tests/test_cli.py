"""Command-line contract: flag parsing, JSON output, and exit codes."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from siegelflow import cli
from siegelflow.cli import main, parse_point, resolve_field, resolve_map
from siegelflow.domains import Domain


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
    step, dim = resolve_map("flow1:builtin:example2")
    assert dim == 2
    out = step(np.array([[1j, 0.5]]))
    assert out.shape == (1, 2)
    with pytest.raises(ValueError):
        resolve_map("flowX:builtin:example2")


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


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_one_dim(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--field", "-1/z", "--one-dim")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.0, rel=1e-12)
    assert payload["trend"] == "converged"


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
    code, out, err = run_cli(capsys, "capacity", "--field", "-1/z", "--one-dim",
                             "--count", count)
    assert code == 2
    assert out == ""
    assert "count" in err


def _never_called(*args, **kwargs):
    raise AssertionError("the bound must be checked before any field is built")


@pytest.mark.parametrize("mode", [("--one-dim",), ("--slices", "1")])
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


@pytest.mark.parametrize("mode", [("--one-dim",), ("--slices", "1")])
def test_capacity_infinite_window_exits_2(capsys, mode):
    field = "-1/z" if mode[0] == "--one-dim" else "builtin:example2"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "capacity", "--field", field, *mode,
                                 "--y-max", "inf")
    assert code == 2
    assert out == ""
    assert "y_max" in err
    assert "Warning" not in err


def test_capacity_needs_a_mode(capsys):
    code, _, err = run_cli(capsys, "capacity", "--field", "-1/z")
    assert code == 2
    assert "one-dim" in err


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


def test_flow_underflow_exits_3(capsys):
    code, _, err = run_cli(capsys, "flow", "--field", "-i", "--z0", "i",
                           "--t", "2")
    assert code == 3
    assert "underflow" in err


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


def test_unknown_builtin_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--field", "builtin:nope",
                           "--at", "(i,0)")
    assert code == 2
    assert "unknown built-in" in err
