"""Fuzzing the CLI argument space: exit codes, no escaping exception, strict JSON.

Every call runs ``cli.main`` in-process on a valid command in which each
value is swapped, with probability 1/4, for a bad one: numeric flags take
zero, negative, NaN and infinite values, and field and point specs include
malformed ones.  Sizes stay bounded (--count <= 4096, --n <= 50, --t <= 100)
so the whole run takes a few seconds.
"""

import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from siegelflow import cli

BAD_NUMBERS = ["0", "-0", "-1", "-1e300", "nan", "-nan", "inf", "-inf"]
BAD_FIELDS = [
    "builtin:nope", "1/z^0", 'measure:[{"u": 0, "m": -1}]', "measure:[", "bp:2:1",
    "bp:nan:1", "bp:0", "", "1/(", "z3", "z^", "nan",
    'measure:{"u":1,"m":1}', "measure:[1,2]", "measure:5", 'measure:[{"u":null,"m":1}]',
]
BAD_POINTS = ["(i, 5)", "(-i)", "(nan, 1)", "(inf i)", "(", "abc", "", "(i,,0)",
              "(1e308i, 1e308)"]


def _mostly(good, bad):
    """A valid value three draws in four, else a bad one."""
    drawn = st.tuples(st.integers(0, 3), st.sampled_from(good), st.sampled_from(bad))
    return drawn.map(lambda d: d[2] if d[0] == 0 else d[1])


def _flag(flag, good, bad):
    return _mostly(good, bad).map(lambda value: [flag, value])


def _maybe(flag, good, bad):
    """The flag with a drawn value, or left out."""
    return st.one_of(st.just([]), _flag(flag, good, bad))


def _command(name, *parts):
    return st.tuples(*parts).map(lambda pieces: [name] + sum(pieces, []))


TWO_DIM = ["builtin:example1", "builtin:example2", "0; -i*z2/z1", "-1/z1; z2/(2*z1^2)"]
ONE_DIM = ["builtin:reciprocal", "-1/z", "exp(z)/(1+z^2)",
           'measure:[{"u": -1, "m": 0.5}, {"u": 1, "m": 0.5}]']
# Disc fields with an attracting interior fixed point (0 and 1/2), and one
# whose flows tend to the boundary point -1 (the integrator stops them, exit 3).
DISC = ["-z", "bp:0:1", "bp:0.5:1", "z^2 - 1"]
# (fields, points, domain flags) of one dimension and domain
CASES = st.sampled_from([
    (TWO_DIM, ["(i, 0.5)", "(2i, 0)", "(1+3i, 0.2-0.7i)"], [[], ["--domain", "siegel"]]),
    (ONE_DIM, ["i", "1+i", "-2+0.01i"], [[], ["--domain", "halfplane"]]),
    (DISC, ["0.3", "-0.5i", "0.9"], [["--domain", "disc"]]),
])
DOMAINS = ["auto", "disc", "halfplane", "ball", "siegel"]


@st.composite
def _field_point(draw, flags=("--field", "--z0")):
    fields, points, domains = draw(CASES)
    field = draw(_flag(flags[0], fields, BAD_FIELDS))
    point = draw(_flag(flags[1], points, BAD_POINTS))
    domain = draw(_mostly(domains, [["--domain", d] for d in DOMAINS]))
    return field + point + domain


TIMES = (["1e-300", "0.5", "1", "100"], BAD_NUMBERS)
COUNTS = (["8", "64", "4096"], ["-5", "0", "7", "nan", "1.5"])
HEIGHTS = (["1e-3", "1", "1e4", "1e300"], BAD_NUMBERS)

COMMANDS = st.one_of(
    _command(
        "eval", _flag("--what", ["field", "metric", "poisson"], ["slice", "nope"]),
        _field_point(("--field", "--at")),
    ),
    _command(
        "eval", st.just(["--what", "slice"]), _flag("--field", TWO_DIM, BAD_FIELDS),
        _flag("--gamma", ["0", "1", "1+i"], ["1;2", "nan", "x", ""]),
        _flag("--zeta", ["i", "1+2i"], BAD_POINTS),
    ),
    _command(
        "capacity", _flag("--field", ONE_DIM, BAD_FIELDS + TWO_DIM),
        _mostly([[]], [["--slices", "0"]]),
        _maybe("--y-min", *HEIGHTS), _maybe("--y-max", *HEIGHTS),
        _maybe("--count", *COUNTS),
    ),
    _command(
        "capacity", _flag("--field", TWO_DIM, BAD_FIELDS + ONE_DIM),
        _flag("--slices", ["0", "1", "0,1,1+i"], ["1;2", "nan", "x", ""]),
        _maybe("--y-min", *HEIGHTS), _maybe("--y-max", *HEIGHTS),
        _maybe("--count", *COUNTS),
    ),
    _command(
        "flow", _field_point(), _flag("--t", *TIMES),
        _maybe("--tol", ["1e-6", "1e-3", "1"], BAD_NUMBERS),
    ),
    _command(
        "member", _flag("--field", TWO_DIM + ONE_DIM, BAD_FIELDS),
        _flag("--c", ["0.5", "2", "7", "1e300"], BAD_NUMBERS),
        _maybe("--grid", ["small", "default", "siegel-grid-v1"], ["huge", ""]),
        _maybe("--domain", ["auto", "siegel", "ball"], DOMAINS),
    ),
    _command(
        "iterate", _field_point(("--map", "--z0")).map(
            lambda argv: [argv[0], "flow1:" + argv[1]] + argv[2:]
        ),
        _flag("--n", ["0", "1", "50"], ["-3", "nan", "inf"]),
        _maybe("--threshold", ["1e3", "1e6"], BAD_NUMBERS),
    ),
)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(COMMANDS)
def test_cli_exit_codes_and_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
