"""Command-line front end.

Machine-first output: every command prints JSON to stdout (the flow command
can additionally write a trajectory CSV).  Exit codes: 0 success, 1 a
verification or inequality failure, 2 usage/parse/domain errors, 3 numerical
failures such as step-size underflow.

Field specifications accepted by --field (and inside driver files):

  builtin:NAME          one of the built-in fields (example1, example2,
                        reciprocal)
  measure:JSON          Cauchy transform of a discrete measure, e.g.
                        measure:[{"u": -1, "m": 0.5}, {"u": 1, "m": 0.5}]
  measure:@FILE         same, with the JSON read from FILE
  bp:TAU:P_EXPR         disc generator (TAU - z)(1 - conj(TAU) z) P(z)
  EXPRESSION            semicolon-separated component expressions, e.g.
                        "0; -i*z2/z1"

Self-map specifications accepted by --map:

  flowT:FIELDSPEC       time-T flow map of the field, e.g.
                        flow1:builtin:example2
  EXPRESSION            component expressions evaluated as the map itself

Points use the syntax "(a+bi, c+di, ...)"; whitespace is ignored and the
parentheses are optional for one-dimensional points.

Work bounds: capacity --count takes at most 1000000 samples per window and
iterate --n at most 1000000 maps; a larger value exits 2 before any field
is built.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, fields, flows, geodesics, grids, verify
from .domains import (
    Domain,
    DomainPoint,
    bergman_matrix,
    format_complex,
    parse_complex,
    poisson,
)
from .errors import (
    ArityMismatchError,
    BoundViolation,
    CoverageGap,
    DomainViolation,
    ExpressionSyntaxError,
    FieldEvaluationError,
    MonotonicityViolation,
    StepSizeUnderflow,
)

MAX_SAMPLE_COUNT = 1_000_000
MAX_ITERATIONS = 1_000_000

_DOMAIN_CHOICES = ("auto", "disc", "halfplane", "ball", "siegel")

_DOMAIN_BY_NAME = {
    "disc": Domain.DISC,
    "halfplane": Domain.HALF_PLANE,
    "ball": Domain.BALL,
    "siegel": Domain.SIEGEL,
}


def _f15(value: float) -> float:
    """Round-trip a float through 15 significant digits for stable output."""
    return float(f"{float(value):.15g}")


def _print_json(payload) -> None:
    """Print strict JSON: a NaN or infinity raises ValueError (exit 2)."""
    print(json.dumps(payload, indent=2, allow_nan=False))


def parse_point(text: str, domain: str = "auto") -> DomainPoint:
    """Parse "(a+bi, c+di, ...)" into a validated domain point."""
    stripped = "".join(text.split())
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    if not stripped:
        raise ValueError(f"empty point {text!r}")
    coords = tuple(parse_complex(piece) for piece in stripped.split(","))
    if domain == "auto":
        resolved = Domain.SIEGEL if len(coords) > 1 else Domain.HALF_PLANE
    else:
        resolved = _DOMAIN_BY_NAME[domain]
    return DomainPoint(resolved, coords)


def resolve_field(spec: str, dimension: int | None = None,
                  origin: str = "--field") -> fields.VectorField:
    """Turn a --field specification into a vector field.

    ``origin`` names where the spec came from in error messages.
    """
    if spec.startswith("builtin:"):
        field = fields.builtin(spec[len("builtin:"):])
    elif spec.startswith("measure:"):
        body = spec[len("measure:"):]
        if body.startswith("@"):
            body = Path(body[1:]).read_text(encoding="utf-8")
        field = fields.cauchy_transform(fields.DiscreteMeasure.from_json(body))
    elif spec.startswith("bp:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"bad {origin} {spec!r}: expected bp:TAU:P_EXPR")
        field = fields.berkson_porta(parse_complex(parts[1]), fields.parse_field(parts[2], 1))
    else:
        return fields.parse_field(spec, dimension)
    if dimension is not None and field.dimension != dimension:
        raise ArityMismatchError(
            f"field {spec!r} has dimension {field.dimension}, expected {dimension}"
        )
    return field


def resolve_map(spec: str):
    """Turn a --map specification into (batch evaluator, dimension)."""
    if spec.startswith("flow") and ":" in spec:
        head, rest = spec.split(":", 1)
        try:
            t = float(head[len("flow"):])
        except ValueError:
            raise ValueError(
                f"bad map {spec!r}: expected flowT:FIELDSPEC with numeric T"
            ) from None
        field = resolve_field(rest, origin="--map field")
        return flows.flow_map(field, t), field.dimension
    field = fields.parse_field(spec)
    return field, field.dimension


def _parse_gamma(text: str) -> tuple[complex, ...]:
    stripped = "".join(text.split())
    return tuple(parse_complex(piece) for piece in stripped.split(";"))


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    if args.what in ("field", "slice"):
        _require(args.field, "--field")
    if args.what == "slice":
        _require(args.gamma, "--gamma")
        _require(args.zeta, "--zeta")
        gamma = _parse_gamma(args.gamma)
        field = resolve_field(args.field, len(gamma) + 1)
        value = geodesics.slice_value(
            field, geodesics.GeodesicParam(gamma), parse_complex(args.zeta)
        )
        _print_json(format_complex(value))
        return 0
    _require(args.at, "--at")
    point = parse_point(args.at, args.domain)
    if args.what == "poisson":
        _print_json(_f15(poisson(point)))
    elif args.what == "metric":
        g = bergman_matrix(point).g
        _print_json([[format_complex(entry) for entry in row] for row in g])
    else:
        values = fields.eval_field(resolve_field(args.field, point.n), point)
        _print_json([format_complex(value) for value in values])
    return 0


def cmd_capacity(args) -> int:
    _check_at_most(args.count, MAX_SAMPLE_COUNT, "--count")
    field = resolve_field(args.field)
    window = {"y_min": args.y_min, "y_max": args.y_max, "count": args.count}
    if args.one_dim:
        if field.dimension != 1:
            raise ArityMismatchError("--one-dim needs a one-dimensional field")
        data = analysis.estimate_capacity_1d(field, **window).to_json()
        data["value"] = _f15(data["value"])
        data["samples"] = [[_f15(y), _f15(s)] for y, s in data["samples"]]
        _print_json(data)
        return 0
    if args.slices is None:
        raise ValueError("choose --one-dim or --slices GAMMAS")
    gammas = [_parse_gamma(token) for token in args.slices.split(",")]
    estimates = analysis.slice_capacities(field, gammas, **window)
    _print_json([
        {
            "gamma": [format_complex(g) for g in gamma],
            "value": _f15(estimate.value),
            "trend": estimate.trend,
        }
        for gamma, estimate in zip(gammas, estimates)
    ])
    return 0


def cmd_flow(args) -> int:
    z0 = parse_point(args.z0, args.domain)
    if args.driver is not None:
        spec = json.loads(Path(args.driver).read_text(encoding="utf-8"))
        pieces = tuple(
            (
                float(piece["t0"]),
                float(piece["t1"]),
                resolve_field(piece["field"], z0.n,
                              origin=f"field of piece {index} in {args.driver}"),
            )
            for index, piece in enumerate(spec)
        )
        trajectory = flows.integrate_loewner(
            flows.HerglotzField(pieces), z0, args.t, tol=args.tol
        )
    else:
        _require(args.field, "--field")
        field = resolve_field(args.field, z0.n)
        trajectory = flows.integrate_autonomous(field, z0, args.t, tol=args.tol)
    if args.out is not None:
        trajectory.to_csv(args.out)
    summary = {
        "t": _f15(args.t),
        "endpoint": [format_complex(c) for c in trajectory.final_state],
        "u_final": _f15(trajectory.u_values()[-1]),
        "steps_accepted": trajectory.steps_accepted,
        "steps_rejected": trajectory.steps_rejected,
        "max_local_error": _f15(trajectory.max_local_error),
    }
    if args.out is not None:
        summary["csv"] = args.out
    _print_json(summary)
    return 0


def cmd_verify(args) -> int:
    report = verify.run(args.suite, args.seed)
    print(report.render())
    return 0 if report.passed else 1


def cmd_member(args) -> int:
    field = resolve_field(args.field)
    allowed = ("auto", "siegel", "ball") if field.dimension > 1 else ("auto", "halfplane")
    if args.domain not in allowed:
        raise ValueError(
            f"--domain {args.domain} does not apply to a {field.dimension}-dimensional "
            f"field; choose from {', '.join(allowed)}"
        )
    if field.dimension == 1:
        if args.grid not in ("default", grids.HALFPLANE_GRID_V1):
            raise ValueError(
                f"--grid {args.grid} does not apply to a 1-dimensional field; "
                f"choose default or {grids.HALFPLANE_GRID_V1}"
            )
        report = analysis.check_pointwise_1d(field, args.c)
    else:
        member = (analysis.membership_ball if args.domain == "ball"
                  else analysis.membership_siegel)
        report = member(field, args.c, grid=args.grid)
    _print_json(report.to_json())
    return 0 if report.verdict == "consistent" else 1


def cmd_iterate(args) -> int:
    _check_at_most(args.n, MAX_ITERATIONS, "--n")
    self_map, dimension = resolve_map(args.map)
    z0 = parse_point(args.z0, args.domain)
    if z0.n != dimension:
        raise ArityMismatchError(
            f"point dimension {z0.n} does not match map dimension {dimension}"
        )
    diagnostic = flows.iterate_map(
        self_map, z0, args.n, divergence_threshold=args.threshold
    )
    _print_json(diagnostic.to_json())
    return 0


def _require(value, flag: str) -> None:
    if value is None:
        raise ValueError(f"missing required flag {flag}")


def _check_at_most(value: int, bound: int, flag: str) -> None:
    if value > bound:
        raise ValueError(f"{flag} {value} exceeds the upper bound {bound}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Parser that lets option values start with '-', e.g. --field "-1/z".

    All options here are --long-style, so any unmatched token beginning with
    a dash is a value (field expressions like "-z" or points like "-1+2i"),
    not a misspelled flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse sets this per instance, so a class attribute cannot win
        self._negative_number_matcher = re.compile(r"^-.+$")


def _grid_epilog() -> str:
    lines = ["named grids (--grid accepts 'default', 'small', or a version id):"]
    for name, text in sorted(grids.GRID_DESCRIPTIONS.items()):
        lines.append(f"  {name}: {text}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="siegelflow",
        description=(
            "Chordal generators on the Siegel half-space: evaluation, "
            "capacity estimation, flow integration, and verification."
        ),
        epilog=__doc__[__doc__.index("Field specifications"):] + "\n" + _grid_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_domain(p):
        p.add_argument(
            "--domain",
            choices=_DOMAIN_CHOICES,
            default="auto",
            help="domain of input points (auto: n>1 -> siegel, n=1 -> halfplane)",
        )

    p = sub.add_parser("eval", help="evaluate a field, metric, kernel, or slice")
    p.add_argument("--what", choices=("field", "metric", "poisson", "slice"),
                   default="field")
    p.add_argument("--field", help="field specification")
    p.add_argument("--at", help="evaluation point, e.g. \"(i, 0.5)\"")
    p.add_argument("--gamma", help="geodesic parameter for --what slice")
    p.add_argument("--zeta", help="half-plane parameter for --what slice")
    add_domain(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("capacity", help="estimate capacities from vertical tails")
    p.add_argument("--field", required=True)
    p.add_argument("--one-dim", action="store_true", dest="one_dim",
                   help="treat the field as a half-plane generator")
    p.add_argument("--slices", help="comma-separated geodesic parameters")
    p.add_argument("--y-min", type=float, default=analysis.CAPACITY_DEFAULTS["y_min"])
    p.add_argument("--y-max", type=float, default=analysis.CAPACITY_DEFAULTS["y_max"])
    p.add_argument("--count", type=int, default=analysis.CAPACITY_DEFAULTS["count"],
                   help=f"samples per window, 8 to {MAX_SAMPLE_COUNT}")
    p.set_defaults(handler=cmd_capacity)

    p = sub.add_parser("flow", help="integrate a flow and report the endpoint")
    p.add_argument("--field", help="autonomous field specification")
    p.add_argument("--driver", help="JSON file of pieces "
                   '[{"t0": 0, "t1": 1, "field": "-1/z"}, ...]')
    p.add_argument("--z0", required=True, help="initial point")
    p.add_argument("--t", type=float, required=True, help="final time")
    p.add_argument("--tol", type=float, default=flows.DEFAULT_TOL)
    p.add_argument("--out", help="write the trajectory to this CSV path")
    add_domain(p)
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("verify", help="run the deterministic verification suites")
    p.add_argument("--suite", choices=("all",) + verify.SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("member", help="sampled generator-class membership test")
    p.add_argument("--field", required=True)
    p.add_argument("--c", type=float, required=True, help="class constant")
    p.add_argument("--grid", default="default")
    add_domain(p)
    p.set_defaults(handler=cmd_member)

    p = sub.add_parser("iterate", help="iterate a self-map and classify the orbit")
    p.add_argument("--map", required=True, help="self-map specification")
    p.add_argument("--z0", required=True, help="initial point")
    p.add_argument("--n", type=int, required=True,
                   help=f"iteration budget, 0 to {MAX_ITERATIONS}")
    p.add_argument("--threshold", type=float, default=1e6,
                   help="|u| level declared divergent")
    add_domain(p)
    p.set_defaults(handler=cmd_iterate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.handler(args)
    except (BoundViolation, MonotonicityViolation) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except (StepSizeUnderflow, FieldEvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (
        ExpressionSyntaxError,
        ArityMismatchError,
        DomainViolation,
        CoverageGap,
        KeyError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
