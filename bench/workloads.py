"""The three benchmark workloads: seeded inputs, one op at a time, checks.

Each workload turns the run seed into a deterministic stream of ops.  An op
carries its inputs, runs one closed-loop request against the package, and
checks what came back against the closed forms in ``oracle`` or against a
property the method must have.  The program sees only the generated inputs.

* grid-flow: all 5712 points of siegel-grid-v1 through the time-t flow map of
  builtin:example2, then horosphere_inequality_check on the displacement.
* orbit: in-process ``cli.main`` calls on one point each: iterate of a flow
  map (built-in or parsed example2), flow of the parsed example1, and a
  two-piece 1-d driver schedule.
* verify-sweep: ``verify --suite all`` for consecutive seeds, two ``member``
  verdicts and ``capacity --slices`` over 40 seeded directions.

A check that fails is a miss and makes the run's ``correct`` false; an
exception or a crash exit of the CLI (2 or 3) is an error.  Both count the op
as failed.  One fault of the package on fixed inputs is counted as failed
without a miss: see KNOWN_FAILING_SEEDS.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Integrator tolerance of every flow here (the package default, 1e-10).
TOL = 1e-10
# Endpoint allowance: the integrator bounds the local error per unit time by
# TOL, so the global error of these non-expanding flows stays within a small
# multiple of TOL * t.  Ten times that, plus a rounding term for long runs on
# large coordinates, leaves a wide margin (measured errors are < TOL * t).
TOL_FACTOR = 10.0
ROUNDING = 1e-12
# JSON output prints 15 significant digits.
PRINTED = 1e-14

PARSED_EXAMPLE2 = "-1/z1; z2/(2*z1^2)"
PARSED_EXAMPLE1 = "0; -i*z2/z1"
GRID_POINTS = 5712
CAPACITY_SAMPLES = 64
SLICES = 40

# CLI exit codes for a numerical failure (3) or rejected input (2).
CRASH_CODES = (2, 3)

VERIFY_SEEDS = 150
# Verify seeds in 0..149 whose run fails the geodesics group
# projection-idempotence at this package version: the miss is one ulp of z1
# (1.137e-13 where |z1| >= 512) against an absolute 1e-13 limit.  Every
# verify-sweep round runs one of them at its first slot, the same whatever
# the run seed, and counts that op as failed; the seeded slots walk the
# other 147.  So every run meets the fault and the failed share is exactly
# 1/round_size in every run.  Any other failing group, or one of these on a
# seeded slot, is a miss.
KNOWN_FAILING_SEEDS = (38, 56, 109)
KNOWN_FAULT = ("geodesics", "projection-idempotence")
VERIFY_SEED_POOL = tuple(s for s in range(VERIFY_SEEDS) if s not in KNOWN_FAILING_SEEDS)
# Single-point flow maps in one verify --suite all run (flows suite: fixture
# endpoints, semigroup, monotonicity, displacement, horosphere, restart,
# capacity and iteration groups), counted by the traced run's flows spans.
VERIFY_FLOW_MAPS = 674


@dataclass
class Outcome:
    """What one op produced: unit counts and any failed checks."""

    points: int = 0       # points carried through a flow map or surveyed
    maps: int = 0         # single-point flow maps completed
    seeds: int = 0        # seeded inputs fully processed
    errors: list = field(default_factory=list)   # exception or crash exit
    misses: list = field(default_factory=list)   # an output failed a check
    known_faults: list = field(default_factory=list)  # see KNOWN_FAILING_SEEDS
    steps: tuple = ()     # (accepted, rejected) from a flow command

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.misses or self.known_faults)


@dataclass
class Op:
    kind: str
    inputs: dict
    run: object           # () -> raw result, the timed part
    check: object         # raw result -> Outcome
    prepare: object = None  # untimed step before run


def fmt_real(x: float) -> str:
    return repr(float(x))


def fmt_complex(z: complex) -> str:
    """Shortest round-trip text the CLI parses back to the same doubles."""
    sign = "-" if z.imag < 0 or (z.imag == 0 and math.copysign(1, z.imag) < 0) else "+"
    return f"{fmt_real(z.real)}{sign}{fmt_real(abs(z.imag))}i"


def fmt_point(coords) -> str:
    return "(" + ", ".join(fmt_complex(c) for c in coords) + ")"


def parse_printed(text: str) -> complex:
    return complex(text.replace("i", "j"))


def run_cli(cli, argv):
    """Run cli.main in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def read_cli(where: str, result, want_code: int, outcome: Outcome):
    """The JSON a CLI command printed, or None when there is none.

    A crash exit is an error; any other exit code than `want_code` is a miss,
    as is output that does not parse.
    """
    code, out, err = result
    if code in CRASH_CODES:
        outcome.errors.append(f"{where}: exit {code}: {err.strip()}")
        return None
    if code != want_code:
        outcome.misses.append(f"{where}: exit {code}, want {want_code}: {err.strip()}")
    try:
        return json.loads(out)
    except ValueError:
        outcome.misses.append(f"{where}: no JSON output: {err.strip()}")
        return None


def _miss(where: str, got, want, size: float, allowed: float) -> str:
    return f"{where}: got {got}, want {want}, miss {size:.3e} > allowed {allowed:.3e}"


def _endpoint_misses(where, got, want, t):
    """Coordinate-wise comparison with the TOL-derived allowance."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    allowed = TOL_FACTOR * TOL * t + (ROUNDING + PRINTED) * np.maximum(1.0, np.abs(want))
    miss = np.abs(got - want)
    bad = np.flatnonzero(np.ravel(miss > allowed))
    if bad.size == 0:
        return []
    k = int(bad[np.argmax(np.ravel(miss / allowed)[bad])])
    return [f"{len(bad)} coordinate(s) off; worst " + _miss(
        f"{where}[{k}]", np.ravel(got)[k], np.ravel(want)[k],
        float(np.ravel(miss)[k]), float(np.ravel(allowed)[k]))]


# ---------------------------------------------------------------------------
# grid-flow
# ---------------------------------------------------------------------------

class GridFlow:
    name = "grid-flow"
    pace = "grid"
    round_size = 1

    def __init__(self, seed: int, workdir: Path, sf):
        self.sf = sf
        self.field = sf.fields.builtin("example2")
        self.grid = sf.grids.siegel_grid(2)
        self.u_grid = np.abs(oracle.poisson_siegel(self.grid))
        # Low-discrepancy times from a seeded start: any run length covers
        # [0.5, 1.5] evenly, so the work per run does not hinge on the seed.
        self.phase = float(np.random.default_rng([seed, 0]).uniform())

    def op(self, index: int) -> Op:
        t = 0.5 + (self.phase + index * GOLDEN) % 1.0
        sf = self.sf

        def run():
            endpoints = sf.flows.flow_map(self.field, t)(self.grid)
            displacement = sf.fields.VectorField(
                2, lambda pts: endpoints - pts, "benchmark displacement")
            return endpoints, sf.analysis.horosphere_inequality_check(displacement)

        def check(result):
            endpoints, report = result
            outcome = Outcome(points=GRID_POINTS, maps=GRID_POINTS, seeds=1)
            outcome.misses += _endpoint_misses(
                "endpoint", endpoints, oracle.example2_flow(self.grid, t), t)
            drop = self.u_grid - np.abs(oracle.poisson_siegel(endpoints))
            slack = TOL_FACTOR * TOL * np.maximum(1.0, self.u_grid)
            if np.any(drop > slack):
                k = int(np.argmax(drop - slack))
                outcome.misses.append(
                    f"|u| decreased at grid point {k}: by {drop[k]:.3e} > {slack[k]:.3e}")
            if not report.ok:
                outcome.misses.append(
                    f"horosphere inequality not ok: worst margin {report.worst_margin:.3e}")
            return outcome

        return Op(self.name, {"t": t}, run, check)


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def _siegel_start(rng) -> tuple[complex, complex]:
    """A point with Im z1 in [0.5, 3] and ||z2||^2 at most 0.8 Im z1."""
    y = rng.uniform(0.5, 3.0)
    z1 = complex(rng.uniform(-1.0, 1.0), y)
    radius = math.sqrt(rng.uniform(0.0, 0.8) * y)
    z2 = radius * complex(math.cos(a := rng.uniform(0, 2 * math.pi)), math.sin(a))
    return z1, z2


class Orbit:
    name = "orbit"
    pace = "point"
    # One round: two iterate ops and four flow ops.  Iterates cost about
    # seven flows, so the median op sits inside the flow cluster instead of
    # on the gap between the two.
    KINDS = ("iterate", "flow", "driver", "iterate-parsed", "flow", "driver")
    round_size = len(KINDS)

    def __init__(self, seed: int, workdir: Path, sf):
        self.sf = sf
        self.seed = seed
        self.csv = workdir / "orbit-trajectory.csv"
        self.driver = workdir / "orbit-driver.json"

    def op(self, index: int) -> Op:
        kind = self.KINDS[index % len(self.KINDS)]
        rng = np.random.default_rng([self.seed, 1, index])
        if kind.startswith("iterate"):
            return self._iterate(rng, kind)
        if kind == "flow":
            return self._flow(rng)
        return self._driver(rng)

    def _iterate(self, rng, kind) -> Op:
        z0 = _siegel_start(rng)
        period = float(rng.uniform(0.5, 1.5))
        count = int(rng.integers(200, 401))
        spec = "builtin:example2" if kind == "iterate" else PARSED_EXAMPLE2
        argv = ["iterate", "--map", f"flow{fmt_real(period)}:{spec}",
                "--z0", fmt_point(z0), "--n", str(count)]
        cli = self.sf.cli

        def check(result):
            outcome = Outcome(seeds=1)
            data = read_cli("iterate", result, 0, outcome)
            if data is None:
                return outcome
            outcome.maps = outcome.points = int(data["iterations"])
            if data["tag"] != "diverges_to_infinity":
                outcome.misses.append(f"tag {data['tag']}, want diverges_to_infinity")
            if data["iterations"] != count:
                outcome.misses.append(f"iterations {data['iterations']}, want {count}")
            final = [parse_printed(c) for c in data["final"]]
            elapsed = data["iterations"] * period
            outcome.misses += _endpoint_misses(
                "final", final, oracle.example2_flow(np.array(z0), elapsed), elapsed)
            return outcome

        return Op(kind, {"argv": argv}, lambda: run_cli(cli, argv), check)

    def _flow(self, rng) -> Op:
        z0 = _siegel_start(rng)
        t = float(rng.uniform(0.5, 2.0))
        argv = ["flow", "--field", PARSED_EXAMPLE1, "--z0", fmt_point(z0),
                "--t", fmt_real(t), "--out", str(self.csv)]
        cli = self.sf.cli

        def check(result):
            outcome = Outcome(maps=1, points=1, seeds=1)
            data = read_cli("flow", result, 0, outcome)
            if data is None:
                return outcome
            want = oracle.example1_flow(np.array(z0), t)
            got = [parse_printed(c) for c in data["endpoint"]]
            outcome.misses += _endpoint_misses("endpoint", got, want, t)
            u_want = float(oracle.poisson_siegel(want))
            u_allowed = TOL_FACTOR * TOL * t * (1.0 + 2.0 * abs(want[1])) + PRINTED * abs(u_want)
            if abs(data["u_final"] - u_want) > u_allowed:
                outcome.misses.append(_miss("u_final", data["u_final"], u_want,
                                            abs(data["u_final"] - u_want), u_allowed))
            outcome.steps = (data["steps_accepted"], data["steps_rejected"])
            rows = self.csv.read_text(encoding="utf-8").splitlines()
            if len(rows) != data["steps_accepted"] + 2:
                outcome.misses.append(
                    f"trajectory has {len(rows) - 1} nodes, want {data['steps_accepted'] + 1}")
            else:
                last = [float(x) for x in rows[-1].split(",")]
                recorded = [complex(last[1], last[2]), complex(last[3], last[4])]
                outcome.misses += _endpoint_misses("csv final row", recorded, got, 0.0)
            return outcome

        return Op("flow", {"argv": argv}, lambda: run_cli(cli, argv), check)

    def _driver(self, rng) -> Op:
        z0 = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.5, 2.0))
        split = float(rng.uniform(0.2, 0.8)) * t
        pieces = [(0.0, split, 1.0), (split, t, 2.0)]
        schedule = [{"t0": 0.0, "t1": split, "field": "-1/z"},
                    {"t0": split, "t1": t, "field": "-2/z"}]
        argv = ["flow", "--driver", str(self.driver), "--z0", fmt_complex(z0),
                "--t", fmt_real(t)]
        cli = self.sf.cli

        def prepare():
            self.driver.write_text(json.dumps(schedule), encoding="utf-8")

        def check(result):
            outcome = Outcome(maps=1, points=1, seeds=1)
            data = read_cli("flow --driver", result, 0, outcome)
            if data is None:
                return outcome
            want = oracle.reciprocal_schedule_flow(np.array([z0]), pieces, t)
            got = [parse_printed(c) for c in data["endpoint"]]
            outcome.misses += _endpoint_misses("endpoint", got, want, t)
            outcome.steps = (data["steps_accepted"], data["steps_rejected"])
            return outcome

        return Op("driver", {"argv": argv, "schedule": schedule},
                  lambda: run_cli(cli, argv), check, prepare)


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------

class VerifySweep:
    name = "verify-sweep"
    pace = "point"
    # One round: a known-failing verify seed at slot 0, seeded ones after it.
    round_size = 4

    def __init__(self, seed: int, workdir: Path, sf):
        self.sf = sf
        self.seed = seed
        self.offset = int(np.random.default_rng([seed, 2]).integers(len(VERIFY_SEED_POOL)))

    def op(self, index: int) -> Op:
        round_index, slot = divmod(index, self.round_size)
        known = slot == 0
        if known:
            verify_seed = KNOWN_FAILING_SEEDS[round_index % len(KNOWN_FAILING_SEEDS)]
            rng = np.random.default_rng([4, index])
        else:
            walk = round_index * (self.round_size - 1) + slot - 1
            verify_seed = VERIFY_SEED_POOL[(self.offset + walk) % len(VERIFY_SEED_POOL)]
            rng = np.random.default_rng([self.seed, 3, index])
        magnitudes = rng.uniform(0.2, 5.0, SLICES)
        angles = rng.uniform(0.0, 2.0 * math.pi, SLICES)
        gammas = [complex(float(f"{m * math.cos(a):.6f}"), float(f"{m * math.sin(a):.6f}"))
                  for m, a in zip(magnitudes, angles)]
        commands = [
            ["verify", "--suite", "all", "--seed", str(verify_seed)],
            ["member", "--field", "builtin:example1", "--c", "7"],
            ["member", "--field", "builtin:example2", "--c", "2"],
            ["capacity", "--field", PARSED_EXAMPLE1, "--slices",
             ",".join(fmt_complex(g) for g in gammas)],
        ]
        cli = self.sf.cli

        def run():
            return [run_cli(cli, argv) for argv in commands]

        def check(results):
            outcome = Outcome(points=2 * GRID_POINTS + SLICES * CAPACITY_SAMPLES,
                              maps=VERIFY_FLOW_MAPS, seeds=1)
            verify_result, ex1, ex2, cap = results
            _check_verify(verify_seed, verify_result, known, outcome)
            data = read_cli("member example1 c=7", ex1, 1, outcome)
            if data is not None:
                tail = abs(parse_printed(data["witness"][1]))
                if data["verdict"] != "violated" or tail < 2.0:
                    outcome.misses.append(
                        f"member example1 c=7: verdict {data['verdict']}, witness |z~| {tail}")
            data = read_cli("member example2 c=2", ex2, 0, outcome)
            if data is not None:
                limit = 2.0 * (1.0 + 1e-9)
                if data["verdict"] != "consistent" or data["sup"] > limit:
                    outcome.misses.append(
                        f"member example2 c=2: verdict {data['verdict']}, sup {data['sup']} "
                        f"(limit {limit})")
            data = read_cli("capacity", cap, 0, outcome)
            if data is not None:
                if len(data) != len(gammas):
                    outcome.misses.append(f"capacity: {len(data)} slices, want {len(gammas)}")
                for gamma, entry in zip(gammas, data):
                    want = 2.0 * abs(gamma) ** 2
                    miss = abs(entry["value"] - want) / want
                    if miss > 1e-5:
                        outcome.misses.append(_miss(
                            f"capacity slice {fmt_complex(gamma)}", entry["value"], want,
                            miss, 1e-5))
            return outcome

        return Op("verify-known" if known else self.name,
                  {"verify_seed": verify_seed, "slices": [fmt_complex(g) for g in gammas]},
                  run, check)


def _check_verify(verify_seed: int, result, known: bool, outcome: Outcome) -> None:
    """Every group passes, except KNOWN_FAULT on a known-failing seed."""
    code, out, err = result
    where = f"verify seed {verify_seed}"
    if code in CRASH_CODES:
        outcome.errors.append(f"{where}: exit {code}: {err.strip()}")
        return
    try:
        report = json.loads(out)
    except ValueError:
        outcome.misses.append(f"{where}: exit {code}, no JSON output: {err.strip()}")
        return
    failing = [(s["suite"], g["name"], g["worst"], g["limit"])
               for s in report["suites"] for g in s["groups"] if not g["passed"]]
    described = "; ".join(f"{suite}/{name} worst {worst} limit {limit}"
                          for suite, name, worst, limit in failing)
    if known and code == 1 and [f[:2] for f in failing] == [KNOWN_FAULT]:
        outcome.known_faults.append(f"{where}: {described}")
    elif code != 0 or failing or not report["passed"]:
        outcome.misses.append(f"{where}: exit {code}: {described or 'passed is false'}")


WORKLOADS = {cls.name: cls for cls in (GridFlow, Orbit, VerifySweep)}
