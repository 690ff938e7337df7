"""Benchmark entry point: one workload, closed loop, checked outputs.

    python3 bench/run.py --workload grid-flow --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Everything runs in this one process on one thread, with
BLAS pinned to one thread; only the set-up measurement starts fresh
interpreters, one after another.

--trace 0 prints every end-to-end metric of BENCHMARK.json.  --trace 1 first
runs the workload untraced for half the time, then replays the same ops with
spans recorded around each layer's public functions, and prints every
per-layer metric, the tracing overhead included.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
from importlib import metadata
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench-work"
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60
# Set-up is paced by a fresh interpreter that only imports numpy, timed
# before and after each probe: process start and imports track each other,
# where the numpy kernels of pace.py do not.  Paced set-up times read as
# seconds at a pace where that reference takes REFERENCE_S.
REFERENCE = ("-c", "import numpy")
REFERENCE_S = 0.15

import spans  # noqa: E402  (numpy loads only after the thread pins)
from pace import Pace  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def load_benchmark() -> dict:
    """BENCHMARK.json at the checkout's root: workloads, metrics, run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def interpreter(*args: str) -> tuple[float, str]:
    """Wall time and stdout of one fresh interpreter."""
    start = perf_counter()
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    wall = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"interpreter {args} failed: {done.stderr.strip()}")
    return wall, done.stdout


def measure_setup(workload: str) -> list[dict]:
    """Time SETUP_PROBES fresh interpreters, one after another, paced."""
    reference = [interpreter(*REFERENCE)[0]]
    probes = []
    for _ in range(SETUP_PROBES):
        wall, out = interpreter(str(BENCH / "setup_probe.py"), workload)
        reference.append(interpreter(*REFERENCE)[0])
        scale = REFERENCE_S / (0.5 * (reference[-2] + reference[-1]))
        phases = json.loads(out.strip().splitlines()[-1])
        phases = {key: value * scale for key, value in phases.items()}
        phases.update(wall_s=wall * scale, unpaced_wall_s=wall)
        probes.append(phases)
    return probes


class Runner:
    """Runs ops by index, times them, checks them and keeps the tally."""

    def __init__(self, workload, pace: Pace):
        self.workload = workload
        self.pace = pace
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def do(self, index: int):
        op = self.workload.op(index)
        if op.prepare is not None:
            op.prepare()
        self.pace.maybe_sample()
        start = perf_counter()
        error = None
        try:
            result = op.run()
        except Exception as exc:  # a failing op is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        self.pace.after_op(elapsed)
        if error is not None:
            outcome = Outcome(errors=[error])
        else:
            try:
                outcome = op.check(result)
            except Exception as exc:
                outcome = Outcome(misses=[f"output unreadable: {type(exc).__name__}: {exc}"])
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
            self.correct = self.correct and not outcome.misses
            print(json.dumps({"failed_op": index, "kind": op.kind, "inputs": op.inputs,
                              "errors": outcome.errors, "misses": outcome.misses,
                              "known_faults": outcome.known_faults}),
                  file=sys.stderr)
        return start, elapsed, outcome

    def run_rounds(self, first: int, seconds: float):
        """Whole rounds from op `first` until `seconds` of wall time pass."""
        size = self.workload.round_size
        records = []
        index = first
        start = perf_counter()
        while perf_counter() - start < seconds:
            for _ in range(size):
                records.append((index, *self.do(index)))
                index += 1
        return records


def tail(times: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it.

    Runs with fewer than 40 ops have no such tail; there the upper quartile
    stands in, so the metric stays defined on every workload.
    """
    ordered = sorted(times)
    if len(ordered) >= 40:
        return ordered[-11]
    if len(ordered) < 2:
        return ordered[-1]
    return statistics.quantiles(ordered, n=4)[2]


def paced_times(records, pace: Pace) -> list[float]:
    return [elapsed * pace.scale(start, elapsed) for _, start, elapsed, _ in records]


def end_to_end(records, pace: Pace, probes) -> dict:
    times = paced_times(records, pace)
    busy = sum(times)
    ok = [outcome for *_, outcome in records if not outcome.failed]
    return {
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "op_median_s": statistics.median(times),
        "op_tail_s": tail(times),
        "points_per_s": sum(o.points for o in ok) / busy,
        "flow_maps_per_s": sum(o.maps for o in ok) / busy,
        "seeds_per_s": sum(o.seeds for o in ok) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(summary, traced, untraced, pace: Pace, probes) -> dict:
    """Per-op layer figures from the traced replay, at the run's median pace."""
    ops = len(traced)
    scale = statistics.median(pace.scale(start, elapsed) for _, start, elapsed, _ in traced)
    layers = {layer: {"calls": v["calls"], "self_s": v["self_s"] * scale,
                      "busy_s": v["busy_s"] * scale}
              for layer, v in summary["per_layer"].items()}
    names = {name: {**v, "total_s": v["total_s"] * scale, "busy_s": v["busy_s"] * scale}
             for name, v in summary["per_name"].items()}

    def named(prefix, key):
        return sum(v[key] for k, v in names.items() if k.startswith(prefix))

    leaf_points = named(spans.FIELD_CALL, "leaf_points")
    mapped = sum(names.get(k, {}).get("points", 0) for k in spans.FLOW_MAP_SPANS)
    evaluate = names.get("expressions.evaluate", {"busy_s": 0.0, "calls": 0})
    steps = [o.steps for *_, o in traced if o.steps]
    accepted = sum(a for a, _ in steps)
    rejected = sum(r for _, r in steps)
    values = {
        "flows.busy_s": layers["flows"]["busy_s"] / ops,
        "flows.self_s": layers["flows"]["self_s"] / ops,
        "flows.points_mapped": mapped / ops,
        "flows.steps_accepted": accepted / len(steps) if steps else 0.0,
        "flows.steps_rejected": rejected / len(steps) if steps else 0.0,
        "flows.step_accept_ratio": accepted / (accepted + rejected) if steps else 0.0,
        "fields.calls": named(spans.FIELD_CALL, "calls") / ops,
        "fields.point_evals": leaf_points / ops,
        "fields.point_evals_per_output": leaf_points / mapped if mapped else 0.0,
        "fields.builtin_s": named(f"{spans.FIELD_CALL}[builtin]", "total_s") / ops,
        "expressions.eval_s": evaluate["busy_s"] / ops,
        "expressions.us_per_call": (1e6 * evaluate["busy_s"] / evaluate["calls"]
                                    if evaluate["calls"] else 0.0),
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "grids.build_s": statistics.median(p["grids_s"] for p in probes),
        "trace.overhead": sum(paced_times(traced, pace)) / sum(paced_times(untraced, pace)) - 1.0,
        "trace.spans": summary["spans"] / ops,
    }
    for layer in ("domains", "geodesics", "analysis"):
        values[f"{layer}.self_s"] = layers[layer]["self_s"] / ops
        values[f"{layer}.calls"] = layers[layer]["calls"] / ops
    values["sampling.self_s"] = layers["sampling"]["self_s"] / ops
    values["cli.self_s"] = layers["cli"]["self_s"] / ops
    for suite in ("metric", "geodesics", "classes", "flows"):
        values[f"verify.{suite}_s"] = names.get(f"verify.run_suite[{suite}]",
                                                {"total_s": 0.0})["total_s"] / ops
    return values


def machine() -> dict:
    """The figures every result is recorded with."""
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version}


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "siegelflow" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'siegelflow'}; run inside a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import siegelflow
    import siegelflow.cli

    if Path(siegelflow.__file__).resolve().parent != (SRC / "siegelflow").resolve():
        print(f"error: imported siegelflow from {siegelflow.__file__}", file=sys.stderr)
        return 2

    probes = measure_setup(args.workload)
    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORK, siegelflow)
    pace = Pace(workload.pace)
    runner = Runner(workload, pace)
    size = workload.round_size
    for index in range(size):  # warm-up round: checked and counted, not timed
        runner.do(index)

    if args.trace == 0:
        records = runner.run_rounds(size, args.seconds)
        values = end_to_end(records, pace, probes)
        wanted = benchmark["end_to_end"]
        print("unpaced " + json.dumps({
            "op_median_s": statistics.median(elapsed for _, _, elapsed, _ in records),
            "setup_s": statistics.median(p["unpaced_wall_s"] for p in probes),
            "pace": statistics.median(pace.scale(s, e) for _, s, e, _ in records),
        }))
    else:
        records = runner.run_rounds(size, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        traced = []
        start = perf_counter()
        try:
            # Replay the same ops, whole rounds, within the same time again.
            for position in range(0, len(records), size):
                for index, *_ in records[position:position + size]:
                    tracer.op_id = index
                    traced.append((index, *runner.do(index)))
                if perf_counter() - start >= args.seconds:
                    break
        finally:
            tracer.uninstall()
        values = per_layer(tracer.summary(), traced, records[:len(traced)], pace, probes)
        wanted = benchmark["per_layer"]

    info = machine()
    for metric in wanted:
        print(f"{args.workload} {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}")
    print(f"machine {json.dumps(info)} ops {runner.attempted} failed {runner.failed}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
