"""Steadiness of the benchmark: one workload, k runs, spread per metric.

    python3 bench/steady.py --workload orbit --runs 10 [--first-seed 100]
                            [--seconds 30]

Runs bench/run.py k times in a row, each with the next seed, and prints for
every metric its median, quartiles, the interquartile range as a share of
the median (the figure the end-to-end bounds are checked against) and the
widest relative spread, (max - min) / median.  The machine (nproc, Python,
numpy, scipy) is printed with every result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

from run import load_benchmark, machine  # noqa: E402


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) if median else 1.0
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / scale,
            "widest_share": (max(values) - min(values)) / scale}


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    runs = []
    for k in range(args.runs):
        seed = args.first_seed + k
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        for line in lines:
            if line.startswith("unpaced "):
                result["unpaced"] = json.loads(line[len("unpaced "):])
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", flush=True)

    names = list(runs[0]["metrics"])
    summary = {name: spread([r["metrics"][name]["value"] for r in runs]) for name in names}
    info = machine()
    print(f"machine {json.dumps(info)}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'widest':>8} {'bound':>6}")
    for name in names:
        s = summary[name]
        bound = bounds.get(name)
        print(f"{name:32} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['iqr_share']:8.4f} {s['widest_share']:8.4f} "
              f"{'' if bound is None else bound:>6}")
    if all("unpaced" in r for r in runs):
        for name in runs[0]["unpaced"]:
            s = spread([r["unpaced"][name] for r in runs])
            print(f"unpaced {name:24} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['iqr_share']:8.4f} {s['widest_share']:8.4f}")
    failed_shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(failed_shares)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
