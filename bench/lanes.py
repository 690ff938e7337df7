"""Lane-step reference for grid-flow: lockstep batch against one-at-a-time.

    python3 bench/lanes.py

Maps every point of siegel-grid-v1 through the time-1 flow map of example2
twice, with a counting wrapper around the field: once as one lockstep batch
(the way grid-flow runs it) and once point by point.  It prints the field
point-evaluations and the point-steps each way.  Each attempted Dormand-Prince
step makes six field calls after the first one, so steps = (calls - 1) / 6.
The single-point pass takes a minute or two.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from siegelflow import fields, flows, grids  # noqa: E402

STAGE_CALLS = 6
T = 1.0


class CountingField:
    """example2 with a tally of calls and points evaluated."""

    def __init__(self):
        self.calls = 0
        self.points = 0
        inner = fields.builtin("example2")

        def evaluator(points):
            self.calls += 1
            self.points += int(np.prod(points.shape[:-1]))
            return inner(points)

        self.field = fields.VectorField(2, evaluator, "counted example2")


def main() -> int:
    grid = grids.siegel_grid(2)

    batch = CountingField()
    start = perf_counter()
    flows.flow_map(batch.field, T)(grid)
    batch_s = perf_counter() - start
    batch_steps = (batch.calls - 1) // STAGE_CALLS

    single = CountingField()
    single_steps = 0
    start = perf_counter()
    for point in grid:
        before = single.calls
        flows.flow_map(single.field, T)(point[None, :])
        single_steps += (single.calls - before - 1) // STAGE_CALLS
    single_s = perf_counter() - start

    result = {
        "t": T,
        "points": int(grid.shape[0]),
        "batch": {"point_evals": batch.points, "shared_steps": batch_steps,
                  "point_steps": batch_steps * int(grid.shape[0]), "seconds": batch_s},
        "single": {"point_evals": single.points, "point_steps": single_steps,
                   "seconds": single_s},
        "excess_point_evals": batch.points / single.points,
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                    "numpy": np.__version__},
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
