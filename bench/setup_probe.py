"""Set-up of one workload in a fresh interpreter, for the setup_s metric.

Run as ``python3 bench/setup_probe.py WORKLOAD``.  It imports siegelflow.cli
from the checkout's src/ and builds the fields and grids the workload uses,
then prints one JSON line with the phase times.  The caller times the whole
process, interpreter start included.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Field specs and grid builders each workload needs before its first op.
FIELDS = {
    "grid-flow": ("builtin:example2",),
    "orbit": ("builtin:example2", "-1/z1; z2/(2*z1^2)", "0; -i*z2/z1", "-1/z", "-2/z"),
    "verify-sweep": ("builtin:example1", "builtin:example2", "0; -i*z2/z1"),
}
GRIDS = {
    "grid-flow": (("siegel_grid", 2),),
    "orbit": (),
    "verify-sweep": (("siegel_grid", 2), ("siegel_grid_small", 2), ("halfplane_grid",),
                     ("horosphere_samples", 2)),
}


def main(workload: str) -> int:
    from siegelflow import cli, grids

    imported = time.perf_counter()
    for name, *args in GRIDS[workload]:
        getattr(grids, name)(*args)
    built_grids = time.perf_counter()
    for spec in FIELDS[workload]:
        cli.resolve_field(spec)
    built_fields = time.perf_counter()
    print(json.dumps({
        "import_s": imported - START,
        "grids_s": built_grids - imported,
        "fields_s": built_fields - built_grids,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
