"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload once per input set (SEED_SLOTS of them) at full and at
smoke size on the library in ``src/`` and writes
perfbench/data/reference-<workload>.json. Record on an unmodified library:
a later change is then checked against it within each workload's rtol.
"""

from __future__ import annotations

import json
import sys

import run  # standard library only: threads get pinned before numpy loads

run.pin_threads()
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
from d2dpower import solver  # noqa: E402

import workloads  # noqa: E402


def record(wl) -> dict:
    schedule = solver.load_schedule(workloads.SCHEDULE_PATH)
    doc = {}
    for size, smoke in (("full", False), ("smoke", True)):
        doc[size] = []
        for slot in range(workloads.SEED_SLOTS):
            rep, _, _ = wl.prepare(slot, smoke, schedule)
            doc[size].append({key: np.asarray(value).tolist()
                              for key, value in rep().items()})
    return doc


def main(names) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        doc = record(workloads.WORKLOADS[name])
        path = workloads.reference_path(name)
        path.write_text(json.dumps(doc) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
