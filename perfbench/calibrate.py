"""Calibrate how closely each checked output must match its reference.

    python3 perfbench/calibrate.py [workload ...]

A later change may reorder floating-point work (batching, fused kernels)
and so change results in the last bits. This script measures how far each
output moves under such a change: for every input set it reruns the
workload with every allocation a solver returns (and, for training, every
gain matrix drawn) multiplied by 1 + eps * N(0, 1), for eps = 1e-15 and
1e-13, and compares with the recorded reference. The tolerance of each
element of an output is MARGIN times the largest absolute difference seen
there, on top of a relative 1e-9. Both sizes (full and smoke) are
calibrated and written to perfbench/data/tolerance-<workload>.json.
"""

from __future__ import annotations

import json
import sys

import run  # standard library only: threads get pinned before numpy loads

run.pin_threads()
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
from d2dpower import netgen, solver  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

EPSILONS = (1e-15, 1e-13)
MARGIN = 3.0
PERTURBED_SITES = tracing.SOLVER_SITES + [
    site for site in tracing.SITES if site[:2] == (netgen, "gain_batch")]


def perturbing(eps, rng):
    def make(fn, site):
        def perturbed(*a, **kw):
            out = fn(*a, **kw)
            x = out[0] if isinstance(out, tuple) else out
            x = x * (1.0 + eps * rng.standard_normal(x.shape))
            if site[2] != "netgen.gain_batch":
                x = np.clip(x, 0.0, 1.0)
            return (x,) + out[1:] if isinstance(out, tuple) else x
        return perturbed
    return make


def calibrate(wl, size: str) -> dict:
    schedule = solver.load_schedule(workloads.SCHEDULE_PATH)
    reference = json.loads(workloads.reference_path(wl.name).read_text())
    rng = np.random.default_rng(0)
    worst = {}
    for slot in range(workloads.SEED_SLOTS):
        rep, _, _ = wl.prepare(slot, size == "smoke", schedule)
        want = reference[size][slot]
        for eps in EPSILONS:
            with tracing.patched(PERTURBED_SITES, perturbing(eps, rng)):
                got = rep()
            for key in want:
                g = np.asarray(got[key], dtype=float)
                w = np.asarray(want[key], dtype=float)
                with np.errstate(invalid="ignore"):  # -inf utilities
                    diff = np.where(g == w, 0.0, np.abs(g - w))
                worst[key] = np.maximum(worst.get(key, 0.0), diff)
    return {key: {"rtol": workloads.RTOL, "atol": (MARGIN * w).tolist(),
                  "worst_abs_diff": w.tolist()} for key, w in worst.items()}


def main(names) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        tol = {size: calibrate(wl, size) for size in ("full", "smoke")}
        path = workloads.tolerance_path(name)
        path.write_text(json.dumps(tol) + "\n")
        print(f"wrote {path.name}: " + ", ".join(
            f"{k} atol up to {np.max(v['atol']):.3g}"
            for k, v in tol["full"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
