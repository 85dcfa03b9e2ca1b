"""Train the fixed 10-layer LUVA schedule that the benchmark evaluates.

The eval, sweep and scheduler workloads solve with one committed schedule,
so their timings exclude training. This script records how that schedule
was made and can rebuild it:

    python3 perfbench/train_schedule.py

It trains with TRAIN_CONFIG (the protocol of acceptance criterion 6) on
SystemParams() at K = 10 and writes perfbench/data/luva_k10.json. The
exact TrainConfig fields and the seed are stored in the schedule's
metadata under "train_config".
"""

from __future__ import annotations

import dataclasses
import sys
import time

import run  # standard library only: threads get pinned before numpy loads

run.pin_threads()
sys.path.insert(0, str(run.SRC))

from d2dpower import netgen, solver, training  # noqa: E402

K_LINKS = 10
TRAIN_CONFIG = dict(n_layers=10, n_train=50, max_iter=2000, seed=2024,
                    x0=0.01)
OUT = run.HERE / "data" / "luva_k10.json"


def main() -> int:
    cfg = training.TrainConfig(**TRAIN_CONFIG)
    t0 = time.perf_counter()
    sched, hist = training.train_layerwise(cfg, netgen.SystemParams(),
                                           k_links=K_LINKS)
    seconds = time.perf_counter() - t0
    sched.metadata["train_config"] = dataclasses.asdict(cfg)
    sched.metadata["system_params"] = "SystemParams()"
    sched.metadata["final_val_mean_wsr"] = hist[-1].val_mean_wsr
    OUT.parent.mkdir(exist_ok=True)
    solver.save_schedule(OUT, sched)
    print(f"wrote {OUT.name}: {len(hist)} checkpoints, "
          f"final val_mean_wsr {hist[-1].val_mean_wsr!r}, {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
