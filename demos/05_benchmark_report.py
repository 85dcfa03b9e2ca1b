"""Benchmarking a schedule: ratio statistics, the CDF, and a sweep.

Every number here is a wsr ratio against the 100-iteration baseline on the
same instance, so 1.0 means parity. Test sets are seeded and the solvers
are deterministic, so a rerun reproduces every digit.

Run: python3 demos/05_benchmark_report.py
"""

import numpy as np

from d2dpower.benchmark import (cdf_points, evaluate, make_test_set,
                                report_to_csv, schedule_point_solver,
                                sweep_generalization, sweep_to_csv)
from d2dpower.netgen import SystemParams
from d2dpower.solver import viva_defaults
from d2dpower.training import TrainConfig, train_layerwise

params = SystemParams()

# --- a quick 6-layer schedule for 10-link networks (a few seconds)
cfg = TrainConfig(n_layers=6, n_train=20, max_iter=400, validation_size=100,
                  val_every=50, stop_window=250, seed=17)
sched, _ = train_layerwise(cfg, params, k_links=10)

# --- evaluate on 80 unseen layouts
test = make_test_set(params, 10, count=80, seed=555)
trained = evaluate(test, schedule_point_solver(sched))
untrained = evaluate(test, schedule_point_solver(viva_defaults(6)))
print("6-layer schedules vs 100-iteration baseline, 80 layouts:")
print(f"  untrained  mean {untrained.mean:.4f}  std {untrained.std:.4f}")
print(f"  trained    mean {trained.mean:.4f}  std {trained.std:.4f}  "
      f"frac >= 1: {trained.frac_at_least_one:.2f}")

# --- the ratio distribution, read off its empirical CDF
values, fractions = cdf_points(trained.ratios)
print("\ntrained ratio CDF:")
for q in (0.1, 0.25, 0.5, 0.75, 0.9):
    idx = int(np.searchsorted(fractions, q))
    print(f"  {int(q * 100):3d}% of layouts at ratio <= {values[idx]:.4f}")

# --- does a schedule trained at K=10 survive other network sizes?
points = sweep_generalization(sched, "k_fixed_area", [5, 10, 15], params,
                              base_k=10, count=40, seed=9)
print("\nsweep over network size (same area):")
for pt in points:
    print(f"  K = {pt.k:2d}  mean ratio {pt.mean_ratio:.4f} "
          f"(std {pt.std_ratio:.4f}, {pt.count} instances)")

# --- both objects serialize to CSV for plotting elsewhere
report_to_csv(trained, "demo_report.csv")
sweep_to_csv(points, "demo_sweep.csv")
print("\nwrote demo_report.csv and demo_sweep.csv to the working directory")
