"""Evaluation harness: performance ratios, sweeps, CDFs, CSV reports.

The figure of merit is the ratio of a solver's weighted sum-rate to the
baseline's on the same instance and weights; a ratio above 1 beats the
baseline. Sweeps re-evaluate one trained schedule across network scales
without retraining. Solvers follow one protocol, solver(net_or_block, w)
-> x, shared with the scheduler; evaluate hands them checked rates._Blocks
and scores each x in [0, 1] with rates.weighted_sum_rate.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields, replace
from itertools import groupby

import numpy as np

from . import netgen
from .netgen import SystemParams, _count, _finite_array, _real
from .rates import _Block, _allocation, _solver_inputs, weighted_sum_rate
from .solver import StepSchedule, run
from .fplinq import fplinq
from .training import sample_weights

__all__ = [
    "EvalReport",
    "SweepPoint",
    "make_test_set",
    "fplinq_point_solver",
    "schedule_point_solver",
    "evaluate",
    "sweep_generalization",
    "cdf_points",
    "report_to_csv",
    "sweep_to_csv",
]

SWEEP_AXES = ("k_fixed_area", "k_fixed_density", "snr_offset",
              "d_min", "d_max")

# Cap on one block's S = [gain; offdiag(gain)] (16 K^2 bytes per network),
# which every solver iteration reads: a core's L2 cache, 2 MiB. Larger
# stacks stream from memory on every iteration, so a whole (40, 200, 200)
# test set ran FPLinQ slower batched than one network at a time. K = 10
# fits 8192 networks per block, K = 200 three.
BLOCK_BYTES = 2 ** 21


def make_test_set(params: SystemParams, k: int, count: int, seed,
                  weight_dist: str = "uniform01"):
    """List of (instance, weights) pairs from one seeded stream.

    Geometry is drawn first, weights second, so the same seed always yields
    the same pairs. seed is an int or a sequence of ints, numpy's included.
    """
    nets = netgen.sample_instances(params, k, count, seed)
    # numpy reads [seed, 0xA11] as (seed, 0xA11), or (*seed, 0xA11)
    rng = np.random.default_rng([seed, 0xA11])
    return list(zip(nets, sample_weights(rng, count, k, weight_dist)))


def fplinq_point_solver(iters: int = 100):
    """Baseline solver(net_or_block, w) -> x for evaluate and dpp_run;
    solves one network or a block, like fplinq."""
    def solve(net, w):
        return fplinq(net, w, iters)
    return solve


def schedule_point_solver(schedule: StepSchedule, mode: str = "normalized",
                          x0: float = 0.01):
    """Unrolled solver(net_or_block, w) -> x for evaluate; solves one
    network or a block, like solver.run."""
    def solve(net, w):
        x, _ = run(net, w, schedule, mode=mode, x0=x0, keep_trace=False)
        return x
    return solve


@dataclass
class EvalReport:
    """Per-instance ratios plus summary statistics; cdf_points(ratios)
    gives their CDF."""

    ratios: np.ndarray
    mean: float
    std: float
    frac_at_least_one: float
    skipped: int


def cdf_points(values):
    """Empirical CDF as (sorted unique values, cumulative fraction).

    Duplicates collapse into one point carrying their combined mass; the
    last fraction is exactly 1.
    """
    vals = _finite_array("values", values, -np.inf)
    uniq, counts = np.unique(vals, return_counts=True)
    return uniq, np.cumsum(counts) / vals.size


def _blocks(test_set):
    """(_Block, weights) per run of consecutive (net, w) entries that share
    K and noise, cut into blocks of at most BLOCK_BYTES of S."""
    for (k, _), group in groupby(test_set, key=lambda entry: (
            entry[0].k_links, entry[0].noise_power)):
        nets, ws = zip(*group)
        cap = max(1, BLOCK_BYTES // (16 * k * k))
        for i in range(0, len(nets), cap):
            yield _Block(nets[i:i + cap]), ws[i:i + cap]


def evaluate(test_set, solver_a, solver_b=None) -> EvalReport:
    """Ratio of solver_a to solver_b (default: 100-iteration baseline) on
    every instance. Each solver runs once per block (see _blocks), as
    solver(nets, ws) with B networks and weights (B, K), returning powers
    (B, K) in [0, 1], else ValueError (rates._allocation). Instances with a
    zero reference sum-rate are skipped, counted."""
    if solver_b is None:
        solver_b = fplinq_point_solver(100)
    ratios, skipped = [], 0
    for block, ws in _blocks(test_set):
        ws = _solver_inputs(block, ws)[2]
        wsr_a, wsr_b = [weighted_sum_rate(_allocation(solver(block, ws), ws),
                                          ws, block)
                        for solver in (solver_a, solver_b)]
        ok = wsr_b != 0.0
        skipped += int(np.count_nonzero(~ok))
        ratios.extend(wsr_a[ok] / wsr_b[ok])
    if not ratios:
        raise ValueError("every instance was skipped" if skipped
                         else "the test set is empty")
    arr = np.asarray(ratios)
    return EvalReport(ratios=arr, mean=float(arr.mean()), std=float(arr.std()),
                      frac_at_least_one=float(np.mean(arr >= 1.0)),
                      skipped=skipped)


@dataclass
class SweepPoint:
    axis: str
    setting: float
    k: int
    mean_ratio: float
    std_ratio: float
    count: int
    skipped: int


def _point_config(axis: str, setting, base_params: SystemParams,
                  base_k: int) -> tuple[SystemParams, int]:
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    setting = _real(axis, setting)
    if axis == "k_fixed_area":  # 10.0, as the CLI parses it, counts
        k = int(setting) if setting.is_integer() else setting
        return base_params, _count(axis, k)
    if axis == "k_fixed_density":
        # keep links per unit area constant; round half up
        scale = (setting / base_params.area_side_m) ** 2
        k = int(np.floor(base_k * scale + 0.5))
        return replace(base_params, area_side_m=setting), max(1, k)
    if axis == "snr_offset":
        return replace(base_params, tx_power_dbm=base_params.tx_power_dbm
                       + setting), base_k
    return replace(base_params, **{f"{axis}_m": setting}), base_k


def sweep_generalization(schedule: StepSchedule, axis: str, grid,
                         base_params: SystemParams, base_k: int,
                         count: int = 200, seed: int = 0,
                         weight_dist: str = "uniform01",
                         baseline_iters: int = 100,
                         x0: float = 0.01) -> list[SweepPoint]:
    """Evaluate one schedule against the baseline across a parameter grid.

    Each grid point gets a fresh test set seeded by (seed, point index), so
    results are reproducible point by point.
    """
    solver_a = schedule_point_solver(schedule, x0=x0)
    solver_b = fplinq_point_solver(baseline_iters)
    points = []
    for i, setting in enumerate(grid):
        params_i, k_i = _point_config(axis, setting, base_params, base_k)
        test_set = make_test_set(params_i, k_i, count, (seed, i),
                                 weight_dist)
        rep = evaluate(test_set, solver_a, solver_b)
        points.append(SweepPoint(
            axis=axis, setting=float(setting), k=k_i,
            mean_ratio=rep.mean, std_ratio=rep.std,
            count=count - rep.skipped, skipped=rep.skipped))
    return points


def _write_csv(path, header, rows) -> None:
    """Header, then rows; every float, numpy's included, as its shortest
    round-trip repr. All of the package's CSV goes through here."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


def report_to_csv(report: EvalReport, path) -> None:
    """Per-instance rows, then one summary row."""
    _write_csv(path, ["instance", "ratio"],
               [*enumerate(report.ratios), ("mean", report.mean),
                ("std", report.std),
                ("frac_at_least_one", report.frac_at_least_one),
                ("skipped", report.skipped)])


def sweep_to_csv(points, path) -> None:
    _write_csv(path, [f.name for f in fields(SweepPoint)],
               map(astuple, points))
