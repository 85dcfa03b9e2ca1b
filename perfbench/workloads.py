"""Benchmark workloads: their inputs, one repetition, and output checks.

Every workload calls only public d2dpower functions. A repetition returns
a dict of named outputs (floats, ints or arrays) that are compared with the
reference values in data/reference-<workload>.json, recorded from the
unmodified library by record_reference.py.

Inputs come from an input set chosen by the benchmark seed: input set
``seed % SEED_SLOTS`` is used, so the same seed always gives the same
inputs and every seed has recorded references.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Callable

import numpy as np

from d2dpower import benchmark, netgen, scheduling, training

DATA = pathlib.Path(__file__).resolve().parent / "data"
SCHEDULE_PATH = DATA / "luva_k10.json"
SEED_SLOTS = 32
RTOL = 1e-9  # relative slack of every check, on top of its calibrated atol

PARAMS = netgen.SystemParams()
K = 10
FPLINQ_ITERS = 100
TRAIN_MAX_ITER = 20


@dataclasses.dataclass(frozen=True)
class Workload:
    """prepare(slot, smoke, schedule) -> (rep, ops per rep, warmup)."""

    name: str
    rate_metric: str
    rate_unit: str
    quality: tuple | None  # (report metric name, output key)
    prepare: Callable


def _prepare_eval(slot, smoke, schedule):
    count = 4 if smoke else 200
    solve_a = benchmark.schedule_point_solver(schedule)
    solve_b = benchmark.fplinq_point_solver(FPLINQ_ITERS)

    def rep():
        test_set = benchmark.make_test_set(PARAMS, K, count, slot)
        report = benchmark.evaluate(test_set, solve_a, solve_b)
        return {"ratios": report.ratios, "mean": report.mean,
                "skipped": report.skipped}

    def warmup():
        benchmark.evaluate(benchmark.make_test_set(PARAMS, K, 1, slot),
                           solve_a, solve_b)

    return rep, count, warmup


def _prepare_sweep(slot, smoke, schedule):
    k, count = (20, 2) if smoke else (200, 40)

    def point(n):
        (pt,) = benchmark.sweep_generalization(
            schedule, "k_fixed_area", [k], PARAMS, K, count=n, seed=slot,
            baseline_iters=FPLINQ_ITERS)
        return pt

    def rep():
        pt = point(count)
        return {"mean_ratio": pt.mean_ratio, "std_ratio": pt.std_ratio,
                "count": pt.count}

    return rep, count, lambda: point(1)


def _prepare_train(slot, smoke, schedule):
    max_iter = 2 if smoke else TRAIN_MAX_ITER
    # stop_window > max_iter: no stage stops early, so every repetition runs
    # exactly n_layers * 3 stages * max_iter iterations.
    cfg = training.TrainConfig(
        n_layers=2 if smoke else 10, n_train=5 if smoke else 50,
        validation_size=10 if smoke else 500, val_every=100,
        max_iter=max_iter, stop_window=max_iter + 1, seed=slot)
    stages = 1 + len(cfg.refinement_factors)

    def rep():
        sched, hist = training.train_layerwise(cfg, PARAMS, k_links=K)
        # Every checkpoint, not only the last: a change of the last bits
        # grows from layer to layer (training is chaotic), so the early
        # checkpoints can be checked far more tightly than the final one.
        return {"schedule": sched.to_vector(),
                "val_mean_wsr": [rec.val_mean_wsr for rec in hist]}

    def warmup():
        training.train_layerwise(
            dataclasses.replace(cfg, n_layers=1, max_iter=1, stop_window=2),
            PARAMS, k_links=K)

    return rep, cfg.n_layers * stages * max_iter, warmup


def _prepare_sched(slot, smoke, schedule):
    net = netgen.sample_layout(PARAMS, K, slot)
    solve = scheduling.luva_solver(schedule)
    utilities = (scheduling.UtilitySpec("proportional", 10.0),
                 scheduling.UtilitySpec("maxmin", 40.0))
    t_total, t_avg = (20, 10) if smoke else (1000, 500)
    # The proportional-fair run is chaotic: a change in the last bits grows
    # from slot to slot. Queues at early slots are still checked tightly.
    slots = [t for t in (10, 20, 50, 100, 200, 500, 1000) if t <= t_total]

    def rep():
        out = {}
        for util in utilities:
            res = scheduling.dpp_run(net, solve, util, t_total=t_total,
                                     t_avg=t_avg)
            out[f"throughput_{util.kind}"] = res.throughput
            out[f"utility_{util.kind}"] = res.utility
            out[f"queues_{util.kind}"] = res.q_trace[slots]
        return out

    def warmup():
        scheduling.dpp_run(net, solve, utilities[0], t_total=2, t_avg=1)

    return rep, len(utilities) * t_total, warmup


WORKLOADS = {w.name: w for w in (
    Workload("eval-k10", "eval.inst_per_s", "instances/s",
             ("eval.mean_ratio", "mean"), _prepare_eval),
    Workload("sweep-k200", "sweep.inst_per_s", "instances/s",
             ("sweep.mean_ratio", "mean_ratio"), _prepare_sweep),
    Workload("train-k10", "train.iters_per_s", "iterations/s", None,
             _prepare_train),
    Workload("sched-luva-k10", "sched.luva_slots_per_s", "slots/s", None,
             _prepare_sched),
)}


def reference_path(name: str) -> pathlib.Path:
    return DATA / f"reference-{name}.json"


def tolerance_path(name: str) -> pathlib.Path:
    return DATA / f"tolerance-{name}.json"


def mismatches(outputs: dict, expected: dict, tolerance: dict) -> list[str]:
    """Outputs that differ from expected by more than
    tolerance[key]["atol"] + tolerance[key]["rtol"] * magnitude; atol is
    one number or one per element."""
    if outputs.keys() != expected.keys():
        return [f"output keys {sorted(outputs)} != {sorted(expected)}"]
    bad = []
    for key, want in expected.items():
        got = np.asarray(outputs[key], dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            bad.append(f"{key}: shape {got.shape} != {want.shape}")
            continue
        tol = tolerance[key]
        with np.errstate(invalid="ignore"):
            close = (got == want) | (np.abs(got - want) <= np.asarray(
                tol["atol"]) + tol["rtol"] * np.maximum(np.abs(got),
                                                        np.abs(want)))
        if not np.all(close):
            worst = int(np.argmin(close.ravel()))
            bad.append(f"{key}[{worst}]: {got.ravel()[worst]!r} != "
                       f"{want.ravel()[worst]!r}")
    return bad


def identical(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a)
