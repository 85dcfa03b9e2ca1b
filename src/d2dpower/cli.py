"""Command-line interface.

Subcommands: generate, viva, luva, fplinq, train, evaluate, sweep, schedule.
Every run is deterministic for a fixed seed; output files carry no
timestamps, so identical invocations produce identical bytes. Bad input
(ValueError, OSError) ends in one stderr line and exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import benchmark, netgen, scheduling, training
from .benchmark import _write_csv
from .netgen import SystemParams
from .rates import weighted_sum_rate
from .solver import load_schedule, save_schedule, viva_defaults


def load_params(path) -> SystemParams:
    """SystemParams from a JSON file of (possibly partial) overrides."""
    doc = {} if path is None else netgen._json_object(path)
    return netgen._params(doc, path)


def cmd_generate(args) -> int:
    params = load_params(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        net = netgen.sample_layout(params, args.k, args.seed + i)
        netgen.save_layout(out / f"layout_{args.seed + i:06d}.json",
                           net, params)
    print(f"wrote {args.count} layouts to {out}")
    return 0


def _run_one_shot(args) -> int:
    solver_name = args.solver
    net, _ = netgen.load_layout(args.layout)
    w = training.sample_weights(
        np.random.default_rng((args.seed, 0xF00D)), 1, net.k_links,
        {"ones": "all_ones", "uniform": "uniform01"}[args.weights])[0]
    if solver_name == "fplinq":
        solve = benchmark.fplinq_point_solver(args.iters)
    else:
        if solver_name == "viva":
            sched = viva_defaults(args.iters, args.constant)
        else:
            sched = load_schedule(args.params_file)
        solve = benchmark.schedule_point_solver(sched, args.mode, args.x0)
    x = solve(net, w)
    wsr = weighted_sum_rate(x, w, net)
    print(f"{solver_name}: wsr {wsr:.6f} nats, "
          f"active links {int(np.sum(x > 0.5))}/{net.k_links}")
    if args.out:
        _write_csv(args.out, ["link", "power"],
                   [*enumerate(x), ("wsr", wsr)])
    return 0


def cmd_train(args) -> int:
    params = load_params(args.config)
    cfg = training.TrainConfig(
        n_layers=args.layers, n_train=args.n_train, max_iter=args.max_iter,
        base_rate=args.rate, weight_dist=args.weight_dist,
        validation_size=args.validation_size, seed=args.seed, x0=args.x0)
    sched, hist = training.train_layerwise(cfg, params, k_links=args.k)
    save_schedule(args.out, sched)
    if args.history:
        _write_csv(args.history, ["stage", "iteration", "val_mean_wsr"],
                   [(r.stage, r.iteration, r.val_mean_wsr) for r in hist])
    print(f"trained {args.layers} layers; final validation mean wsr "
          f"{hist[-1].val_mean_wsr:.6f}; schedule saved to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    params = load_params(args.config)
    sched = load_schedule(args.params_file)
    test = benchmark.make_test_set(params, args.k, args.count, args.seed,
                                   args.weight_dist)
    rep = benchmark.evaluate(
        test, benchmark.schedule_point_solver(sched, x0=args.x0),
        benchmark.fplinq_point_solver(args.iters))
    benchmark.report_to_csv(rep, args.out)
    print(f"mean ratio {rep.mean:.6f}, std {rep.std:.6f}, "
          f"frac>=1 {rep.frac_at_least_one:.4f}, skipped {rep.skipped}")
    return 0


def cmd_sweep(args) -> int:
    params = load_params(args.config)
    sched = load_schedule(args.params_file)
    grid = [float(v) for v in args.grid.split(",")]
    pts = benchmark.sweep_generalization(
        sched, args.axis, grid, params, args.k, count=args.count,
        seed=args.seed, weight_dist=args.weight_dist,
        baseline_iters=args.iters, x0=args.x0)
    benchmark.sweep_to_csv(pts, args.out)
    for pt in pts:
        print(f"{args.axis}={pt.setting:g} k={pt.k}: "
              f"mean ratio {pt.mean_ratio:.4f}")
    return 0


def cmd_schedule(args) -> int:
    if args.solver == "luva" and not args.params_file:
        raise ValueError("--solver luva requires --params-file")
    nets = [netgen.load_layout(path)[0] for path in args.layout]
    if len({net.k_links for net in nets}) > 1:
        raise ValueError("--layout needs layouts of one K")
    util = scheduling.UtilitySpec(args.utility, args.v)
    if args.solver == "fplinq":
        solver = scheduling.fplinq_solver(args.iters)
    else:
        solver = scheduling.luva_solver(load_schedule(args.params_file),
                                        x0=args.x0)
    rows = []
    for path, net in zip(args.layout, nets):
        res = scheduling.dpp_run(net, solver, util, t_total=args.slots,
                                 t_avg=args.avg)
        gm = scheduling.geometric_mean(res.throughput)
        rows.append([Path(path).name, res.utility, gm, *res.throughput])
        print(f"{path}: utility {res.utility:.6f}, gm {gm:.6f}")
    _write_csv(args.out, ["network", "utility", "gm"]
               + [f"r_{i}" for i in range(nets[0].k_links)], rows)
    return 0


def _add_seed_config(sp) -> None:
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--config", default=None,
                    help="JSON file of system parameter overrides")


def _add_eval_options(sp) -> None:
    """Options evaluate and sweep share."""
    sp.add_argument("--params-file", required=True)
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--iters", type=int, default=100)
    sp.add_argument("--weight-dist", choices=training.WEIGHT_DISTS,
                    default="uniform01")
    sp.add_argument("--x0", type=float, default=0.01)
    _add_seed_config(sp)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="d2dpower",
        description="Power control for D2D interference networks")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="sample network layouts to JSON")
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--out", required=True, help="output directory")
    _add_seed_config(sp)
    sp.set_defaults(fn=cmd_generate)

    for name, help_text in (("viva", "untrained constant-step solver"),
                            ("luva", "solver with a trained schedule"),
                            ("fplinq", "fractional-programming baseline")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--layout", required=True)
        sp.add_argument("--weights", choices=("ones", "uniform"),
                        default="ones")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed of --weights uniform")
        if name == "viva":
            sp.add_argument("--iters", type=int, default=10,
                            help="number of layers")
            sp.add_argument("--constant", type=float, default=0.003)
        elif name == "fplinq":
            sp.add_argument("--iters", type=int, default=100)
        else:
            sp.add_argument("--params-file", required=True,
                            help="trained schedule JSON")
        if name != "fplinq":
            sp.add_argument("--mode", choices=("normalized", "plain"),
                            default="normalized")
            sp.add_argument("--x0", type=float, default=0.01)
        sp.add_argument("--out", default=None, help="allocation CSV")
        sp.set_defaults(fn=_run_one_shot, solver=name)

    sp = sub.add_parser("train", help="learn a step-size schedule")
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--layers", type=int, default=10)
    sp.add_argument("--n-train", type=int, default=50)
    sp.add_argument("--max-iter", type=int, default=20000)
    sp.add_argument("--rate", type=float, default=1e-3)
    sp.add_argument("--weight-dist", choices=training.WEIGHT_DISTS,
                    default="uniform01")
    sp.add_argument("--validation-size", type=int, default=500)
    sp.add_argument("--x0", type=float, default=0.01)
    sp.add_argument("--history", default=None, help="history CSV path")
    sp.add_argument("--out", required=True, help="schedule JSON path")
    _add_seed_config(sp)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("evaluate",
                        help="performance ratio vs the baseline")
    _add_eval_options(sp)
    sp.add_argument("--out", required=True, help="report CSV path")
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("sweep", help="generalization sweep of a schedule")
    _add_eval_options(sp)
    sp.add_argument("--axis", choices=benchmark.SWEEP_AXES, required=True)
    sp.add_argument("--grid", required=True,
                    help="comma-separated values; write --grid=-10,0,10 "
                         "so negatives survive argparse")
    sp.add_argument("--out", required=True, help="sweep CSV path")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("schedule",
                        help="virtual-queue fairness scheduler")
    sp.add_argument("--layout", nargs="+", required=True)
    sp.add_argument("--solver", choices=("luva", "fplinq"), required=True)
    sp.add_argument("--params-file", default=None,
                    help="trained schedule JSON (required for luva)")
    sp.add_argument("--utility", choices=scheduling.UTILITIES,
                    required=True)
    sp.add_argument("--v", type=float, default=10.0)
    sp.add_argument("--slots", type=int, default=1000)
    sp.add_argument("--avg", type=int, default=500)
    sp.add_argument("--iters", type=int, default=100)
    sp.add_argument("--x0", type=float, default=0.01)
    sp.add_argument("--out", required=True, help="throughput CSV path")
    sp.set_defaults(fn=cmd_schedule)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"d2dpower {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
