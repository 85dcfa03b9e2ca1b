"""Seeded benchmark of the d2dpower library.

    python3 perfbench/run.py --workload eval-k10 --seed 0 --seconds 25 --trace 0

Runs one workload (see workloads.py and README.md) in one process and one
thread as a closed loop: each library call starts after the previous one
returned. The library is imported from ``src/`` next to this directory.

A run sets up several times (a fresh import of d2dpower, the schedule, the
inputs, one warm-up call), runs one output-checked repetition with every
allocation validated, then repeats the workload for --seconds and reports
the work done per second. Every repetition's outputs are compared with the
recorded reference values and with the first repetition. With --trace 1
the repetitions alternate between plain and traced; the traced ones record
a span per call of each layer's public functions and give the per-layer
metrics, written to perfbench/out/spans-<workload>-seed<seed>.jsonl at the
end.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
repetition was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: "<span name>.<stat>", plus counts named after the work
# they count. Every figure is per traced repetition.
PER_LAYER = [
    *(f"fplinq.fplinq.{s}" for s in
      ("calls", "busy_s", "p50_us", "p95_us", "errors")),
    "fplinq.iters",
    *(f"solver.run.{s}" for s in
      ("calls", "busy_s", "p50_us", "p95_us", "errors")),
    "solver.layers",
    "training.train_layerwise.self_s",
    "training.adam_step.calls",
    "training.adam_step.busy_s",
    "training.sample_weights.busy_s",
    "training.iterations",
    "netgen.gain_batch.calls",
    "netgen.gain_batch.busy_s",
    "netgen.gain_batch.p50_us",
    "netgen.sample_instances.busy_s",
    "rates.weighted_sum_rate.calls",
    "rates.weighted_sum_rate.busy_s",
    "rates.rate_vector.calls",
    "rates.rate_vector.busy_s",
    "scheduling.dpp_run.self_s",
    "scheduling.queue_update.busy_s",
    "scheduling.aux.busy_s",
    "scheduling.slots",
    "benchmark.evaluate.self_s",
    "benchmark.sweep_generalization.self_s",
    "benchmark.make_test_set.busy_s",
]
COUNTS = {
    "fplinq.iters": ("fplinq.fplinq", "work"),
    "solver.layers": ("solver.run", "work"),
    "training.iterations": ("training.adam_step", "calls"),
    "scheduling.slots": ("scheduling.queue_update", "calls"),
}
STAT_UNITS = {"calls": "count", "errors": "count", "work": "count",
              "busy_s": "s", "self_s": "s", "p50_us": "us", "p95_us": "us"}


def pin_threads() -> None:
    """Pin BLAS and OpenMP to BLAS_THREADS; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def per_layer_metrics(stats: dict, reps: int) -> dict:
    out = {}
    for name in PER_LAYER:
        span, stat = COUNTS.get(name) or tuple(name.rsplit(".", 1))
        value = stats.get(span, {}).get(stat, 0.0)
        if stat not in ("p50_us", "p95_us"):
            value /= reps
        out[name] = {"value": value, "unit": STAT_UNITS[stat]}
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the repetitions run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "d2dpower").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fresh_import(package: str) -> None:
    """Import package and its submodules anew (numpy stays loaded), then
    put the modules already loaded back, so the benchmark keeps using one
    set of module objects."""
    def ours():
        return [k for k in sys.modules
                if k == package or k.startswith(package + ".")]
    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        importlib.import_module(package)
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if not (SRC / "d2dpower" / "__init__.py").is_file():
        print(f"error: no d2dpower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy as np
    numpy_import_s = time.perf_counter() - t0
    import d2dpower
    from d2dpower import solver
    import tracing
    import workloads

    if pathlib.Path(d2dpower.__file__).resolve().parent != SRC / "d2dpower":
        print(f"error: d2dpower imported from {d2dpower.__file__}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    slot = args.seed % workloads.SEED_SLOTS
    size = "smoke" if args.smoke else "full"
    reference = json.loads(workloads.reference_path(wl.name).read_text())
    expected = reference[size][slot]
    tolerance = json.loads(
        workloads.tolerance_path(wl.name).read_text())[size]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        fresh_import("d2dpower")
        schedule = solver.load_schedule(workloads.SCHEDULE_PATH)
        rep, ops, warmup = wl.prepare(slot, args.smoke, schedule)
        warmup()
        setup_times.append(time.perf_counter() - t)
    setup_s = statistics.median(setup_times)

    attempted = failed = 0
    first = None

    def attempt(context) -> tuple:
        """One checked repetition: (outputs or None, seconds)."""
        nonlocal attempted, failed, first
        attempted += 1
        with context:
            t = time.perf_counter()
            try:
                out = rep()
            except Exception:
                traceback.print_exc()
                failed += 1
                return None, 0.0
            dt = time.perf_counter() - t
        problems = workloads.mismatches(out, expected, tolerance)
        if first is None:
            first = out
        elif not workloads.identical(out, first):
            problems.append("outputs differ from the first repetition")
        if problems:
            print(f"repetition {attempted} wrong: " + "; ".join(problems),
                  file=sys.stderr)
            failed += 1
            return None, dt
        return out, dt

    # First repetition: every allocation a solver returns must be finite
    # and lie in [0, 1].
    allocations, bad_alloc = [], []

    def check_allocations(fn, site):
        def checked(*a, **kw):
            out = fn(*a, **kw)
            x = np.asarray(out[0] if isinstance(out, tuple) else out)
            allocations.append(1)
            if not (np.all(np.isfinite(x)) and x.min() >= 0.0
                    and x.max() <= 1.0):
                bad_alloc.append(site[2])
            return out
        return checked

    out, _ = attempt(tracing.patched(tracing.SOLVER_SITES, check_allocations))
    if bad_alloc:
        print(f"{len(bad_alloc)} of {len(allocations)} allocations not "
              f"finite in [0, 1], from {sorted(set(bad_alloc))}",
              file=sys.stderr)
        failed += out is not None

    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []  # seconds of each successful repetition
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        use_trace = tracer is not None and i % 2 == 1
        out, dt = attempt(tracer.tracing(i) if use_trace
                          else contextlib.nullcontext())
        if out is not None:
            (traced if use_trace else plain).append(dt)
        i += 1
    if not plain or (tracer and not traced):
        print("error: no repetition succeeded", file=sys.stderr)
        return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Work per second over all timed repetitions. On a host whose speed
    # switches between a fast and a slow state every few seconds this is
    # steadier from run to run than the median repetition rate, which jumps
    # between the two states.
    rate = ops * len(plain) / sum(plain)
    q1, q3 = quartiles([ops / dt for dt in plain])
    print(f"# perfbench {wl.name} seed {args.seed} (input set {slot}, "
          f"{size} size) trace {args.trace}")
    print("env " + json.dumps(environment(np, args.seed)))
    rows = [(wl.rate_metric, rate, wl.rate_unit,
             f"over {len(plain)} repetitions; their rates' quartiles "
             f"{q1:.6g} .. {q3:.6g}")]
    if wl.quality:
        rows.append((wl.quality[0], float(first[wl.quality[1]]), "ratio",
                     "LUVA / FPLinQ weighted sum-rate"))
    rows += [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups; "
         f"numpy import {numpy_import_s:.4g} s not included"),
        ("peak_rss_mb", peak_rss_mb, "MB", ""),
        ("failed_frac", failed / attempted, "ratio",
         f"{failed} of {attempted} repetitions"),
    ]
    if tracer:
        traced_rate = ops * len(traced) / sum(traced)
        coverage = tracer.top_level_busy_s() / sum(traced)
        rows += [
            (wl.rate_metric + ".traced", traced_rate, wl.rate_unit,
             f"over {len(traced)} traced repetitions"),
            ("tracing_overhead", rate / traced_rate - 1.0, "ratio",
             "plain rate / traced rate - 1"),
            ("top_level_span_coverage", coverage, "ratio",
             "top-level span busy time / traced wall time"),
        ]
    for name, value, unit, note in rows:
        print(f"{name:<34} {value:<14.8g} {unit:<13} {note}")

    if tracer:
        stats = tracer.layer_stats()
        print(f"{'span':<34} {'calls/rep':>10} {'busy_s/rep':>11} "
              f"{'self_s/rep':>11} {'p50_us':>10} {'p95_us':>10}")
        for name in sorted(stats):
            s, n = stats[name], len(traced)
            print(f"{name:<34} {s['calls'] / n:>10.6g} {s['busy_s'] / n:>11.5g}"
                  f" {s['self_s'] / n:>11.5g} {s['p50_us']:>10.5g}"
                  f" {s['p95_us']:>10.5g}")
        metrics = per_layer_metrics(stats, len(traced))
        SPAN_DIR.mkdir(exist_ok=True)
        span_path = SPAN_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(span_path)
        print(f"spans written to {span_path.relative_to(ROOT)}")
    else:
        values = {"ops_per_s": rate, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
