"""Call-level spans around the public functions of each d2dpower layer.

The modules import each other with ``from .x import y``, so a wrapper only
sees a call when it is bound where the caller looks the name up: for
example ``d2dpower.benchmark.run`` for the evaluation harness and
``d2dpower.scheduling.run`` for the scheduler. SITES lists every such
binding. Nothing inside ``src/`` is changed; ``patched`` swaps the
bindings in and always restores the originals.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np

from d2dpower import benchmark, netgen, scheduling, training


def _iters(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("iters", 100)


def _layers(args, kwargs):
    sched = args[2] if len(args) > 2 else kwargs["schedule"]
    return sched.n_layers


# (module, attribute, span name, work count of one call or None).
SITES = [
    (benchmark, "evaluate", "benchmark.evaluate", None),
    (benchmark, "sweep_generalization", "benchmark.sweep_generalization",
     None),
    (benchmark, "make_test_set", "benchmark.make_test_set", None),
    (benchmark, "run", "solver.run", _layers),
    (benchmark, "fplinq", "fplinq.fplinq", _iters),
    (benchmark, "weighted_sum_rate", "rates.weighted_sum_rate", None),
    (benchmark, "sample_weights", "training.sample_weights", None),
    (netgen, "sample_instances", "netgen.sample_instances", None),
    (netgen, "gain_batch", "netgen.gain_batch", None),
    (training, "train_layerwise", "training.train_layerwise", None),
    (training, "adam_step", "training.adam_step", None),
    (training, "sample_weights", "training.sample_weights", None),
    (scheduling, "dpp_run", "scheduling.dpp_run", None),
    (scheduling, "run", "solver.run", _layers),
    (scheduling, "fplinq", "fplinq.fplinq", _iters),
    (scheduling, "rate_vector", "rates.rate_vector", None),
    (scheduling, "queue_update", "scheduling.queue_update", None),
    (scheduling, "aux_proportional", "scheduling.aux", None),
    (scheduling, "aux_maxmin", "scheduling.aux", None),
]

# Where the solvers hand allocations back to their callers.
SOLVER_SITES = [site for site in SITES
                if site[2] in ("solver.run", "fplinq.fplinq")]


@contextlib.contextmanager
def patched(sites, make_wrapper):
    """Rebind each site's attribute to make_wrapper(original, site) for the
    duration of the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in sites]
    try:
        for (mod, attr, fn), site in zip(saved, sites):
            setattr(mod, attr, make_wrapper(fn, site))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


class Tracer:
    """Records one span per wrapped call: (id, parent id, run id, name,
    start ns, end ns, raised, work count). Spans stay in memory until
    write() is called once at the end of the run."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    def wrap(self, fn, site):
        _, _, name, count = site
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id; filled in below
            stack.append(span_id)
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                work = count(args, kwargs) if count else 1
                spans[span_id] = (span_id, parent, self.run_id, name,
                                  start, end, raised, work)

        return traced

    def tracing(self, run_id: int):
        """Context manager: trace every site, tagging spans with run_id."""
        self.run_id = run_id
        return patched(SITES, self.wrap)

    def top_level_busy_s(self) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[1] is None) * 1e-9

    def layer_stats(self) -> dict:
        """Per span name: calls, busy_s, self_s, p50_us, p95_us, errors,
        work. Self time is busy time minus the time of direct children."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child_ns[s[1]] += s[5] - s[4]
        by_name = {}
        for s in self.spans:
            rec = by_name.setdefault(s[3], {"dur": [], "self": 0, "errors": 0,
                                            "work": 0})
            rec["dur"].append(s[5] - s[4])
            rec["self"] += s[5] - s[4] - child_ns[s[0]]
            rec["errors"] += s[6]
            rec["work"] += s[7]
        stats = {}
        for name, rec in by_name.items():
            dur = np.asarray(rec["dur"], dtype=float)
            stats[name] = {
                "calls": dur.size,
                "busy_s": float(dur.sum()) * 1e-9,
                "self_s": rec["self"] * 1e-9,
                "p50_us": float(np.percentile(dur, 50)) * 1e-3,
                "p95_us": float(np.percentile(dur, 95)) * 1e-3,
                "errors": rec["errors"],
                "work": rec["work"],
            }
        return stats

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("id", "parent", "run", "name", "start_ns", "end_ns",
                "raised", "work")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
