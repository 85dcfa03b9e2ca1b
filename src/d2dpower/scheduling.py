"""Virtual-queue fairness scheduling on top of the one-shot solvers.

Each slot solves three subproblems: auxiliary arrivals that trade the chosen
utility against queue backlogs (closed forms below), a weighted sum-rate
power allocation with the queues as weights, and the queue update itself.
Time-averaged rates then converge toward the utility-optimal operating point
as the penalty weight V grows, at the price of larger queues. The per-slot
solvers are evaluate's, solver(net, w) -> x (see benchmark); x, queues,
rates, arrivals and u (> 0) pass netgen's _finite_array (x in _allocation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmark import fplinq_point_solver as fplinq_solver
from .benchmark import schedule_point_solver
from .netgen import NetworkInstance, _count, _finite_array, _real
from .rates import _allocation, rate_vector, utopian_point
from .solver import StepSchedule
from .solver import run  # perfbench/tracing.py rebinds it
from .fplinq import fplinq  # perfbench/tracing.py rebinds it

__all__ = [
    "UtilitySpec",
    "DppResult",
    "queue_update",
    "aux_proportional",
    "aux_maxmin",
    "geometric_mean",
    "utility_value",
    "fplinq_solver",
    "luva_solver",
    "dpp_run",
]

UTILITIES = ("proportional", "maxmin")


@dataclass(frozen=True)
class UtilitySpec:
    """Utility kind and penalty weight V >= 0. Larger V favors utility over
    queue backlog; V = 10 suits proportional fairness, V = 40 max-min."""

    kind: str
    v: float

    def __post_init__(self):
        if self.kind not in UTILITIES:
            raise ValueError(f"kind must be one of {UTILITIES}")
        _real("v", self.v, 0.0)


def queue_update(q, rates, arrivals) -> np.ndarray:
    """One slot: serve at the realized rates, then add new arrivals."""
    return (np.maximum(0.0, _finite_array("queues", q) -
                       _finite_array("rates", rates)) +
            _finite_array("arrivals", arrivals))


def aux_proportional(q, v: float, a_max: float) -> np.ndarray:
    """argmax_a in [0, a_max]^K of v sum_i ln(a_i) - q^T a, per coordinate
    a_i = min(a_max, v / q_i), with a_i = a_max where q_i = 0."""
    q = _finite_array("queues", q)
    v, a_max = _real("v", v, 0.0), _real("a_max", a_max, 0.0, strict=True)
    with np.errstate(divide="ignore"):
        unclipped = np.where(q > 0.0, v / q, np.inf)
    return np.minimum(a_max, unclipped)


def aux_maxmin(q, v: float, u) -> np.ndarray:
    """argmax_a in [0, max(u)]^K of v min_i(a_i / u_i) - q^T a.

    The optimum is bang-bang along a = m u for m in {0, 1}: m = 1 when
    v >= q^T u (ties included), else 0.
    """
    q, v = _finite_array("queues", q), _real("v", v, 0.0)
    u = _finite_array("u", u, 0.0, strict=True)
    return u.copy() if v >= float(q @ u) else np.zeros_like(u)


def geometric_mean(values) -> float:
    """Geometric mean of finite nonnegative values; zero if any is zero."""
    vals = _finite_array("values", values)
    return float(np.exp(np.mean(np.log(vals)))) if vals.min() > 0.0 else 0.0


def utility_value(util: UtilitySpec, throughput, u) -> float:
    """Realized utility of a finite nonnegative throughput vector."""
    thr = _finite_array("throughput", throughput)
    u = _finite_array("u", u, 0.0, strict=True)
    if util.kind == "maxmin":
        return float(np.min(thr / u))
    return float(np.sum(np.log(thr))) if thr.min() > 0.0 else -np.inf


def luva_solver(schedule: StepSchedule, x0: float = 0.01):
    """schedule_point_solver on each network's queues divided by their max,
    the weight scale the schedule was trained on. FPLinQ is invariant to
    that scale, so fplinq_solver (fplinq_point_solver) takes raw queues."""
    solve = schedule_point_solver(schedule, x0=x0)

    def luva(net, q):
        q = np.asarray(q, dtype=float)
        top = q.max(-1, keepdims=True)
        # else q / top divides by 0 or inf, or flips signs
        if 0.0 < top.min() <= top.max() < np.inf:
            return solve(net, q / top)
        raise ValueError("queues must be finite, with one positive entry "
                         "per network")
    return luva


@dataclass
class DppResult:
    """Scheduler outcome: per-link throughput (mean rate over the averaging
    window), realized utility, and full queue/rate traces."""

    throughput: np.ndarray
    utility: float
    q_trace: np.ndarray
    rate_trace: np.ndarray
    a_max: float


def dpp_run(net: NetworkInstance, solver, util: UtilitySpec,
            t_total: int = 1000, t_avg: int = 500) -> DppResult:
    """Run the scheduler for t_total slots from unit queues; average the
    last t_avg.

    Per slot: (i) auxiliary arrivals from the closed form, (ii) weighted
    sum-rate allocation with the current queues as weights, (iii) queue
    update. Deterministic given the solver.
    """
    if _count("t_avg", t_avg) > _count("t_total", t_total):
        raise ValueError("t_avg must be at most t_total")
    k = net.k_links
    u = utopian_point(net)
    a_max = float(np.max(u))

    q_trace, rate_trace = np.empty((t_total + 1, k)), np.empty((t_total, k))
    q_trace[0] = q = np.ones(k)

    for t in range(t_total):
        a = (aux_proportional(q, util.v, a_max) if util.kind == "proportional"
             else aux_maxmin(q, util.v, u))
        if q.max() > 0.0:
            r = rate_vector(_allocation(solver(net, q), q), net)
        else:
            r = np.zeros(k)  # all queues empty: nothing worth serving
        q = queue_update(q, r, a)
        rate_trace[t] = r
        q_trace[t + 1] = q

    throughput = rate_trace[t_total - t_avg:].mean(axis=0)
    return DppResult(throughput=throughput,
                     utility=utility_value(util, throughput, u),
                     q_trace=q_trace, rate_trace=rate_trace, a_max=a_max)
