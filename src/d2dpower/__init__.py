"""Power control for D2D interference networks.

Library layout:

- netgen: random layouts, pathloss, gain matrices
- rates: per-link rates, Jacobian, utopian point, solver protocol checks
- solver: unrolled primal-dual solver with per-layer step schedules
- fplinq: fractional-programming baseline
- training: layer-wise learning of step-size schedules
- scheduling: virtual-queue fairness scheduler on top of the solvers
- benchmark: solver protocol, performance ratios, sweeps, CDFs, reports
"""

from . import benchmark, fplinq, netgen, rates, scheduling, solver, training
from .netgen import NetworkInstance, SystemParams, sample_layout
from .rates import utopian_point, weighted_sum_rate
from .solver import StepSchedule, load_schedule, save_schedule, viva_defaults

__all__ = [
    "benchmark", "fplinq", "netgen", "rates", "scheduling", "solver",
    "training",
    "NetworkInstance", "SystemParams", "sample_layout",
    "utopian_point", "weighted_sum_rate",
    "StepSchedule", "load_schedule", "save_schedule", "viva_defaults",
]
