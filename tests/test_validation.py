"""One validation vocabulary: every public entry rejects a malformed count,
real or array with a ValueError that names the argument."""

import dataclasses
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from d2dpower import benchmark, cli, fplinq, netgen, scheduling, solver
from d2dpower import training
from d2dpower.netgen import NetworkInstance, SystemParams

NAN, INF = float("nan"), float("inf")
NET = netgen.sample_layout(SystemParams(), 3, seed=0)
W = np.ones(3)
COUNT = (True, 2.5, "3", None)  # malformed whatever the lower bound
SEEDS = (None, True, -1, 2.5)


def _instance(**kw):
    base = dict(k_links=1, tx_pos=np.zeros((1, 2)), rx_pos=np.ones((1, 2)),
                gain=np.ones((1, 1)), noise_power=1.0)
    return NetworkInstance(**{**base, **kw})


def _layout(tmp, key, value):
    path = tmp / "layout.json"
    netgen.save_layout(path, NET, SystemParams())
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    return netgen.load_layout(path)


def _schedule(tmp, n_layers):
    path = tmp / "schedule.json"
    solver.save_schedule(path, solver.viva_defaults(2))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "n_layers": n_layers}))
    return solver.load_schedule(path)


def _dpp(**kw):
    util = scheduling.UtilitySpec("maxmin", 1.0)
    return scheduling.dpp_run(NET, scheduling.fplinq_solver(5), util,
                              **{"t_total": 4, "t_avg": 2, **kw})


# (entry, argument, call(malformed value, tmp_path), malformed values)
TABLE = [
    *[("SystemParams", f.name,
       lambda v, tmp, name=f.name: SystemParams(**{name: v}),
       (True, "1", None, NAN, INF) + (() if "dbm" in f.name else (0.0,)))
      for f in dataclasses.fields(SystemParams)],
    ("SystemParams", "d_min_m",
     lambda v, tmp: SystemParams(d_min_m=v, d_max_m=5.0), (5.0, 10.0)),
    # ints beyond the float range, given by their exponent
    ("SystemParams", "bandwidth_hz",
     lambda v, tmp: SystemParams(bandwidth_hz=10 ** v), (400,)),
    ("SystemParams", "tx_power_dbm",
     lambda v, tmp: SystemParams(tx_power_dbm=-10 ** v), (400,)),
    ("NetworkInstance", "k_links",
     lambda v, tmp: _instance(k_links=v), COUNT + (0,)),
    ("NetworkInstance", "noise_power",
     lambda v, tmp: _instance(noise_power=v), (True, "1", NAN, INF, 0.0)),
    ("NetworkInstance", "gain",
     lambda v, tmp: _instance(gain=np.asarray(v)),
     ([[1.0, 1.0], [1.0, 1.0]],)),
    ("NetworkInstance", "gains",
     lambda v, tmp: _instance(gain=np.full((1, 1), v)), (NAN, INF, 0.0, -1.0)),
    ("pathloss_db", "d_m",
     lambda v, tmp: netgen.pathloss_db(v, SystemParams()),
     (0.0, -1.0, NAN, INF, [])),
    ("sample_instances", "k",
     lambda v, tmp: netgen.sample_instances(SystemParams(), v, 1, 0),
     COUNT + (0,)),
    ("sample_instances", "count",
     lambda v, tmp: netgen.sample_instances(SystemParams(), 3, v, 0),
     COUNT + (-1,)),
    ("sample_instances", "seed",
     lambda v, tmp: netgen.sample_instances(SystemParams(), 3, 1, v),
     SEEDS + ((), (0, -1), [0, 2.5], (True,), np.array([[1]]))),
    ("sample_layout", "seed",
     lambda v, tmp: netgen.sample_layout(SystemParams(), 3, v), SEEDS),
    ("make_test_set", "seed",
     lambda v, tmp: benchmark.make_test_set(SystemParams(), 3, 1, v), SEEDS),
    ("load_layout", "k", lambda v, tmp: _layout(tmp, "k", v), COUNT + (0,)),
    ("load_layout", "noise_power",
     lambda v, tmp: _layout(tmp, "noise_power", v), (True, "1", None, 0.0)),
    *[("StepSchedule", name,
       lambda v, tmp, name=name: solver.StepSchedule(
           **{"alpha1": [0.1], "alpha2": [0.1], "alpha3": [0.1], name: v}),
       ([NAN], [0.1, INF], [-INF], []))
      for name in ("alpha1", "alpha2", "alpha3")],
    ("viva_defaults", "n_layers",
     lambda v, tmp: solver.viva_defaults(v), COUNT + (0,)),
    ("viva_defaults", "constant",
     lambda v, tmp: solver.viva_defaults(2, v), (True, "a", None, NAN)),
    ("run", "x0",
     lambda v, tmp: solver.run(NET, W, solver.viva_defaults(2), x0=v),
     (True, "a", None, NAN, -0.1, 1.5)),
    ("load_schedule", "n_layers",
     lambda v, tmp: _schedule(tmp, v), COUNT + (0, 3)),
    ("fplinq", "iters", lambda v, tmp: fplinq.fplinq(NET, W, v),
     COUNT + (-1,)),
    *[("TrainConfig", name,
       lambda v, tmp, name=name: training.TrainConfig(**{name: v}),
       COUNT + (0, -5))
      for name in ("n_layers", "n_train", "max_iter", "validation_size",
                   "val_every", "stop_window")],
    ("TrainConfig", "seed", lambda v, tmp: training.TrainConfig(seed=v),
     SEEDS),
    ("TrainConfig", "base_rate",
     lambda v, tmp: training.TrainConfig(base_rate=v),
     (True, "a", None, NAN, INF, 0.0)),
    ("TrainConfig", "x0", lambda v, tmp: training.TrainConfig(x0=v),
     (True, "a", None, NAN, -0.1, 1.5)),
    ("grad_schedule", "layer_cutoff",
     lambda v, tmp: training.grad_schedule(NET, W, solver.viva_defaults(2),
                                           v),
     COUNT + (1.5, 0, 3)),
    ("UtilitySpec", "v",
     lambda v, tmp: scheduling.UtilitySpec("maxmin", v),
     (True, "a", None, NAN, INF, -1.0)),
    ("aux_proportional", "v",
     lambda v, tmp: scheduling.aux_proportional(W, v, 1.0),
     (True, "a", NAN, -1.0)),
    ("aux_proportional", "a_max",
     lambda v, tmp: scheduling.aux_proportional(W, 1.0, v),
     (True, "a", NAN, INF, 0.0)),
    ("aux_maxmin", "v", lambda v, tmp: scheduling.aux_maxmin(W, v, W),
     (True, "a", NAN, -1.0)),
    ("aux_maxmin", "u", lambda v, tmp: scheduling.aux_maxmin(W, 1.0, v),
     ([1.0, 0.0, 1.0], [1.0, NAN, 1.0], [1.0, INF, 1.0], [-1.0] * 3, [])),
    *[("utility_value", "u",
       lambda v, tmp, kind=kind: scheduling.utility_value(
           scheduling.UtilitySpec(kind, 1.0), W, v),
       ([1.0, 0.0, 1.0], [1.0, NAN, 1.0], [1.0, INF, 1.0], [-1.0] * 3, []))
      for kind in scheduling.UTILITIES],
    ("luva_solver", "queues",
     lambda v, tmp: scheduling.luva_solver(solver.viva_defaults(2))(NET, v),
     ([0.0] * 3, [-1.0] * 3, [NAN, 1.0, 1.0], [INF, 1.0, 1.0])),
    ("dpp_run", "t_total", lambda v, tmp: _dpp(t_total=v), COUNT + (0,)),
    ("dpp_run", "t_avg", lambda v, tmp: _dpp(t_avg=v), COUNT + (0, 5)),
    ("cdf_points", "values", lambda v, tmp: benchmark.cdf_points(v),
     ([NAN, 1.0], [-INF], [])),
    ("sweep_generalization", "k_fixed_area",
     lambda v, tmp: benchmark.sweep_generalization(
         solver.viva_defaults(2), "k_fixed_area", [v], SystemParams(), 3,
         count=1),
     (5.7, 10.7, NAN, INF, 0.0, -2.0, True, "3")),
    *[("sweep_generalization", axis,
       lambda v, tmp, axis=axis: benchmark.sweep_generalization(
           solver.viva_defaults(2), axis, [v], SystemParams(), 3, count=1),
       (True, "3", NAN, INF))
      for axis in benchmark.SWEEP_AXES if axis != "k_fixed_area"],
    ("generate", "--count",
     lambda v, tmp: cli.cmd_generate(SimpleNamespace(count=v)),
     COUNT + (0, -1)),
]

CASES = [pytest.param(name, call, bad, id=f"{entry}-{name}-{bad!r}")
         for entry, name, call, bads in TABLE for bad in bads]


@pytest.mark.parametrize("name, call, bad", CASES)
def test_malformed_input_raises_value_error_naming_it(name, call, bad,
                                                      tmp_path):
    with pytest.raises(ValueError, match=rf"(^|\s){re.escape(name)} must"):
        call(bad, tmp_path)


def _constant_solver(value):
    return lambda net, w: np.full(np.shape(w), value)


# A solver's output x must have its weights' shape and lie in [0, 1]
# (rates._allocation); both consumers of the protocol check it.
BAD_OUTPUTS = {
    "x=3": _constant_solver(3.0),
    "x=-0.5": _constant_solver(-0.5),
    "x=nan": _constant_solver(NAN),
    "wrong-shape": lambda net, w: np.full(np.shape(w)[-1] + 1, 0.5),
    "one-link-above-1": lambda net, w: np.where(
        np.arange(np.shape(w)[-1]) == 1, 1.0 + 1e-12, 0.5),
}
CONSUMERS = {
    "evaluate": lambda solve: benchmark.evaluate(
        benchmark.make_test_set(SystemParams(), 3, 4, 0), solve),
    "evaluate-reference": lambda solve: benchmark.evaluate(
        benchmark.make_test_set(SystemParams(), 3, 4, 0),
        benchmark.fplinq_point_solver(5), solve),
    "dpp_run": lambda solve: scheduling.dpp_run(
        NET, solve, scheduling.UtilitySpec("proportional", 10.0),
        t_total=4, t_avg=2),
}


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize("output", BAD_OUTPUTS)
def test_bad_solver_output_raises_value_error(consumer, output):
    with pytest.raises(ValueError, match="solver output must"):
        CONSUMERS[consumer](BAD_OUTPUTS[output])


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_library_solvers_pass_the_output_check(consumer):
    for solve in (benchmark.fplinq_point_solver(5),
                  benchmark.schedule_point_solver(solver.viva_defaults(3)),
                  scheduling.luva_solver(solver.viva_defaults(3))):
        CONSUMERS[consumer](solve)


# Accept sets of the range checks routed through _finite_array and _real:
# each check accepts exactly the probes it names and rejects every other one
# with ValueError. Grid settings also get a bool and a string; an "empty"
# grid setting is an empty grid.
EMPTY = np.empty(0)
PROBES = {"0.0": 0.0, "-0.0": -0.0, "5e-324": 5e-324, "1.0": 1.0,
          "1+2**-52": 1.0 + 2.0 ** -52, "inf": INF, "-inf": -INF,
          "nan": NAN, "empty": EMPTY}
GRID_PROBES = {**PROBES, "True": True, "'3'": "3"}
POSITIVE = {"5e-324", "1.0", "1+2**-52"}


def _filled(value, shape):
    return value if value is EMPTY else np.full(shape, value)


def _pathloss(value):
    with np.errstate(divide="ignore"):  # 5e-324 / r_bp rounds to 0: -inf dB
        return netgen.pathloss_db(value, SystemParams())


def _sweep(axis):
    return lambda v: benchmark.sweep_generalization(
        solver.viva_defaults(2), axis, [] if v is EMPTY else [v],
        SystemParams(), 3, count=1)


ACCEPTS = [  # (check, call(probe), probes, the labels it accepts)
    ("aux_maxmin-u",
     lambda v: scheduling.aux_maxmin(W, 1.0, _filled(v, 3)), PROBES, POSITIVE),
    *[(f"utility_value-{kind}-u",
       lambda v, kind=kind: scheduling.utility_value(
           scheduling.UtilitySpec(kind, 1.0), np.zeros(3), _filled(v, 3)),
       PROBES, POSITIVE)
      for kind in scheduling.UTILITIES],
    ("NetworkInstance-gains",
     lambda v: _instance(gain=_filled(v, (1, 1))), PROBES, POSITIVE),
    ("pathloss_db-d_m", _pathloss, PROBES, POSITIVE),
    ("solver-output", lambda v: scheduling.dpp_run(
        NET, lambda net, w: _filled(v, 3),
        scheduling.UtilitySpec("proportional", 10.0), t_total=1, t_avg=1),
     PROBES, {"0.0", "-0.0", "5e-324", "1.0"}),
    ("grid-k_fixed_area", _sweep("k_fixed_area"), GRID_PROBES,
     {"1.0", "empty"}),
    ("grid-k_fixed_density", _sweep("k_fixed_density"), GRID_PROBES,
     POSITIVE | {"empty"}),
    ("grid-snr_offset", _sweep("snr_offset"), GRID_PROBES,
     POSITIVE | {"0.0", "-0.0", "empty"}),
    ("grid-d_min", _sweep("d_min"), GRID_PROBES, POSITIVE | {"empty"}),
    ("grid-d_max", _sweep("d_max"), GRID_PROBES, {"empty"}),
]


def _accepts(call, value):
    try:
        call(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("call, probes, accepted",
                         [pytest.param(*row[1:], id=row[0])
                          for row in ACCEPTS])
def test_range_checks_accept_exactly_their_sets(call, probes, accepted):
    assert {label for label, value in probes.items()
            if _accepts(call, value)} == accepted
