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
    ("sample_instances", "k",
     lambda v, tmp: netgen.sample_instances(SystemParams(), v, 1, 0),
     COUNT + (0,)),
    ("sample_instances", "count",
     lambda v, tmp: netgen.sample_instances(SystemParams(), 3, v, 0),
     COUNT + (-1,)),
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
    ("dpp_run", "t_total", lambda v, tmp: _dpp(t_total=v), COUNT + (0,)),
    ("dpp_run", "t_avg", lambda v, tmp: _dpp(t_avg=v), COUNT + (0, 5)),
    ("cdf_points", "values", lambda v, tmp: benchmark.cdf_points(v),
     ([NAN, 1.0], [-INF], [])),
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
