"""Command-line interface: subcommands, file outputs, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from d2dpower import cli, netgen, training
from d2dpower.solver import load_schedule

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def layout_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("layouts")
    rc = run_cli("generate", "--k", 5, "--count", 2, "--seed", 3,
                 "--out", out)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def tiny_schedule(tmp_path_factory):
    out = tmp_path_factory.mktemp("train") / "sched.json"
    rc = run_cli("train", "--k", 3, "--layers", 2, "--n-train", 3,
                 "--max-iter", 10, "--validation-size", 5, "--seed", 1,
                 "--out", out)
    assert rc == 0
    return out


def test_generate_writes_layouts(layout_dir):
    files = sorted(layout_dir.iterdir())
    assert [f.name for f in files] == ["layout_000003.json",
                                       "layout_000004.json"]
    net, params = netgen.load_layout(files[0])
    assert net.k_links == 5
    assert net.seed == 3
    assert params == netgen.SystemParams()


def test_generate_respects_config(tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"d_max_m": 30.0, "area_side_m": 200.0}))
    rc = run_cli("generate", "--k", 4, "--count", 1, "--seed", 0,
                 "--config", cfg, "--out", tmp_path / "nets")
    assert rc == 0
    net, params = netgen.load_layout(tmp_path / "nets" / "layout_000000.json")
    assert params.d_max_m == 30.0
    assert params.area_side_m == 200.0
    d = np.linalg.norm(net.rx_pos - net.tx_pos, axis=1)
    assert np.all(d <= 30.0)


def test_load_params_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bandwidth": 1.0}))
    with pytest.raises(ValueError):
        cli.load_params(cfg)


def _infinite_config(tmp_path):
    cfg = tmp_path / "inf.json"
    cfg.write_text('{"carrier_hz": Infinity}')
    return cfg


def test_load_params_rejects_nonfinite_values(tmp_path):
    with pytest.raises(ValueError, match="carrier_hz"):
        cli.load_params(_infinite_config(tmp_path))


def _read_alloc(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["link", "power"]
    assert rows[-1][0] == "wsr"
    return [float(r[1]) for r in rows[1:-1]], float(rows[-1][1])


def test_one_shot_solvers(layout_dir, tiny_schedule, tmp_path):
    layout = layout_dir / "layout_000003.json"
    for args, name in (
            (("viva", "--iters", 10), "viva.csv"),
            (("fplinq", "--iters", 50), "fplinq.csv"),
            (("luva", "--params-file", tiny_schedule), "luva.csv"),
    ):
        out = tmp_path / name
        rc = run_cli(*args, "--layout", layout, "--weights", "uniform",
                     "--seed", 5, "--out", out)
        assert rc == 0
        powers, wsr = _read_alloc(out)
        assert len(powers) == 5
        assert all(0.0 <= p <= 1.0 for p in powers)
        assert wsr > 0.0


def test_train_outputs(tmp_path):
    sched_path = tmp_path / "s.json"
    rc = run_cli("train", "--k", 3, "--layers", 1, "--n-train", 2,
                 "--max-iter", 6, "--validation-size", 4, "--seed", 2,
                 "--out", sched_path)
    assert rc == 0
    sched = load_schedule(sched_path)
    assert sched.n_layers == 1
    assert sched.metadata["seed"] == 2


def test_history_csv_roundtrip(tmp_path):
    path = tmp_path / "history.csv"
    rc = run_cli("train", "--k", 2, "--layers", 1, "--n-train", 2,
                 "--max-iter", 4, "--validation-size", 3, "--seed", 1,
                 "--history", path, "--out", tmp_path / "s.json")
    assert rc == 0
    cfg = training.TrainConfig(n_layers=1, n_train=2, max_iter=4,
                               validation_size=3, seed=1)
    _, hist = training.train_layerwise(cfg, netgen.SystemParams(),
                                       k_links=2)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["stage", "iteration", "val_mean_wsr"]
    assert len(rows) == len(hist) + 1
    for row, rec in zip(rows[1:], hist):
        assert row[0] == rec.stage
        assert int(row[1]) == rec.iteration
        assert float(row[2]) == rec.val_mean_wsr  # repr round-trips


def test_evaluate_and_rerun_byte_identical(tiny_schedule, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = run_cli("evaluate", "--params-file", tiny_schedule, "--k", 3,
                     "--count", 6, "--seed", 9, "--out", out)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    with open(a, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "ratio"]
    assert len(rows) == 1 + 6 + 4  # header, instances, summary


def test_sweep_accepts_negative_grid(tiny_schedule, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli("sweep", "--params-file", tiny_schedule, "--axis",
                 "snr_offset", "--grid=-5,0", "--k", 3, "--count", 2,
                 "--seed", 1, "--out", out)
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert float(rows[1][1]) == -5.0
    assert float(rows[2][1]) == 0.0


def test_schedule_subcommand(layout_dir, tmp_path):
    out = tmp_path / "dpp.csv"
    layouts = sorted(layout_dir.iterdir())
    rc = run_cli("schedule", "--layout", *layouts, "--solver", "fplinq",
                 "--utility", "proportional", "--v", 10, "--slots", 30,
                 "--avg", 10, "--out", out)
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["network", "utility", "gm", "r_0", "r_1", "r_2",
                       "r_3", "r_4"]
    assert len(rows) == 3
    assert rows[1][0] == "layout_000003.json"


def test_schedule_luva_requires_params_file(layout_dir, capsys):
    layout = layout_dir / "layout_000003.json"
    rc = run_cli("schedule", "--layout", layout, "--solver", "luva",
                 "--utility", "proportional", "--out", "/dev/null")
    assert rc == 2
    assert "params-file" in capsys.readouterr().err


def test_schedule_rejects_layouts_of_mixed_k(tmp_path, capsys):
    for k in (3, 5):
        assert run_cli("generate", "--k", k, "--seed", k,
                       "--out", tmp_path) == 0
    out = tmp_path / "dpp.csv"
    rc = run_cli("schedule", "--layout", *sorted(tmp_path.glob("*.json")),
                 "--solver", "fplinq", "--utility", "proportional",
                 "--slots", 5, "--avg", 2, "--out", out)
    assert rc == 2
    assert "one K" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        run_cli("frobnicate")


# Bad input of each kind, as argv with {tmp}, {layout}, {k3} and {sched}
# standing for paths, and a word the one stderr line must contain.
BAD_INPUTS = {
    "infinite-config": (
        ["generate", "--config", "{tmp}/inf.json", "--out", "{tmp}/nets"],
        "carrier_hz"),
    "missing-params-file": (
        ["evaluate", "--params-file", "{tmp}/nope.json",
         "--out", "{tmp}/r.csv"], "nope.json"),
    "mixed-k": (
        ["schedule", "--layout", "{layout}", "{k3}", "--solver", "fplinq",
         "--utility", "proportional", "--out", "{tmp}/d.csv"], "one K"),
    "luva-without-params-file": (
        ["schedule", "--layout", "{layout}", "--solver", "luva",
         "--utility", "proportional", "--out", "{tmp}/d.csv"],
        "params-file"),
    "empty-test-set": (
        ["evaluate", "--params-file", "{sched}", "--count", "0",
         "--out", "{tmp}/r.csv"], "test set is empty"),
    "layout-as-schedule": (
        ["evaluate", "--params-file", "{layout}", "--out", "{tmp}/r.csv"],
        "alpha1"),
    "schedule-not-an-object": (
        ["evaluate", "--params-file", "{tmp}/list1.json",
         "--out", "{tmp}/r.csv"], "JSON object"),
    "layout-without-noise": (
        ["schedule", "--layout", "{tmp}/no_noise.json", "--solver", "fplinq",
         "--utility", "proportional", "--out", "{tmp}/d.csv"],
        "noise_power"),
    "config-field-not-a-number": (
        ["generate", "--config", "{tmp}/abc.json", "--out", "{tmp}/nets"],
        "bandwidth_hz"),
    "config-not-an-object": (
        ["generate", "--config", "{tmp}/list2.json", "--out", "{tmp}/nets"],
        "JSON object"),
    "config-int-beyond-float": (
        ["generate", "--config", "{tmp}/huge.json", "--out", "{tmp}/nets"],
        "bandwidth_hz"),
    "layout-params-not-an-object": (
        ["fplinq", "--layout", "{tmp}/params_list.json"], "[1]: not an"),
    "layout-param-unknown": (
        ["fplinq", "--layout", "{tmp}/params_foo.json"], "foo"),
    "layout-k-null": (
        ["fplinq", "--layout", "{tmp}/k_null.json"], "k must be an integer"),
    "train-degenerate-config": (
        ["train", "--config", "{tmp}/silent.json", "--layers", "1",
         "--max-iter", "1", "--n-train", "2", "--validation-size", "2",
         "--out", "{tmp}/s.json"], "degenerate"),
    "train-infinite-gains-config": (
        ["train", "--config", "{tmp}/loud.json", "--layers", "1",
         "--max-iter", "1", "--n-train", "2", "--validation-size", "2",
         "--out", "{tmp}/s.json"], "degenerate"),
    "layout-noise-null": (
        ["fplinq", "--layout", "{tmp}/noise_null.json"], "noise_power"),
    "generate-negative-count": (
        ["generate", "--count", "-1", "--out", "{tmp}/nets"], "--count"),
    "schedule-n-layers-null": (
        ["evaluate", "--params-file", "{tmp}/n_layers_null.json",
         "--out", "{tmp}/r.csv"], "n_layers"),
}


def _malformed_files(tmp_path, layout) -> None:
    """The malformed inputs BAD_INPUTS names, written under tmp_path."""
    _infinite_config(tmp_path)
    (tmp_path / "list1.json").write_text("[1]")
    (tmp_path / "list2.json").write_text("[1, 2]")
    (tmp_path / "abc.json").write_text('{"bandwidth_hz": "abc"}')
    (tmp_path / "huge.json").write_text('{"bandwidth_hz": 1%s}' % ("0" * 400))
    (tmp_path / "silent.json").write_text('{"tx_power_dbm": -3300}')
    (tmp_path / "loud.json").write_text('{"tx_power_dbm": 3300}')
    (tmp_path / "n_layers_null.json").write_text(json.dumps(
        {"n_layers": None, "alpha1": [0.1], "alpha2": [0.1],
         "alpha3": [0.1]}))
    doc = json.loads(layout.read_text())
    for name, key, value in (("params_list", "params", [1]),
                             ("params_foo", "params", {"foo": 1}),
                             ("k_null", "k", None),
                             ("noise_null", "noise_power", None)):
        (tmp_path / f"{name}.json").write_text(json.dumps({**doc, key: value}))
    del doc["noise_power"]
    (tmp_path / "no_noise.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2_with_one_line(case, layout_dir, tiny_schedule,
                                         tmp_path, capsys):
    _malformed_files(tmp_path, layout_dir / "layout_000003.json")
    assert run_cli("generate", "--k", 3, "--seed", 9, "--out", tmp_path) == 0
    paths = {"tmp": tmp_path, "layout": layout_dir / "layout_000003.json",
             "k3": tmp_path / "layout_000009.json", "sched": tiny_schedule}
    argv, word = BAD_INPUTS[case]
    capsys.readouterr()
    assert run_cli(*(a.format(**paths) for a in argv)) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"d2dpower {argv[0]}: ")
    assert out.err.count("\n") == 1 and out.err.endswith("\n")
    assert word in out.err and "Traceback" not in out.err


def test_options_a_subcommand_does_not_read_are_rejected():
    for argv in (["viva", "--layout", "x.json", "--config", "x.json"],
                 ["schedule", "--layout", "x.json", "--solver", "fplinq",
                  "--utility", "proportional", "--out", "x.csv",
                  "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


def test_entry_point_exits_2_on_bad_input(tmp_path):
    # a real process: numpy's warnings would reach stderr here, unlike in
    # the in-process BAD_INPUTS cases
    path = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    loud = tmp_path / "loud.json"  # every gain overflows to inf
    loud.write_text('{"tx_power_dbm": 3300}')
    steep = tmp_path / "steep.json"  # gain / noise overflows to inf
    steep.write_text(json.dumps(
        {"k": 1, "params": {}, "tx_pos": [[0, 0]], "rx_pos": [[1, 1]],
         "gain": [1e300], "noise_power": 1e-20}))
    train = ["train", "--layers", "1", "--max-iter", "1", "--n-train", "2",
             "--validation-size", "2", "--out", str(tmp_path / "s.json")]
    for argv in (["generate", "--config", str(_infinite_config(tmp_path)),
                  "--out", str(tmp_path / "nets")],
                 ["generate", "--config", str(loud),
                  "--out", str(tmp_path / "nets")],
                 [*train, "--config", str(loud)],
                 ["fplinq", "--layout", str(steep)]):
        proc = subprocess.run(
            [sys.executable, "-m", "d2dpower.cli", *argv],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr
