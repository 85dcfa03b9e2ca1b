"""Evaluation harness: ratios, reports, CDFs, sweeps."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_net
from d2dpower import benchmark, netgen, rates, training
from d2dpower.benchmark import (cdf_points, evaluate,
                                fplinq_point_solver, make_test_set,
                                report_to_csv, schedule_point_solver,
                                sweep_generalization, sweep_to_csv)
from d2dpower.fplinq import fplinq
from d2dpower.rates import weighted_sum_rate
from d2dpower.solver import StepSchedule, run, viva_defaults

P = netgen.SystemParams()


def test_performance_ratio_hand_case():
    net = toy_net([[4.0]], noise=1.0)

    def constant(value):
        return lambda nets, ws: np.full(ws.shape, value)

    # wsr(x=1) = ln 5, wsr(x=0.25) = ln 2
    ratio = np.log(2.0) / np.log(5.0)
    rep = evaluate([(net, np.ones(1))], constant(0.25), constant(1.0))
    assert rep.skipped == 0
    assert rep.ratios.tolist() == pytest.approx([ratio], rel=1e-14)
    # a zero reference sum-rate is skipped and counted, not divided by
    pair = [(net, np.ones(1)), (net, np.ones(1))]
    rep = evaluate(pair, constant(0.25),
                   lambda nets, ws: np.array([[0.0], [1.0]]))
    assert rep.skipped == 1
    assert rep.ratios.tolist() == pytest.approx([ratio], rel=1e-14)
    with pytest.raises(ValueError, match="every instance was skipped"):
        evaluate(pair, constant(0.25), constant(0.0))
    with pytest.raises(ValueError, match="test set is empty"):
        evaluate([], constant(0.25), constant(1.0))


def test_make_test_set_deterministic():
    a = make_test_set(P, 5, 4, seed=11)
    b = make_test_set(P, 5, 4, seed=11)
    c = make_test_set(P, 5, 4, seed=12)
    assert len(a) == 4
    for (na, wa), (nb, wb) in zip(a, b):
        assert np.array_equal(na.gain, nb.gain)
        assert np.array_equal(wa, wb)
    assert not np.array_equal(a[0][1], c[0][1])
    ones = make_test_set(P, 5, 4, seed=11, weight_dist="all_ones")
    assert np.array_equal(ones[0][1], np.ones(5))
    # same geometry stream regardless of the weight draw
    assert np.array_equal(ones[0][0].gain, a[0][0].gain)


def test_make_test_set_takes_every_seed_sample_instances_takes():
    # oracle: weights drawn from the entropy (seed, 0xA11) for an int seed
    # and tuple(seed) + (0xA11,) for a tuple
    def weights(seed):
        return np.array([w for _, w in make_test_set(P, 5, 3, seed)])

    def expected_weights(seed):
        rng = np.random.default_rng((seed, 0xA11) if isinstance(seed, int)
                                    else tuple(seed) + (0xA11,))
        return training.sample_weights(rng, 3, 5, "uniform01")

    for seed in (0, 3, 2**40, (3,), (3, 1), (2**33, 0)):
        assert np.array_equal(weights(seed), expected_weights(seed))
    # numpy integers, alone or in a sequence, give the same pairs as ints
    for seed, same in ((np.int64(3), 3), (np.uint8(3), 3),
                       ((np.int64(3), np.int32(1)), (3, 1)),
                       (np.array([3, 1]), (3, 1)), ([3, 1], (3, 1))):
        for (na, wa), (nb, wb) in zip(make_test_set(P, 5, 3, seed),
                                      make_test_set(P, 5, 3, same)):
            assert np.array_equal(na.gain, nb.gain)
            assert np.array_equal(wa, wb)


def test_evaluate_self_ratio_is_one():
    test = make_test_set(P, 4, 6, seed=0)
    solver = fplinq_point_solver(50)
    rep = evaluate(test, solver, solver)
    assert np.all(rep.ratios == 1.0)
    assert rep.mean == 1.0
    assert rep.std == 0.0
    assert rep.frac_at_least_one == 1.0
    assert rep.skipped == 0


def test_evaluate_runs_each_solver_once_per_instance(monkeypatch):
    # blocks of at most two K=3 networks (and one K=4 network) by size, and
    # a new block wherever K changes
    monkeypatch.setattr(benchmark, "BLOCK_BYTES", 16 * 3 * 3 * 2)
    test = make_test_set(P, 3, 5, seed=1) + make_test_set(P, 4, 2, seed=2)
    seen = {"a": [], "b": []}

    def solver(name, value):
        def solve(nets, ws):
            assert ws.shape == (len(nets), nets[0].k_links)
            seen[name].append([id(net) for net in nets])
            return np.full(ws.shape, value)
        return solve

    rep = evaluate(test, solver("a", 1.0), solver("b", 0.5))
    blocks = [[id(net) for net, _ in test[i:j]]
              for i, j in ((0, 2), (2, 4), (4, 5), (5, 6), (6, 7))]
    assert seen == {"a": blocks, "b": blocks}
    assert rep.ratios.shape == (7,) and rep.skipped == 0


def test_evaluate_stacks_each_block_once(monkeypatch):
    # three blocks of two K = 10 networks: evaluate and both solvers read
    # one S per block, which the block holds, not its networks
    monkeypatch.setattr(benchmark, "BLOCK_BYTES", 16 * 10 * 10 * 2)
    test = make_test_set(P, 10, 6, seed=4)
    calls = []

    def counted(gain, stack=rates.stacked_gain):
        calls.append(np.shape(gain))
        return stack(gain)

    monkeypatch.setattr(rates, "stacked_gain", counted)
    evaluate(test, schedule_point_solver(viva_defaults(3)),
             fplinq_point_solver(10))
    assert calls == [(2, 10, 10)] * 3
    assert not any("_prepared" in vars(net) for net, _ in test)


def test_evaluate_rejects_per_network_solver_output():
    test = make_test_set(P, 3, 4, seed=1)
    with pytest.raises(ValueError):
        evaluate(test, lambda nets, ws: np.ones(3))


@pytest.mark.parametrize("k", [1, 3, 10, 60])
def test_block_evaluate_matches_per_network_loop(monkeypatch, k):
    # blocks of 3 over 7 instances; instance 4's reference is all zero
    monkeypatch.setattr(benchmark, "BLOCK_BYTES", 16 * k * k * 3)
    test = make_test_set(P, k, 7, seed=k)
    zero_net = test[4][0]
    sched = StepSchedule([-0.2, 0.02, 0.08, -0.06], [0.38, 0.02, 0.23, 0.04],
                         [0.07, 0.03, 0.23, -0.08])

    def reference(nets, ws):
        x = fplinq(nets, ws, 100)
        x[[net is zero_net for net in nets]] = 0.0
        return x

    rep = evaluate(test, schedule_point_solver(sched), reference)
    ratios, skipped = [], 0
    for net, w in test:
        x_a, _ = run(net, w, sched, keep_trace=False)
        x_b = np.zeros(k) if net is zero_net else fplinq(net, w, 100)
        ref = weighted_sum_rate(x_b, w, net)
        if ref == 0.0:
            skipped += 1
        else:
            ratios.append(weighted_sum_rate(x_a, w, net) / ref)
    assert rep.skipped == skipped == 1
    assert np.allclose(rep.ratios, ratios, rtol=1e-12, atol=0.0)


def test_evaluate_against_trained_style_solver():
    test = make_test_set(P, 5, 10, seed=3)
    rep = evaluate(test, schedule_point_solver(viva_defaults(10)))
    assert rep.ratios.shape == (10,)
    assert 0.0 < rep.mean < 2.0


def test_cdf_points_oracles():
    v, f = cdf_points([3.0])
    assert v.tolist() == [3.0] and f.tolist() == [1.0]
    v, f = cdf_points([1.0, 1.0, 2.0])
    assert v.tolist() == [1.0, 2.0]
    assert f == pytest.approx([2.0 / 3.0, 1.0])
    with pytest.raises(ValueError):
        cdf_points([])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=40))
def test_cdf_points_monotone_with_unit_mass(vals):
    v, f = cdf_points(vals)
    assert np.all(np.diff(v) > 0.0)
    assert np.all(np.diff(f) > 0.0)
    assert f[-1] == pytest.approx(1.0, rel=1e-12)
    assert f[0] > 0.0


def test_report_csv_values_roundtrip(tmp_path):
    test = make_test_set(P, 4, 5, seed=2)
    rep = evaluate(test, schedule_point_solver(viva_defaults(5)))
    path = tmp_path / "report.csv"
    report_to_csv(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "ratio"]
    for i in range(5):
        assert float(rows[1 + i][1]) == rep.ratios[i]
    tail = {row[0]: row[1] for row in rows[6:]}
    assert float(tail["mean"]) == rep.mean
    assert int(tail["skipped"]) == rep.skipped


def test_sweep_point_matches_direct_evaluation():
    # grid point i re-derives its test set from seed (seed, i)
    sched = viva_defaults(5)
    pts = sweep_generalization(sched, "k_fixed_area", [4, 6], P, 10,
                               count=5, seed=42)
    assert [pt.k for pt in pts] == [4, 6]
    direct = evaluate(make_test_set(P, 6, 5, (42, 1)),
                      schedule_point_solver(sched), fplinq_point_solver(100))
    assert pts[1].mean_ratio == direct.mean
    assert pts[1].std_ratio == direct.std


def test_sweep_fixed_density_link_counts():
    # halving the side at 50 base links keeps density: 50/4 rounds to 13
    sched = viva_defaults(3)
    pts = sweep_generalization(sched, "k_fixed_density", [250.0, 500.0], P,
                               50, count=2, seed=0)
    assert pts[0].k == 13
    assert pts[1].k == 50
    small = sweep_generalization(sched, "k_fixed_density", [50.0], P, 50,
                                 count=2, seed=0)
    assert small[0].k == 1  # floor at one link


def test_sweep_snr_offset_shifts_power():
    sched = viva_defaults(3)
    pts = sweep_generalization(sched, "snr_offset", [0.0], P, 5, count=3,
                               seed=7)
    direct = evaluate(make_test_set(P, 5, 3, (7, 0)),
                      schedule_point_solver(sched), fplinq_point_solver(100))
    assert pts[0].mean_ratio == direct.mean


def test_sweep_degenerate_distance_grid_end():
    # d_min pushed to the top of the range still yields finite ratios
    sched = viva_defaults(3)
    pts = sweep_generalization(sched, "d_min", [60.0], P, 4, count=3, seed=1)
    assert np.isfinite(pts[0].mean_ratio)
    pts = sweep_generalization(sched, "d_max", [2.5], P, 4, count=3, seed=1)
    assert np.isfinite(pts[0].mean_ratio)


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError):
        sweep_generalization(viva_defaults(2), "bandwidth", [1.0], P, 4,
                             count=1, seed=0)


def test_sweep_csv_format(tmp_path):
    pts = sweep_generalization(viva_defaults(2), "k_fixed_area", [3], P, 3,
                               count=2, seed=0)
    path = tmp_path / "sweep.csv"
    sweep_to_csv(pts, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["axis", "setting", "k", "mean_ratio", "std_ratio",
                       "count", "skipped"]
    assert rows[1][0] == "k_fixed_area"
    assert float(rows[1][3]) == pts[0].mean_ratio
    # ints stay ints: k, count, skipped
    assert [rows[1][i] for i in (2, 5, 6)] == ["3", "2", "0"]
