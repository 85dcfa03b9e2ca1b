"""Fairness scheduler: queues, auxiliary closed forms, DPP runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_net
from d2dpower import benchmark, netgen, scheduling
from d2dpower.rates import rate_vector, utopian_point
from d2dpower.scheduling import (UtilitySpec, aux_maxmin, aux_proportional,
                                 dpp_run, fplinq_solver, geometric_mean,
                                 luva_solver, queue_update, utility_value)
from d2dpower.fplinq import fplinq
from d2dpower.solver import run, viva_defaults

P = netgen.SystemParams()

nonneg = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


def test_queue_update_hand_case():
    q = queue_update([2.0, 1.0], [1.5, 3.0], [0.5, 1.0])
    assert np.array_equal(q, [1.0, 1.0])


def test_queue_update_rejects_negative():
    with pytest.raises(ValueError):
        queue_update([-1.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        queue_update([1.0], [-0.1], [0.0])
    with pytest.raises(ValueError):
        queue_update([1.0], [0.0], [-0.1])
    # NaN and inf fail loudly too, in any argument
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            queue_update(np.ones(3), [bad, 0.5, 0.2], [0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            queue_update([1.0, bad], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            queue_update([1.0], [0.0], [bad])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(nonneg, nonneg, nonneg), min_size=1, max_size=6))
def test_queue_update_bounds(rows):
    q, r, a = (np.array(col) for col in zip(*rows))
    out = queue_update(q, r, a)
    assert np.all(out >= a)  # arrivals always enqueue
    assert np.all(out >= q - r + a - 1e-9)  # service is at most r
    assert np.all(out >= 0.0)


def test_aux_proportional_closed_form():
    a = aux_proportional([2.0, 0.5, 0.0], v=1.0, a_max=1.5)
    assert a == pytest.approx([0.5, 1.5, 1.5])
    with pytest.raises(ValueError):
        aux_proportional([1.0], v=1.0, a_max=0.0)
    with pytest.raises(ValueError):
        aux_proportional([1.0], v=-1.0, a_max=1.0)
    for q in ([np.nan, 1.0], [np.inf, 1.0], [-1.0, 1.0]):
        with pytest.raises(ValueError):
            aux_proportional(q, v=10.0, a_max=5.0)


def test_aux_proportional_against_grid_oracle():
    # per-coordinate objective v ln(a) - q a maximized over (0, a_max]
    rng = np.random.default_rng(0)
    a_max = 5.0
    grid = np.arange(1e-4, a_max + 1e-4, 1e-4)
    for _ in range(40):
        q = rng.uniform(0.0, 3.0, size=4)
        v = rng.uniform(0.0, 20.0)
        a = aux_proportional(q, v, a_max)
        for i in range(4):
            with np.errstate(divide="ignore"):
                obj = v * np.log(grid) - q[i] * grid
            best = grid[np.argmax(obj)]
            assert abs(a[i] - best) <= 1e-4  # within one grid cell


def test_aux_maxmin_bang_bang():
    u = np.array([1.0, 2.0, 0.5])
    on = aux_maxmin([0.1, 0.1, 0.1], v=10.0, u=u)
    assert np.array_equal(on, u)
    off = aux_maxmin([10.0, 10.0, 10.0], v=1.0, u=u)
    assert np.array_equal(off, np.zeros(3))
    # tie goes to u
    q = np.array([1.0, 1.0, 1.0])
    assert np.array_equal(aux_maxmin(q, v=float(q @ u), u=u), u)
    with pytest.raises(ValueError):
        aux_maxmin(q, v=1.0, u=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        aux_maxmin(q, v=1.0, u=np.array([1.0, np.nan, 1.0]))
    for bad in ([np.nan, 1.0, 1.0], [1.0, np.inf, 1.0], [-1.0, 1.0, 1.0]):
        with pytest.raises(ValueError):
            aux_maxmin(bad, v=1.0, u=u)


def test_aux_maxmin_against_scan_oracle():
    # optimum lies on the ray a = s u; scan s
    rng = np.random.default_rng(1)
    u = np.array([1.0, 2.0, 0.5])
    ss = np.linspace(0.0, 1.0, 1001)
    for _ in range(100):
        q = rng.uniform(0.0, 2.0, size=3)
        v = rng.uniform(0.0, 8.0)
        if abs(v - float(q @ u)) < 1e-9:
            continue  # ties are resolved by convention, not by the scan
        obj = v * ss - float(q @ u) * ss
        expect = u * ss[np.argmax(obj)]
        assert np.array_equal(aux_maxmin(q, v, u), expect)


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0, rel=1e-14)
    assert geometric_mean([3.0]) == pytest.approx(3.0, rel=1e-14)
    assert geometric_mean([1.0, 0.0, 5.0]) == 0.0
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="values"):
            geometric_mean([bad, 1.0])


def test_empty_inputs_name_the_argument():
    with pytest.raises(ValueError, match="values must not be empty"):
        geometric_mean([])
    with pytest.raises(ValueError, match="queues must not be empty"):
        queue_update([], [], [])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1,
                max_size=8))
def test_geometric_mean_between_min_and_max(vals):
    gm = geometric_mean(vals)
    assert min(vals) * (1 - 1e-9) <= gm <= max(vals) * (1 + 1e-9)


def test_utility_value():
    u = np.array([1.0, 2.0])
    pf = UtilitySpec("proportional", 10.0)
    assert utility_value(pf, [np.e, np.e ** 2], u) == pytest.approx(3.0)
    assert utility_value(pf, [0.0, 1.0], u) == -np.inf
    mm = UtilitySpec("maxmin", 40.0)
    assert utility_value(mm, [0.5, 0.5], u) == pytest.approx(0.25)
    for util in (pf, mm):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="throughput"):
                utility_value(util, [bad, 1.0], u)


def test_utility_spec_validation():
    with pytest.raises(ValueError):
        UtilitySpec("harmonic", 1.0)
    with pytest.raises(ValueError):
        UtilitySpec("proportional", -1.0)


def test_solver_callables_flag_normalization():
    # LUVA sees the queues divided by their max, FPLinQ the raw queues
    net = netgen.sample_layout(P, 5, seed=4)
    sched = viva_defaults(3)
    for q in (np.array([3.0, 0.5, 7.25, 0.0, 1.0]), np.full(5, 0.2)):
        x = luva_solver(sched)(net, q)
        assert np.array_equal(
            x, run(net, q / q.max(), sched, keep_trace=False)[0])
        assert not np.array_equal(
            x, run(net, q, sched, keep_trace=False)[0])
        assert np.array_equal(fplinq_solver(10)(net, q), fplinq(net, q, 10))
    # in a block, each network's queues are divided by their own max
    nets = [net, netgen.sample_layout(P, 5, seed=5)]
    qs = np.stack([q, 4.0 * q])
    assert np.array_equal(
        luva_solver(sched)(nets, qs),
        run(nets, np.stack([q, q]) / q.max(), sched, keep_trace=False)[0])
    assert fplinq_solver is benchmark.fplinq_point_solver


@pytest.mark.filterwarnings("error")
def test_luva_solver_rejects_queues_without_a_positive_entry():
    # all-zero queues have no max to scale by; no 0 / 0 warning first
    net = netgen.sample_layout(P, 3, seed=4)
    solve = luva_solver(viva_defaults(2))
    for q in (np.zeros(3), -np.ones(3)):
        with pytest.raises(ValueError, match="queues"):
            solve(net, q)
    with pytest.raises(ValueError, match="queues"):
        solve([net, net], np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))


def test_dpp_run_shapes_and_bookkeeping():
    net = netgen.sample_layout(P, 4, seed=3)
    res = dpp_run(net, fplinq_solver(20), UtilitySpec("proportional", 10.0),
                  t_total=50, t_avg=20)
    assert res.q_trace.shape == (51, 4)
    assert res.rate_trace.shape == (50, 4)
    assert np.array_equal(res.q_trace[0], np.ones(4))
    assert res.a_max == pytest.approx(float(np.max(utopian_point(net))))
    assert np.allclose(res.throughput, res.rate_trace[30:].mean(axis=0))
    assert res.utility == pytest.approx(
        utility_value(UtilitySpec("proportional", 10.0), res.throughput,
                      utopian_point(net)))
    with pytest.raises(ValueError):
        dpp_run(net, fplinq_solver(20), UtilitySpec("proportional", 10.0),
                t_total=10, t_avg=11)


def test_dpp_run_deterministic():
    net = netgen.sample_layout(P, 3, seed=8)
    util = UtilitySpec("proportional", 10.0)
    r1 = dpp_run(net, fplinq_solver(30), util, t_total=40, t_avg=10)
    r2 = dpp_run(net, fplinq_solver(30), util, t_total=40, t_avg=10)
    assert np.array_equal(r1.rate_trace, r2.rate_trace)
    assert r1.utility == r2.utility


def test_dpp_symmetric_links_get_equal_throughput():
    # two far-apart identical links: fairness must not break the symmetry
    gain = np.array([[2e-6, 1e-8], [1e-8, 2e-6]])
    net = toy_net(gain, noise=8e-11)
    res = dpp_run(net, fplinq_solver(100), UtilitySpec("proportional", 10.0))
    assert res.throughput[0] == pytest.approx(res.throughput[1], rel=1e-9)
    assert np.all(res.throughput > 0.0)


def test_dpp_queues_stay_bounded():
    for seed in range(3):
        net = netgen.sample_layout(P, 5, seed=seed)
        res = dpp_run(net, fplinq_solver(100),
                      UtilitySpec("proportional", 10.0),
                      t_total=400, t_avg=200)
        assert np.max(res.q_trace[-1]) / 400.0 <= 0.1 * res.a_max


def test_dpp_maxmin_equalizes_normalized_throughput():
    net = netgen.sample_layout(P, 4, seed=12)
    res = dpp_run(net, fplinq_solver(100), UtilitySpec("maxmin", 40.0),
                  t_total=600, t_avg=300)
    ratios = res.throughput / utopian_point(net)
    # spread of the equalized ratios stays well under their level
    assert np.max(ratios) - np.min(ratios) < 0.5 * np.max(ratios)


def test_dpp_larger_v_buys_more_utility():
    # the V = 160 endpoint must beat V = 10; intermediate points may
    # saturate so no full-grid monotonicity is claimed
    vals = {}
    for v in (10.0, 160.0):
        med = []
        for i in range(20):
            net = netgen.sample_layout(P, 5, seed=51_000 + i)
            r = dpp_run(net, fplinq_solver(100),
                        UtilitySpec("proportional", v),
                        t_total=400, t_avg=200)
            med.append(r.utility)
        vals[v] = float(np.median(med))
    assert vals[160.0] > vals[10.0]


def test_dpp_proportional_beats_constant_weights_gm():
    # the fairness loop should lift the geometric mean over one-shot WSR
    # with uniform weights on most networks
    from d2dpower.fplinq import fplinq
    util = UtilitySpec("proportional", 10.0)
    wins = 0
    for i in range(12):
        net = netgen.sample_layout(P, 5, seed=61_000 + i)
        res = dpp_run(net, fplinq_solver(100), util)
        xc = fplinq(net, np.ones(5), 100)
        gm_const = geometric_mean(rate_vector(xc, net))
        wins += geometric_mean(res.throughput) >= gm_const
    assert wins >= 8
