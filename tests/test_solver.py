"""Unrolled primal-dual solver: updates, traces, schedules."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_net
from d2dpower import netgen, rates
from d2dpower.fplinq import fplinq
from d2dpower.solver import (MODES, StepSchedule, load_schedule, run,
                             save_schedule, viva_defaults)

# Step sizes of the size and signs a trained 10-link schedule has.
TRAINED_LIKE = StepSchedule([-0.2, 0.02, 0.08, -0.06],
                            [0.38, 0.02, 0.23, 0.04],
                            [0.07, 0.03, 0.23, -0.08])


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule(np.ones(3), np.ones(2), np.ones(3), {})
    with pytest.raises(ValueError):
        StepSchedule(np.array([np.nan]), np.ones(1), np.ones(1), {})
    with pytest.raises(ValueError):
        viva_defaults(0)
    s = viva_defaults(4, constant=0.01)
    assert s.n_layers == 4
    assert np.all(s.alpha1 == 0.01)
    assert np.all(s.alpha2 == 0.01)
    assert np.all(s.alpha3 == 0.01)


def test_schedule_vector_roundtrip():
    s = StepSchedule(np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                     np.array([5.0, 6.0]), {"kind": "x"})
    v = s.to_vector()
    assert np.array_equal(v, [1, 2, 3, 4, 5, 6])
    back = StepSchedule.from_vector(v, metadata=s.metadata)
    assert np.array_equal(back.alpha2, s.alpha2)
    assert back.metadata == {"kind": "x"}
    with pytest.raises(ValueError):
        StepSchedule.from_vector(np.ones(4))


def test_run_start_state():
    net = toy_net([[4.0]], noise=1.0)
    _, trace = run(net, np.ones(1), viva_defaults(1))
    assert trace.t[0] == 0.0 and trace.lam[0] == 1.0
    assert np.all(trace.x[0] == 0.01)
    for x0 in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError):
            run(net, np.ones(1), viva_defaults(1), x0=x0)
        with pytest.raises(ValueError):
            run([net], np.ones((1, 1)), viva_defaults(1), x0=x0,
                keep_trace=False)


def test_single_link_saturates_to_full_power():
    # K = 1: WSR is increasing in x, so the optimum is x = 1. A grid scan
    # is the oracle; 300 constant-step layers reach it from x0 = 0.01.
    net = toy_net([[4.0]], noise=1.0)
    grid = np.linspace(0.0, 1.0, 1001)
    wsr = np.log1p(4.0 * grid)
    assert grid[np.argmax(wsr)] == 1.0
    x, _ = run(net, np.ones(1), viva_defaults(300), x0=0.01)
    assert x[0] == pytest.approx(1.0, abs=1e-9)


def _layer_oracle(t, x, lam, net, w, a1, a2, a3, mode):
    # One layer exactly as the module docstring writes it, with the
    # Jacobian and the rates from rates.py.
    u = rates.utopian_point(net)
    r = u / np.linalg.norm(u)
    t = t - a1 * (1.0 - lam * (w @ r))
    g = rates.rate_jacobian(x, net).T @ w
    step = a2 / np.linalg.norm(g) if mode == "normalized" else a2
    x = np.clip(x + step * lam * g, 0.0, 1.0)
    lam = lam - a3 * (w @ (-u + t * r + rates.rate_vector(x, net)))
    return t, x, max(0.0, lam) if mode == "normalized" else lam


def _trace_cases():
    # two hand-picked schedules on one K=5 layout, then 50 seeded K=10
    # draws under the committed trained schedule the benchmark runs
    p = netgen.SystemParams()
    net = netgen.sample_layout(p, 5, seed=2)
    w = np.random.default_rng(2).uniform(size=5)
    yield net, w, viva_defaults(8)
    yield net, w, TRAINED_LIKE
    luva = load_schedule(pathlib.Path(__file__).resolve().parents[1] /
                         "perfbench" / "data" / "luva_k10.json")
    rng = np.random.default_rng(50)
    for seed in range(50):
        yield netgen.sample_layout(p, 10, seed=seed), rng.uniform(size=10), luva


def test_run_trace_matches_layer_updates():
    for net, w, sched in _trace_cases():
        for mode in MODES:
            x, trace = run(net, w, sched, mode=mode)
            for k in range(sched.n_layers):
                t, xk, lam = _layer_oracle(
                    trace.t[k], trace.x[k], trace.lam[k], net, w,
                    sched.alpha1[k], sched.alpha2[k], sched.alpha3[k], mode)
                assert t == pytest.approx(trace.t[k + 1], rel=1e-12,
                                          abs=1e-15)
                assert np.allclose(xk, trace.x[k + 1], rtol=1e-12,
                                   atol=1e-15)
                assert lam == pytest.approx(trace.lam[k + 1], rel=1e-12,
                                            abs=1e-15)
            assert np.array_equal(x, trace.x[-1])


def test_trace_shapes_and_wsr_column():
    p = netgen.SystemParams()
    net = netgen.sample_layout(p, 4, seed=9)
    w = np.ones(4)
    x, trace = run(net, w, viva_defaults(6))
    assert trace.x.shape == (7, 4)
    assert trace.wsr.shape == (7,)
    for k in range(7):
        assert trace.wsr[k] == pytest.approx(
            rates.weighted_sum_rate(trace.x[k], w, net), rel=1e-12)
    xq, none_trace = run(net, w, viva_defaults(6), keep_trace=False)
    assert none_trace is None
    assert np.array_equal(x, xq)


def test_iterates_stay_in_box_and_cone():
    p = netgen.SystemParams()
    for seed in range(5):
        net = netgen.sample_layout(p, 10, seed=seed)
        w = np.random.default_rng(seed).uniform(size=10)
        _, trace = run(net, w, viva_defaults(30))
        assert np.all(trace.x >= 0.0) and np.all(trace.x <= 1.0)
        assert np.all(trace.lam >= 0.0)  # projection keeps lam feasible


def test_plain_mode_differs_and_skips_projection():
    p = netgen.SystemParams()
    net = netgen.sample_layout(p, 6, seed=13)
    w = np.random.default_rng(13).uniform(size=6)
    xn, tn = run(net, w, viva_defaults(20))
    xp, tp = run(net, w, viva_defaults(20), mode="plain")
    assert not np.array_equal(xn, xp)
    assert np.all(tp.x >= 0.0) and np.all(tp.x <= 1.0)  # clip still applies
    with pytest.raises(ValueError):
        run(net, w, viva_defaults(3), mode="bogus")


def test_zero_alpha2_freezes_powers():
    p = netgen.SystemParams()
    net = netgen.sample_layout(p, 4, seed=3)
    n = 5
    sched = StepSchedule(0.003 * np.ones(n), np.zeros(n), 0.003 * np.ones(n),
                         {})
    _, trace = run(net, np.ones(4), sched)
    assert np.all(trace.x == trace.x[0])


def test_run_rejects_non_finite_iterates():
    # an overflow-sized t step makes the multiplier infinite at layer 1,
    # for one network and for a block alike
    net = netgen.sample_layout(netgen.SystemParams(), 5, seed=4)
    sched = StepSchedule(np.full(3, -1e308), np.full(3, 0.003),
                         np.full(3, 0.003))
    with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match="non-finite iterate at layer 1"):
        run(net, np.ones(5), sched)
    with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match="non-finite iterate at layer 1"):
        run([net, net], np.ones((2, 5)), sched, keep_trace=False)


def test_normalized_step_size_is_gradient_free():
    # in normalized mode the x displacement has norm a2 * lam while the
    # update stays interior, independent of the gradient magnitude
    p = netgen.SystemParams()
    net = netgen.sample_layout(p, 5, seed=17)
    _, trace = run(net, np.ones(5), viva_defaults(1), x0=0.5)
    moved = np.linalg.norm(trace.x[1] - trace.x[0])
    assert moved == pytest.approx(0.003 * trace.lam[0], rel=1e-12)


def test_schedule_file_roundtrip(tmp_path):
    # numpy scalars in metadata are written as Python numbers
    sched = StepSchedule(np.array([0.1, 0.2]), np.array([0.3, 0.4]),
                         np.array([0.5, 0.6]),
                         {"kind": "trained", "seed": 7,
                          "k_links": np.int64(3), "x0": np.float32(0.25)})
    path = tmp_path / "sched.json"
    save_schedule(path, sched)
    back = load_schedule(path)
    assert np.array_equal(back.alpha1, sched.alpha1)
    assert np.array_equal(back.alpha2, sched.alpha2)
    assert np.array_equal(back.alpha3, sched.alpha3)
    assert back.metadata == sched.metadata


def test_solvers_share_weight_checks():
    net = netgen.sample_layout(netgen.SystemParams(), 4, seed=5)
    good = np.full(4, 0.5)

    def luva(nets, w):
        return run(nets, w, viva_defaults(3), keep_trace=False)[0]

    for solve in (luva, fplinq):
        assert solve(net, good).shape == (4,)
        assert solve([net, net], np.stack([good, good])).shape == (2, 4)
        for w in ([np.nan, 1, 1, 1], [1, np.inf, 1, 1], [1, -0.1, 1, 1],
                  np.zeros(4)):
            with pytest.raises(ValueError):
                solve(net, np.asarray(w, dtype=float))
            with pytest.raises(ValueError):  # one bad network spoils a block
                solve([net, net], np.stack([good, w]))
        for w in (np.ones(3), np.ones((1, 4))):
            with pytest.raises(ValueError):
                solve(net, w)
        for w in (good, np.ones((2, 3)), np.ones((3, 4))):
            with pytest.raises(ValueError):
                solve([net, net], w)
        with pytest.raises(ValueError):
            solve([net, toy_net(np.ones((4, 4)))], np.ones((2, 4)))
        with pytest.raises(ValueError):
            solve([], np.ones((0, 4)))
    with pytest.raises(ValueError):
        run([net], np.ones((1, 4)), viva_defaults(3))  # a block keeps no trace


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 12), b=st.integers(1, 6), seed=st.integers(0, 2**16),
       plain=st.booleans())
def test_block_solves_match_per_network(k, b, seed, plain):
    nets = netgen.sample_instances(netgen.SystemParams(), k, b, seed)
    w = np.random.default_rng(seed).uniform(0.05, 1.0, size=(b, k))
    mode = "plain" if plain else "normalized"
    x_block, _ = run(nets, w, TRAINED_LIKE, mode=mode, keep_trace=False)
    f_block = fplinq(nets, w, 30)
    assert x_block.shape == f_block.shape == (b, k)
    for i, net in enumerate(nets):
        x_one, _ = run(net, w[i], TRAINED_LIKE, mode=mode, keep_trace=False)
        assert np.allclose(x_block[i], x_one, rtol=1e-12, atol=1e-13)
        assert np.array_equal(f_block[i], fplinq(net, w[i], 30))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 12), seed=st.integers(0, 2**16), plain=st.booleans())
def test_relabelling_links_permutes_allocations(k, seed, plain):
    net = netgen.sample_layout(netgen.SystemParams(), k, seed)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size=k)
    perm = rng.permutation(k)
    moved = netgen.NetworkInstance(
        k_links=k, tx_pos=net.tx_pos[perm], rx_pos=net.rx_pos[perm],
        gain=net.gain[np.ix_(perm, perm)], noise_power=net.noise_power)
    mode = "plain" if plain else "normalized"
    x, _ = run(net, w, TRAINED_LIKE, mode=mode, keep_trace=False)
    x_moved, _ = run(moved, w[perm], TRAINED_LIKE, mode=mode,
                     keep_trace=False)
    # summation order changes; unnormalized plain steps amplify it more
    # (up to 1.5e-12 relative over 1000 seeded draws)
    rtol = 1e-11 if plain else 1e-12
    assert np.allclose(x_moved, x[perm], rtol=rtol, atol=1e-13)
    assert np.allclose(fplinq(moved, w[perm]), fplinq(net, w)[perm],
                       rtol=1e-12, atol=1e-13)
