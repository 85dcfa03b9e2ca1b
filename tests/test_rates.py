"""Rates, Jacobian, utopian point, scalarization frame."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import toy_net
from d2dpower import netgen, rates
from d2dpower.fplinq import fp_iterate, fplinq
from d2dpower.solver import run, viva_defaults
from d2dpower.training import grad_schedule

# 2-link hand case: SINR_1 = 2/(1 + 0.25) = 1.6, SINR_2 = 2/(1 + 0.25) = 1.6
HAND_GAIN = np.array([[2.0, 0.5], [0.25, 4.0]])
HAND_X = np.array([1.0, 0.5])


def test_sinr_hand_case():
    # rate_array on the raw gains: both SINRs 1.6, so both rates ln(2.6)
    net = toy_net(HAND_GAIN, noise=1.0)
    r = rates.rate_array(HAND_X, net.gain, net.noise_power)
    assert r.shape == (2,)
    assert r == pytest.approx([np.log(2.6)] * 2, rel=1e-15)
    # a block of networks gives one rate vector per network
    rb = rates.rate_array(np.stack([HAND_X, 2 * HAND_X]),
                          np.stack([HAND_GAIN, HAND_GAIN]), 1.0)
    assert rb.shape == (2, 2)
    assert rb[0] == pytest.approx([np.log(2.6)] * 2, rel=1e-15)
    # doubled powers: SINR_1 = 4/(1 + 0.5) = SINR_2 = 8/3
    assert rb[1] == pytest.approx([np.log(1 + 8 / 3)] * 2, rel=1e-15)


def test_rate_hand_case():
    # both SINRs are 1.6, so both rates are ln(2.6)
    net = toy_net(HAND_GAIN, noise=1.0)
    r = rates.rate_vector(HAND_X, net)
    assert r.shape == (2,)
    assert r == pytest.approx([np.log(2.6)] * 2, rel=1e-15)


def test_rate_forms_agree_hand_case():
    net = toy_net(HAND_GAIN, noise=1.0)
    a = rates.rate_vector(HAND_X, net)
    b = rates.rate_vector_logdiff(HAND_X, net)
    assert np.max(np.abs(a - b)) < 1e-14


def test_rate_forms_agree_random():
    p = netgen.SystemParams()
    rng = np.random.default_rng(7)
    for net in netgen.sample_instances(p, 10, 20, seed=70):
        x = rng.uniform(size=10)
        a = rates.rate_vector(x, net)
        b = rates.rate_vector_logdiff(x, net)
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-12


def test_zero_power_zero_rate():
    net = toy_net(HAND_GAIN, noise=1.0)
    assert np.array_equal(rates.rate_vector(np.zeros(2), net), np.zeros(2))


def test_jacobian_hand_entries():
    # dR_i/dx_j = G_ij / total_i - Goff_ij / interf_i
    net = toy_net(HAND_GAIN, noise=1.0)
    total = 1.0 + HAND_GAIN @ HAND_X          # [3.25, 2.25]
    interf = np.array([1.25, 1.25])
    j = rates.rate_jacobian(HAND_X, net)
    expect = np.array([
        [2.0 / total[0], 0.5 / total[0] - 0.5 / interf[0]],
        [0.25 / total[1] - 0.25 / interf[1], 4.0 / total[1]],
    ])
    assert np.allclose(j, expect, rtol=1e-15)


def test_jacobian_sign_structure():
    p = netgen.SystemParams()
    rng = np.random.default_rng(3)
    for net in netgen.sample_instances(p, 8, 10, seed=30):
        j = rates.rate_jacobian(rng.uniform(size=8), net)
        assert np.all(np.diag(j) >= 0.0)
        off = j[~np.eye(8, dtype=bool)]
        assert np.all(off <= 0.0)


def test_jacobian_matches_central_differences():
    p = netgen.SystemParams()
    rng = np.random.default_rng(12)
    net = netgen.sample_instances(p, 6, 1, seed=12)[0]
    x = rng.uniform(0.2, 0.8, size=6)
    j = rates.rate_jacobian(x, net)
    h = 1e-6
    fd = np.empty((6, 6))
    for col in range(6):
        e = np.zeros(6)
        e[col] = h
        fd[:, col] = (rates.rate_vector(x + e, net)
                      - rates.rate_vector(x - e, net)) / (2.0 * h)
    scale = np.max(np.abs(j))
    assert np.max(np.abs(j - fd)) / scale < 1e-7


def test_weighted_sum_rate_is_dot_product():
    net = toy_net(HAND_GAIN, noise=1.0)
    w = np.array([0.3, 1.2])
    assert rates.weighted_sum_rate(HAND_X, w, net) == pytest.approx(
        float(w @ rates.rate_vector(HAND_X, net)), rel=1e-15)


def test_weighted_sum_rate_of_a_block_matches_the_sum_oracle():
    nets = netgen.sample_instances(netgen.SystemParams(), 6, 5, seed=9)
    block = rates._Block(nets)
    rng = np.random.default_rng(9)
    x, ws = rng.uniform(size=(2, 5, 6))
    got = rates.weighted_sum_rate(x, ws, block)
    # oracle: the weighted rates summed over links by np.sum
    assert np.array_equal(got, np.sum(ws * rates.rate_vector(x, block),
                                      axis=-1))
    assert got.shape == (5,)
    for b, net in enumerate(nets):
        assert got[b] == pytest.approx(
            rates.weighted_sum_rate(x[b], ws[b], net), rel=1e-15)


def test_weighted_rate_gradient_matches_jacobian():
    p = netgen.SystemParams()
    net = netgen.sample_layout(p, 7, seed=8)
    rng = np.random.default_rng(8)
    x = rng.uniform(size=7)
    w = rng.uniform(size=7)
    # the solver's one-vecmat form: (w_pm / P) S with P = noise + S x
    s = rates.stacked_gain(net.gain)
    w_pm = np.concatenate((w, -w))
    g = (w_pm / (net.noise_power + s @ x)) @ s
    assert np.allclose(g, rates.rate_jacobian(x, net).T @ w, rtol=1e-12)


def test_offdiag():
    g = np.arange(1.0, 10.0).reshape(3, 3)
    off = rates.offdiag(g)
    assert np.all(np.diag(off) == 0.0)
    assert off[0, 1] == g[0, 1] and off[2, 0] == g[2, 0]
    assert g[0, 0] == 1.0  # input untouched
    # the stacked form [gain; offdiag(gain)], with leading batch dims
    gb = np.arange(1.0, 19.0).reshape(2, 3, 3)
    s = rates.stacked_gain(gb)
    assert s.shape == (2, 6, 3)
    assert np.array_equal(s[:, :3], gb)
    assert np.array_equal(s[:, 3:], rates.offdiag(gb))
    assert np.array_equal(rates.offdiag(gb)[1], rates.offdiag(gb[1]))
    assert gb[1, 0, 0] == 10.0


def test_utopian_hand_case():
    net = toy_net(HAND_GAIN, noise=1.0)
    u = rates.utopian_point(net)
    assert u == pytest.approx([np.log(3.0), np.log(5.0)], rel=1e-15)


def test_utopian_dominates_random_allocations():
    p = netgen.SystemParams()
    rng = np.random.default_rng(6)
    for net in netgen.sample_instances(p, 8, 5, seed=60):
        u = rates.utopian_point(net)
        x = rng.uniform(size=(200, 8))
        r = rates.rate_array(x, net.gain, net.noise_power)
        assert np.all(r <= u + 1e-15)


def test_utopian_attained_by_lone_full_power():
    net = toy_net(HAND_GAIN, noise=1.0)
    u = rates.utopian_point(net)
    r = rates.rate_vector(np.array([1.0, 0.0]), net)
    assert r[0] == pytest.approx(u[0], rel=1e-15)


def test_scalarization_frame_geometry():
    # rates._form gives u and r = u/|u| after S; the solver dots them with w
    # into a.w and r.w for a = -u
    nets = [toy_net(HAND_GAIN), toy_net(2.0 * HAND_GAIN)]
    ws = np.array([[0.5, 0.5], [0.25, 1.0]])
    u = np.array([rates.utopian_point(net) for net in nets])
    expect_a = -(ws * u).sum(-1)
    expect_r = (ws * u).sum(-1) / np.linalg.norm(u, axis=-1)

    def dots(gain, w):
        _, fu, fr = rates._form(gain, 1.0)
        return -(w * fu).sum(-1), (w * fr).sum(-1)

    for net, w, a, r in zip(nets, ws, expect_a, expect_r):
        got = dots(net.gain, w)
        assert got == pytest.approx((a, r), rel=1e-15)
    got = dots(np.stack([net.gain for net in nets]), ws)
    assert np.allclose(got, (expect_a, expect_r), rtol=1e-15, atol=0.0)


def test_batched_helpers_match_loop():
    p = netgen.SystemParams()
    nets = netgen.sample_instances(p, 4, 3, seed=1)
    gain = np.stack([n.gain for n in nets])
    x = np.random.default_rng(1).uniform(size=(3, 4))
    batched = rates.rate_array(x, gain, nets[0].noise_power)
    for b, net in enumerate(nets):
        assert np.allclose(batched[b], rates.rate_vector(x[b], net),
                           rtol=1e-14)


# One network's prepared form (rates._prepared): S, u and u/|u| are built
# on its first solve and kept on it; a block's, when the block is built.

def _solve_both(net, w):
    sched = viva_defaults(6)
    return run(net, w, sched)[0], fplinq(net, w, 30)


def test_network_gain_and_kept_s_are_read_only():
    net = netgen.sample_layout(netgen.SystemParams(), 4, seed=2)
    with pytest.raises(ValueError):
        net.gain[0, 0] = 1.0
    for item in (net, rates._Block([net, net])):
        for arr in rates._prepared(item):
            with pytest.raises(ValueError):
                arr[..., 1] = 1.0


def test_prepared_network_solves_the_same_twice():
    net = netgen.sample_layout(netgen.SystemParams(), 6, seed=3)
    w = np.random.default_rng(3).uniform(size=6)
    first, again = _solve_both(net, w), _solve_both(net, w)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_replaced_gain_gets_a_fresh_prepared_form():
    net = netgen.sample_layout(netgen.SystemParams(), 5, seed=4)
    w = np.random.default_rng(4).uniform(size=5)
    _solve_both(net, w)
    g2 = net.gain.T.copy()
    moved = replace(net, gain=g2)
    fresh = toy_net(g2, noise=net.noise_power)
    for a, b, old in zip(_solve_both(moved, w), _solve_both(fresh, w),
                         _solve_both(net, w)):
        assert np.array_equal(a, b) and not np.array_equal(a, old)
    assert np.array_equal(rates.rate_vector(w, moved),
                          rates.rate_vector(w, fresh))


def test_degenerate_network_raises_on_every_call():
    w = np.ones(2)
    for gain, noise in (
            # 5e-324 / 4 rounds to 0: link 0's single-user rate underflows
            ([[5e-324, 1.0], [1.0, 1.0]], 4.0),
            # 1e300 / 1e-300 overflows: link 0's single-user rate is inf
            ([[1e300, 1.0], [1.0, 1.0]], 1e-300)):
        net = toy_net(gain, noise=noise)
        for _ in range(2):
            for solve in (lambda: run(net, w, viva_defaults(3)),
                          lambda: fplinq(net, w, 5),
                          lambda: rates.utopian_point(net),
                          lambda: grad_schedule(net, w, viva_defaults(3),
                                                1)):
                with pytest.raises(ValueError, match="degenerate"):
                    solve()
    # a training batch of infinite gains, as a huge tx power draws them
    with pytest.raises(ValueError, match="degenerate"):
        rates._form(np.full((3, 2, 2), np.inf), 1.0)


def test_utopian_point_is_a_writable_copy():
    net = netgen.sample_layout(netgen.SystemParams(), 5, seed=5)
    w = np.random.default_rng(5).uniform(size=5)
    before = _solve_both(net, w)
    u = rates.utopian_point(net)
    u[:] = -1.0
    assert np.all(rates.utopian_point(net) > 0.0)
    for a, b in zip(before, _solve_both(net, w)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_prepared_path_equals_uncached_formulas(k):
    p = netgen.SystemParams()
    for seed in range(4):
        net = netgen.sample_layout(p, k, seed=100 * k + seed)
        rng = np.random.default_rng(seed)
        x, w = rng.uniform(size=k), rng.uniform(size=k)
        gain, noise = net.gain, net.noise_power
        assert np.array_equal(rates.rate_vector(x, net),
                              rates.rate_array(x, gain, noise))
        assert np.array_equal(
            fplinq(net, w, 50),
            fp_iterate(np.ones(k), w, gain, rates.offdiag(gain), noise, 50))
        assert np.array_equal(rates.utopian_point(net),
                              np.log1p(np.diag(gain) / noise))
