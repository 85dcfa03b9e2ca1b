"""Fractional-programming baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_net
from d2dpower import netgen, rates
from d2dpower.fplinq import fp_iterate, fplinq


def test_single_link_keeps_full_power():
    # K = 1 has no interference, so x = 1 is optimal and a fixed point
    for g, noise in ((4.0, 1.0), (0.1, 1.0), (2e-6, 8e-11)):
        net = toy_net([[g]], noise=noise)
        x = fplinq(net, np.ones(1), 100)
        assert x[0] == 1.0


def test_zero_weight_link_shuts_off():
    # with no cross gains and w_2 = 0 the update is 0/0, resolved to 0
    gain = np.array([[2.0, 1e-300], [1e-300, 3.0]])
    net = toy_net(gain, noise=1.0)
    x = fplinq(net, np.array([1.0, 0.0]), 5)
    assert x[0] == 1.0 and x[1] == 0.0


def test_strong_interference_turns_one_link_off():
    # cross gains dominate; the stronger link should win. Oracle: grid scan
    # of the weighted sum-rate over [0, 1]^2 peaks at the (1, 0) vertex.
    gain = np.array([[2.0, 5.0], [5.0, 1.0]])
    net = toy_net(gain, noise=0.1)
    w = np.ones(2)
    grid = np.linspace(0.0, 1.0, 101)
    best, arg = -np.inf, None
    for a in grid:
        for b in grid:
            v = rates.weighted_sum_rate(np.array([a, b]), w, net)
            if v > best:
                best, arg = v, (a, b)
    assert arg == (1.0, 0.0)
    x = fplinq(net, w, 100)
    assert np.allclose(x, [1.0, 0.0])
    assert rates.weighted_sum_rate(x, w, net) == pytest.approx(best,
                                                               rel=1e-12)


def test_wsr_never_decreases():
    p = netgen.SystemParams()
    rng = np.random.default_rng(5)
    for seed in range(10):
        net = netgen.sample_layout(p, 10, seed=seed)
        w = rng.uniform(size=10)
        gain_off = rates.offdiag(net.gain)
        x = np.ones(10)
        prev = rates.weighted_sum_rate(x, w, net)
        for _ in range(60):
            x = fp_iterate(x, w, net.gain, gain_off, net.noise_power, 1)
            cur = rates.weighted_sum_rate(x, w, net)
            assert cur >= prev * (1.0 - 1e-9)
            prev = cur


def test_powers_stay_in_box():
    p = netgen.SystemParams()
    for seed in range(5):
        net = netgen.sample_layout(p, 8, seed=seed)
        x = fplinq(net, np.random.default_rng(seed).uniform(size=8), 100)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)


def test_fp_step_counts_and_matches_iterate():
    p = netgen.SystemParams()
    net = netgen.sample_layout(p, 6, seed=77)
    w = np.random.default_rng(77).uniform(size=6)
    # seven single steps end where fplinq's seven iterations do
    x = np.ones(6)
    for _ in range(7):
        x = fp_iterate(x, w, net.gain, rates.offdiag(net.gain),
                       net.noise_power, 1)
    assert np.array_equal(x, fplinq(net, w, 7))


def test_rejects_negative_weights_and_iters():
    net = toy_net([[4.0]], noise=1.0)
    with pytest.raises(ValueError):
        fplinq(net, np.array([-1.0]), 10)
    with pytest.raises(ValueError):
        fplinq(net, np.ones(1), -1)


def test_zero_iters_returns_start():
    net = toy_net([[4.0]], noise=1.0)
    assert np.array_equal(fplinq(net, np.ones(1), 0), np.ones(1))


def test_batched_iterate_matches_loop():
    p = netgen.SystemParams()
    nets = netgen.sample_instances(p, 5, 3, seed=31)
    gain = np.stack([n.gain for n in nets])
    w = np.random.default_rng(31).uniform(size=(3, 5))
    x0 = np.ones((3, 5))
    batched = fp_iterate(x0, w, gain, rates.offdiag(gain),
                         nets[0].noise_power, 20)
    for b, net in enumerate(nets):
        single = fplinq(net, w[b], 20)
        assert np.allclose(batched[b], single, rtol=1e-10, atol=1e-12)


def _three_matvec_iterate(x, w, gain, gain_off, noise, iters):
    # The update as first written: total and interference from two matvecs
    # of x, then a third with the full gain matrix transposed.
    direct = np.diagonal(gain, axis1=-2, axis2=-1)
    gain_t = np.swapaxes(gain, -1, -2)
    for _ in range(iters):
        total = noise + np.matmul(gain, x[..., None])[..., 0]
        interf = noise + np.matmul(gain_off, x[..., None])[..., 0]
        boost = w * (1.0 + direct * x / interf) * direct
        y2 = (np.sqrt(boost * x) / total) ** 2
        denom = np.matmul(gain_t, y2[..., None])[..., 0] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(denom > 0.0,
                         np.minimum(1.0, y2 * boost / denom), 0.0)
    return x


def test_two_matvec_update_matches_three_matvec_oracle():
    p = netgen.SystemParams()
    rng = np.random.default_rng(2000)
    gain = netgen.gain_batch(p, 10, 2000, rng)
    w = rng.uniform(size=(2000, 10))
    noise = netgen.noise_power_mw(p)
    args = (np.ones((2000, 10)), w, gain, rates.offdiag(gain), noise, 100)
    new, old = fp_iterate(*args), _three_matvec_iterate(*args)
    assert np.max(np.abs(new - old)) < 1e-12

    def wsr(x):
        return np.sum(w * rates.rate_array(x, gain, noise), axis=-1)

    assert np.max(np.abs(wsr(new) / wsr(old) - 1.0)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 12), seed=st.integers(0, 2**16),
       scale=st.floats(1e-8, 1e8))
def test_invariant_to_weight_scale(k, seed, scale):
    # y^2 scales with w and the update's denominator with w^2, so x
    # depends on w only up to a positive factor
    net = netgen.sample_layout(netgen.SystemParams(), k, seed)
    w = np.random.default_rng(seed).uniform(0.05, 1.0, size=k)
    assert np.allclose(fplinq(net, scale * w), fplinq(net, w),
                       rtol=1e-12, atol=1e-13)
