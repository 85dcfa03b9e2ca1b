"""Layer-wise trainer: gradients, Adam, stopping, protocol mechanics."""

import numpy as np
import pytest

from d2dpower import netgen, rates, solver, training
from d2dpower.rates import _form
from d2dpower.solver import StepSchedule, run, viva_defaults
from d2dpower.training import (AdamState, TrainConfig, adam_step,
                               grad_schedule, sample_weights, train_layerwise)

P = netgen.SystemParams()


def _loss_via_run(net, w, vec, n_layers, x0=0.01):
    sched = StepSchedule.from_vector(vec)
    x, _ = run(net, w, sched, x0=x0, keep_trace=False)
    return -rates.weighted_sum_rate(x, w, net)


def test_loss_is_negative_wsr():
    # the training loss after kcut layers is minus the weighted sum-rate of
    # run's allocation under the first kcut layers of the schedule
    net = netgen.sample_layout(P, 4, seed=1)
    w = np.random.default_rng(1).uniform(size=4)
    vec = np.random.default_rng(2).uniform(0.002, 0.02, size=15)
    for kcut in (1, 3, 5):
        loss_val, _ = training._loss_and_grad(
            _form(net.gain[None], net.noise_power), net.noise_power,
            w[None, :], vec, kcut, 0.01)
        head = np.concatenate([vec[:kcut], vec[5:5 + kcut],
                               vec[10:10 + kcut]])
        assert loss_val == pytest.approx(_loss_via_run(net, w, head, kcut),
                                         rel=1e-12)


def test_sample_weights_dists():
    rng = np.random.default_rng(0)
    u = sample_weights(rng, 100, 7, "uniform01")
    assert u.shape == (100, 7)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    ones = sample_weights(rng, 3, 7, "all_ones")
    assert np.array_equal(ones, np.ones((3, 7)))
    with pytest.raises(ValueError):
        sample_weights(rng, 1, 1, "gaussian")


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(n_layers=0)
    with pytest.raises(ValueError):
        TrainConfig(base_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(weight_dist="bogus")
    for bad in ({"x0": 5.0}, {"x0": -0.1}, {"x0": np.nan},
                {"base_rate": np.nan}, {"base_rate": np.inf}):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    assert TrainConfig(x0=1.0).x0 == 1.0


def test_active_indices_layout():
    # flat layout [alpha1; alpha2; alpha3], n = 3: layer 1 trains alpha2[1]
    # alone; layer 2 adds alpha1[1] and alpha3[1]
    idx = training._active_indices(3, 1, "current_layer")
    assert idx.tolist() == [3]
    idx = training._active_indices(3, 2, "current_layer")
    assert idx.tolist() == [0, 4, 6]
    idx = training._active_indices(3, 3, "current_layer")
    assert idx.tolist() == [1, 5, 7]
    idx = training._active_indices(3, 2, "all")
    assert idx.tolist() == [0, 3, 4, 6]
    idx = training._active_indices(3, 3, "all")
    assert idx.tolist() == [0, 1, 3, 4, 5, 6, 7]
    with pytest.raises(ValueError):
        training._active_indices(3, 1, "bogus")


def test_grad_masked_outside_param_set():
    net = netgen.sample_layout(P, 5, seed=21)
    w = np.random.default_rng(21).uniform(size=5)
    sched = viva_defaults(4)
    g = grad_schedule(net, w, sched, layer_cutoff=2, param_set="current_layer")
    active = training._active_indices(4, 2, "current_layer")
    mask = np.zeros(12, dtype=bool)
    mask[active] = True
    assert np.all(g[~mask] == 0.0)
    assert np.any(g[mask] != 0.0)
    with pytest.raises(ValueError):
        grad_schedule(net, w, sched, layer_cutoff=5)


def test_trailing_steps_cannot_move_the_loss():
    # alpha1 and alpha3 of the cutoff layer only feed the next layer's
    # state, so the loss is bitwise flat in them
    net = netgen.sample_layout(P, 5, seed=7)
    w = np.random.default_rng(3).uniform(size=5)
    vec = viva_defaults(4).to_vector()
    base = _loss_via_run(net, w, vec, 4)
    for idx in (3, 11):  # alpha1[4], alpha3[4]
        pert = vec.copy()
        pert[idx] += 1e-3
        assert _loss_via_run(net, w, pert, 4) == base
    g = grad_schedule(net, w, viva_defaults(4), layer_cutoff=4,
                      param_set="all")
    assert g[3] == 0.0 and g[11] == 0.0


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(99)
    for trial in range(5):
        net = netgen.sample_layout(P, 4, seed=200 + trial)
        w = rng.uniform(0.1, 1.0, size=4)
        sched = viva_defaults(3, constant=0.003)
        g = grad_schedule(net, w, sched, layer_cutoff=3, param_set="all")
        vec = sched.to_vector()
        h = 1e-6
        fd = np.zeros(9)
        for i in training._active_indices(3, 3, "all"):
            e = np.zeros(9)
            e[i] = h
            fd[i] = (_loss_via_run(net, w, vec + e, 3)
                     - _loss_via_run(net, w, vec - e, 3)) / (2.0 * h)
        denom = np.linalg.norm(fd)
        assert np.linalg.norm(g - fd) / denom < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("param_set", ["current_layer", "all"])
@pytest.mark.parametrize("layer", [1, 2, 3, 6])
def test_truncated_sweep_keeps_the_active_entries(layer, param_set, seed):
    # the sweep from the top down to the lowest active layer runs the same
    # operations in the same order as the full sweep
    n = 6
    rng = np.random.default_rng(seed)
    gain = netgen.gain_batch(P, 5, 4, rng)
    noise = netgen.noise_power_mw(P)
    w = rng.uniform(size=(4, 5))
    vec = rng.uniform(0.002, 0.02, size=3 * n)
    active = training._active_indices(n, layer, param_set)
    stop = active[0] % n
    args = (_form(gain, noise), noise, w, vec, layer, 0.01)
    loss, grad = training._loss_and_grad(*args)
    loss_cut, grad_cut = training._loss_and_grad(*args, stop)
    assert loss_cut == loss
    assert np.array_equal(grad_cut[active], grad[active])
    below = (np.arange(3 * n) % n) < stop
    assert np.all(grad_cut[below] == 0.0)


def test_truncated_training_equals_full_sweep_training(monkeypatch):
    cfg = TrainConfig(n_layers=3, n_train=4, max_iter=6, validation_size=6,
                      val_every=3, stop_window=7, seed=3)
    sched, hist = train_layerwise(cfg, P, k_links=4)
    full = training._loss_and_grad
    monkeypatch.setattr(training, "_loss_and_grad",
                        lambda *args: full(*args[:6]))  # stop = 0
    sched_full, hist_full = train_layerwise(cfg, P, k_links=4)
    assert np.array_equal(sched.to_vector(), sched_full.to_vector())
    assert hist == hist_full


def _zero_weight_row_batch():
    nets = netgen.sample_instances(P, 4, 3, seed=71)
    gain = np.stack([n.gain for n in nets])
    w = np.random.default_rng(71).uniform(0.1, 1.0, size=(3, 4))
    w[1] = 0.0  # g = 0 in every layer: row 1 takes the masked branch
    return nets, gain, w, nets[0].noise_power


def test_zero_gradient_row_keeps_the_other_rows_bits():
    nets, gain, w, noise = _zero_weight_row_batch()
    vec = viva_defaults(5).to_vector()
    steps = np.split(vec, 3)
    x, lam, _, wsr, _, _, _ = solver._unrolled_forward(
        _form(gain, noise), noise, w, *steps, 5, 0.01, want_tape=False)
    assert np.array_equal(x[1], np.full(4, 0.01))  # the zero row stays
    for b in (0, 2):  # alone, every |g| > 0: the unmasked branch
        one = solver._unrolled_forward(
            _form(gain[b:b + 1], noise), noise, w[b:b + 1], *steps, 5, 0.01,
            want_tape=False)
        assert np.array_equal(x[b], one[0][0])
        assert lam[b] == one[1][0] and wsr[b] == one[3][0]


def test_zero_gradient_row_grad_matches_finite_differences():
    _, gain, w, noise = _zero_weight_row_batch()
    form = _form(gain, noise)
    vec = viva_defaults(3).to_vector()
    _, g = training._loss_and_grad(form, noise, w, vec, 3, 0.01)
    h = 1e-6
    fd = np.zeros(9)
    for i in training._active_indices(3, 3, "all"):
        e = np.zeros(9)
        e[i] = h
        fd[i] = (training._loss_and_grad(form, noise, w, vec + e, 3, 0.01)[0]
                 - training._loss_and_grad(form, noise, w, vec - e, 3,
                                           0.01)[0]) / (2.0 * h)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


def test_grad_batch_consistency():
    # the batched backward over b instances equals the mean of per-instance
    # gradients
    nets = netgen.sample_instances(P, 5, 3, seed=55)
    w = np.random.default_rng(55).uniform(size=(3, 5))
    vec = viva_defaults(4).to_vector()
    gain = np.stack([n.gain for n in nets])
    noise = nets[0].noise_power
    _, g_batch = training._loss_and_grad(_form(gain, noise), noise, w, vec,
                                         4, 0.01)
    g_mean = np.zeros(12)
    for b, net in enumerate(nets):
        _, gb = training._loss_and_grad(_form(net.gain[None], noise), noise,
                                        w[b][None], vec, 4, 0.01)
        g_mean += gb / 3.0
    assert np.allclose(g_batch, g_mean, rtol=1e-10, atol=1e-14)


def test_unrolled_forward_matches_solver_run():
    nets = netgen.sample_instances(P, 5, 4, seed=10)
    gain = np.stack([n.gain for n in nets])
    w = np.random.default_rng(10).uniform(size=(4, 5))
    vec = viva_defaults(6).to_vector()
    noise = nets[0].noise_power
    x, lam, _, wsr, _, _, _ = solver._unrolled_forward(
        _form(gain, noise), noise, w, vec[:6], vec[6:12], vec[12:], 6, 0.01,
        want_tape=False)
    for b, net in enumerate(nets):
        x_ref, trace = run(net, w[b], viva_defaults(6))
        assert np.allclose(x[b], x_ref, rtol=1e-12, atol=1e-15)
        assert wsr[b] == pytest.approx(trace.wsr[-1], rel=1e-10)
        assert lam[b] == pytest.approx(trace.lam[-1], rel=1e-10, abs=1e-12)


def test_adam_first_step_equals_rate():
    # bias correction makes the first step size the learning rate,
    # independent of the gradient magnitude
    for g in (3.7, -0.001, 1e4):
        st = AdamState.zeros(1)
        newp, st2 = adam_step(np.zeros(1), np.array([g]), st, 0.01)
        # m_hat = g and sqrt(v_hat) = |g| after one update
        assert newp[0] == pytest.approx(-0.01 * g / (abs(g) + 1e-8),
                                        rel=1e-12)
        assert newp[0] == pytest.approx(-np.sign(g) * 0.01, rel=1e-4)
        assert st2.step == 1
        assert st.step == 0  # input state untouched


def test_adam_two_steps_against_reimplementation():
    rng = np.random.default_rng(4)
    params = rng.normal(size=3)
    g1, g2 = rng.normal(size=3), rng.normal(size=3)
    st = AdamState.zeros(3)
    p1, st = adam_step(params, g1, st, 0.02)
    p2, st = adam_step(p1, g2, st, 0.02)

    m = v = np.zeros(3)
    p = params.copy()
    for step, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        p = p - 0.02 * (m / (1 - 0.9 ** step)) / (
            np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    assert np.allclose(p2, p, rtol=1e-14)


def test_stage_stop_rule():
    cfg = TrainConfig(val_every=100, stop_window=500)
    # span = 5 checkpoints; a flat sequence stops once len > span
    flat = [-10.0] * 10
    assert not training._stage_should_stop(flat[:5], cfg)
    assert training._stage_should_stop(flat[:6], cfg)
    # steady relative improvement above tolerance keeps going
    improving = list(-np.linspace(10.0, 20.0, 12))
    assert not training._stage_should_stop(improving, cfg)


def test_train_layerwise_protocol_smoke():
    cfg = TrainConfig(n_layers=2, n_train=4, max_iter=30, validation_size=8,
                      val_every=10, stop_window=50, seed=5)
    sched, hist = train_layerwise(cfg, P, k_links=3)
    assert sched.n_layers == 2
    assert sched.metadata["kind"] == "trained"
    assert sched.metadata["seed"] == 5
    stages = [rec.stage for rec in hist]
    expected_order = ["L1.main", "L1.refine1", "L1.refine2",
                      "L2.main", "L2.refine1", "L2.refine2"]
    seen = list(dict.fromkeys(stages))
    assert seen == expected_order
    for rec in hist:
        assert rec.iteration >= 1
        assert np.isfinite(rec.val_mean_wsr)
    # checkpoints are at multiples of val_every or the stage end
    assert all(r.iteration % 10 == 0 or r.iteration == 30 for r in hist)


def test_train_layerwise_deterministic():
    cfg = TrainConfig(n_layers=2, n_train=3, max_iter=12, validation_size=6,
                      val_every=6, stop_window=30, seed=9)
    s1, h1 = train_layerwise(cfg, P, k_links=3)
    s2, h2 = train_layerwise(cfg, P, k_links=3)
    assert np.array_equal(s1.to_vector(), s2.to_vector())
    assert [(r.stage, r.iteration, r.val_mean_wsr) for r in h1] == \
           [(r.stage, r.iteration, r.val_mean_wsr) for r in h2]


def test_training_moves_only_selected_parameters():
    # one layer: only alpha2[1] and the refine stages may move; with
    # n_layers = 1 every stage trains the same single index
    cfg = TrainConfig(n_layers=1, n_train=3, max_iter=8, validation_size=4,
                      val_every=4, stop_window=20, seed=2)
    sched, _ = train_layerwise(cfg, P, k_links=3)
    vec = sched.to_vector()
    assert vec[0] == 0.003  # alpha1 untouched
    assert vec[2] == 0.003  # alpha3 untouched
    assert vec[1] != 0.003  # alpha2 trained

