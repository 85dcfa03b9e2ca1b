"""Layer-wise learning of solver step-size schedules.

The unrolled solver is differentiable in its 3N per-layer step sizes, so the
schedule is trained by stochastic gradient descent on the negative weighted
sum-rate of the layer output. Layer k is trained in three stages: its own
parameter group {alpha1[k-1], alpha2[k], alpha3[k-1]} at the base rate, then
all parameters of layers 1..k at two reduced rates. Gradients are computed by
explicit reverse-mode differentiation through the unrolled updates, batched
over training instances; clamp and projection kinks use subgradient zero at
the boundary, one in the interior, and the gradient-norm divisor is
differentiated through. Finite differences on the forward pass reproduce
these gradients, which the test suite checks. Every drawn batch, the
validation set and grad_schedule's network pass through rates._form, so a
degenerate draw (a zero or infinite single-user rate) raises ValueError.

Nothing here depends on a deep-learning framework; the update rule is a
from-scratch Adam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import netgen
from .netgen import NetworkInstance, SystemParams, _count, _real
from .rates import _form
from .solver import (StepSchedule, _matvec, _unrolled_forward, _vecmat,
                     viva_defaults)

__all__ = [
    "TrainConfig",
    "AdamState",
    "HistoryRecord",
    "grad_schedule",
    "adam_step",
    "train_layerwise",
    "sample_weights",
]

WEIGHT_DISTS = ("uniform01", "all_ones")
_STOP_TOLERANCE = 1e-4  # see TrainConfig
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and floor


@dataclass
class TrainConfig:
    """Training protocol knobs.

    Schedules start from the untrained default, viva_defaults(n_layers).
    Each stage stops early once the moving average of the validation loss,
    checked every val_every iterations, improves by less than
    _STOP_TOLERANCE (relative) over a stop_window span, or at max_iter.
    """

    n_layers: int = 10
    n_train: int = 50
    max_iter: int = 20000
    base_rate: float = 1e-3
    refinement_factors: ClassVar = (0.1, 0.01)  # refine rates / base_rate
    weight_dist: str = "uniform01"
    validation_size: int = 500
    seed: int = 0
    x0: float = 0.01
    val_every: int = 100
    stop_window: int = 500

    def __post_init__(self):
        for name in ("n_layers", "n_train", "max_iter", "validation_size",
                     "val_every", "stop_window"):
            _count(name, getattr(self, name))
        _real("base_rate", self.base_rate, 0.0, strict=True)
        _real("x0", self.x0, 0.0, 1.0)
        if self.weight_dist not in WEIGHT_DISTS:
            raise ValueError(f"weight_dist must be one of {WEIGHT_DISTS}")


@dataclass
class HistoryRecord:
    """One validation checkpoint. stage is 'L<k>.<name>'."""

    layer: int
    stage: str
    iteration: int
    val_mean_wsr: float


def sample_weights(rng: np.random.Generator, count: int, k: int,
                   dist: str) -> np.ndarray:
    if dist == "uniform01":
        return rng.uniform(size=(count, k))
    if dist == "all_ones":
        return np.ones((count, k))
    raise ValueError(f"weight_dist must be one of {WEIGHT_DISTS}")


# Batched unrolled backward through solver._unrolled_forward. Shapes: the
# form from rates._form (S (B,2K,K), u and u/|u| (B,K)), w/x (B,K), scalars
# t/lam (B,), powers P (B,2K). noise is a scalar. All float64.

def _loss_and_grad(form, noise, w, vec, kcut, x0):
    """Batch-mean loss after kcut layers and its gradient in the flat
    3N step-size vector. Entries the loss cannot reach are zero."""
    n = vec.size // 3
    a1, a2, a3 = vec[:n], vec[n:2 * n], vec[2 * n:]
    b = w.shape[0]
    w_pm = np.concatenate((w, -w), axis=-1)
    x, lam, p, wsr, c, a_dot_w, tape = _unrolled_forward(
        form, noise, w, a1, a2, a3, kcut, x0, want_tape=True)
    loss_val = -float(wsr.mean())
    s = form[0]

    g_final = _vecmat(w_pm / p, s)
    xb = -g_final / b
    tb = np.zeros(b)
    lb = np.zeros(b)
    ga1 = np.zeros(n)
    ga2 = np.zeros(n)
    ga3 = np.zeros(n)
    g_next = g_final
    for layer in range(kcut - 1, -1, -1):
        x_prev, lam_prev, p_prev, ng, h, interior, slack, pos, upd = \
            tape[layer]
        # multiplier step: lam_new = max(0, lam_prev - a3 s(t_new, x_new))
        mub = lb * pos
        lb_prev = mub.copy()
        ga3[layer] = -(mub * slack).sum()
        sb = -mub * a3[layer]
        tb = tb + sb * c
        xb = xb + sb[:, None] * g_next
        # offset step: t_new = t_prev - a1 (1 - lam_prev c)
        ga1[layer] = -(tb * (1.0 - lam_prev * c)).sum()
        lb_prev += tb * (a1[layer] * c)
        # power step: x_new = clip(x_prev + a2 lam_prev g/|g|, 0, 1)
        vb = np.where(upd[:, None], xb * interior, xb)
        dvh = (vb * h).sum(-1)
        ga2[layer] = (lam_prev * dvh).sum()
        lb_prev += a2[layer] * dvh
        coef = np.where(upd, a2[layer] * lam_prev / ng, 0.0)
        gb = coef[:, None] * (vb - h * dvh[:, None])
        # curvature of the rate gradient at x_prev: -S^T diag(w_pm/P^2) S gb
        xb = vb - _vecmat(w_pm * _matvec(s, gb) / (p_prev * p_prev), s)
        lb = lb_prev
        g_next = h * ng[:, None]  # J(x_prev)^T w, rebuilt from the tape
    return loss_val, np.concatenate([ga1, ga2, ga3])


def _active_indices(n: int, layer: int, param_set: str) -> np.ndarray:
    """Flat indices trained for 1-indexed `layer`.

    current_layer: {alpha1[layer-1], alpha2[layer], alpha3[layer-1]}, which
    at layer 1 is alpha2[1] alone. all: those groups for layers 1..layer.
    """
    if param_set == "current_layer":
        idx = [n + layer - 1]
        if layer >= 2:
            idx += [layer - 2, 2 * n + layer - 2]
    elif param_set == "all":
        idx = list(range(n, n + layer))
        idx += list(range(0, layer - 1))
        idx += list(range(2 * n, 2 * n + layer - 1))
    else:
        raise ValueError("param_set must be 'current_layer' or 'all'")
    return np.array(sorted(idx), dtype=int)


def grad_schedule(net: NetworkInstance, w, schedule: StepSchedule,
                  layer_cutoff: int, param_set: str = "current_layer",
                  x0: float = 0.01) -> np.ndarray:
    """Gradient of loss(x^(layer_cutoff)) in the flat 3N schedule vector.

    Entries outside the selected parameter set are zero. The trailing
    alpha1/alpha3 of the cutoff layer cannot influence the loss, so their
    entries vanish identically.
    """
    if _count("layer_cutoff", layer_cutoff) > schedule.n_layers:
        raise ValueError("layer_cutoff must be at most n_layers")
    _, grad = _loss_and_grad(_form(net.gain[None], net.noise_power),
                             net.noise_power, np.asarray(w, float)[None],
                             schedule.to_vector(), layer_cutoff, x0)
    mask = np.zeros(3 * schedule.n_layers, dtype=bool)
    mask[_active_indices(schedule.n_layers, layer_cutoff, param_set)] = True
    return np.where(mask, grad, 0.0)


@dataclass
class AdamState:
    """Moment estimates for the currently active parameter subset."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState,
              rate: float):
    """One bias-corrected Adam update; returns (new_params, new_state)."""
    step = state.step + 1
    m = _BETA1 * state.m + (1.0 - _BETA1) * grad
    v = _BETA2 * state.v + (1.0 - _BETA2) * grad * grad
    m_hat = m / (1.0 - _BETA1 ** step)
    v_hat = v / (1.0 - _BETA2 ** step)
    new_params = params - rate * m_hat / (np.sqrt(v_hat) + _EPS)
    return new_params, AdamState(m=m, v=v, step=step)


def _stage_should_stop(val_losses: list, cfg: TrainConfig) -> bool:
    # Moving averages of the per-checkpoint validation loss; compare the
    # current window against the one stop_window iterations earlier.
    span = max(1, cfg.stop_window // cfg.val_every)
    if len(val_losses) < span + 1:
        return False

    def ma(end):
        return float(np.mean(val_losses[max(0, end - span):end]))

    now = ma(len(val_losses))
    before = ma(len(val_losses) - span)
    improvement = (before - now) / abs(before)
    return improvement < _STOP_TOLERANCE


def train_layerwise(config: TrainConfig,
                    params: SystemParams | None = None,
                    k_links: int = 10):
    """Train a schedule layer by layer; returns (schedule, history).

    Training draws fresh instances every iteration; validation uses one
    fixed set. Identical configs give identical results.
    """
    params = params or SystemParams()
    ss = np.random.SeedSequence(config.seed)
    val_ss, train_ss = ss.spawn(2)
    val_rng = np.random.default_rng(val_ss)
    train_rng = np.random.default_rng(train_ss)
    noise = netgen.noise_power_mw(params)

    val_form = _form(netgen.gain_batch(
        params, k_links, config.validation_size, val_rng), noise)
    val_w = sample_weights(val_rng, config.validation_size, k_links,
                           config.weight_dist)

    n = config.n_layers
    vec = viva_defaults(n).to_vector()
    history: list[HistoryRecord] = []

    stages = [("main", "current_layer", config.base_rate)]
    stages += [(f"refine{i}", "all", config.base_rate * f)
               for i, f in enumerate(config.refinement_factors, start=1)]

    for layer in range(1, n + 1):
        for stage_name, param_set, rate in stages:
            active = _active_indices(n, layer, param_set)
            adam = AdamState.zeros(active.size)
            val_losses: list[float] = []
            for it in range(1, config.max_iter + 1):
                gain_b = netgen.gain_batch(params, k_links, config.n_train,
                                           train_rng)
                w_b = sample_weights(train_rng, config.n_train, k_links,
                                     config.weight_dist)
                loss_val, grad = _loss_and_grad(
                    _form(gain_b, noise), noise, w_b, vec, layer, config.x0)
                if not np.isfinite(loss_val):
                    raise FloatingPointError(
                        f"non-finite training loss at layer {layer} "
                        f"stage {stage_name} iteration {it}")
                sub, adam = adam_step(vec[active], grad[active], adam, rate)
                vec[active] = sub
                if it % config.val_every == 0 or it == config.max_iter:
                    val = float(_unrolled_forward(
                        val_form, noise, val_w, *np.split(vec, 3), layer,
                        config.x0, want_tape=False)[3].mean())
                    history.append(HistoryRecord(
                        layer=layer, stage=f"L{layer}.{stage_name}",
                        iteration=it, val_mean_wsr=val))
                    val_losses.append(-val)
                    if _stage_should_stop(val_losses, config):
                        break
    schedule = StepSchedule.from_vector(vec, metadata={
        "kind": "trained",
        "k_links": k_links,
        "n_train": config.n_train,
        "max_iter": config.max_iter,
        "seed": config.seed,
        "x0": config.x0,
        "weight_dist": config.weight_dist,
    })
    return schedule, history

