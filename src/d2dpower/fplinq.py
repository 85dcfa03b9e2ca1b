"""Fractional-programming baseline for weighted sum-rate power control.

Closed-form alternating updates with the auxiliary variables eliminated;
each iteration costs O(K^2) and the weighted sum-rate never decreases.
Powers start at full, x = 1. fplinq() solves one network, or a block of
networks (same K and noise, weights (B, K)) in one batched call;
fp_iterate() runs them in place from any start on unchecked arrays.
"""

from __future__ import annotations

import numpy as np

from .netgen import NetworkInstance, _count
from .rates import _solver_inputs

__all__ = ["fplinq", "fp_iterate"]


def fp_iterate(x, w, gain, gain_off, noise, iters: int):
    """Run `iters` closed-form updates on plain arrays, reading x, w and
    the gains only. Each reads gain_off and the direct gains: total power
    is interf + direct x and gain^T y^2 is gain_off^T y^2 + direct y^2, two
    matvecs. Both are sums of nonnegative terms, so, unlike
    interf = total - direct x, neither loses precision to cancellation.
    Seeded outputs follow the in-place update's last bits: keep its order.
    """
    w = np.asarray(w, dtype=float)
    direct = np.diagonal(gain, axis1=-2, axis2=-1).copy()  # not strided
    off_t = np.swapaxes(gain_off, -1, -2)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(iters):
            interf = np.matmul(gain_off, x[..., None])[..., 0]
            interf += noise
            dx = direct * x
            boost = np.divide(dx, interf)  # w (1 + dx / interf) direct
            boost += 1.0
            boost *= w
            boost *= direct
            y2 = np.multiply(boost, x)  # (sqrt(boost x) / (interf + dx))^2
            np.sqrt(y2, out=y2)
            interf += dx
            y2 /= interf
            y2 *= y2
            denom = np.matmul(off_t, y2[..., None])[..., 0]
            denom += np.multiply(direct, y2, out=dx)  # squared below
            denom *= denom
            y2 *= boost  # x = min(1, y2 boost / denom), 0 where denom is 0
            y2 /= denom
            x = np.where(denom > 0.0, np.minimum(1.0, y2, out=y2), 0.0)
    return x


def fplinq(net: NetworkInstance, w, iters: int = 100) -> np.ndarray:
    """Power allocation after `iters` updates from x = 1.

    net is one NetworkInstance with weights (K,), or a block: a sequence of
    networks that share K and noise, with weights (B, K). x has the
    weights' shape; the inputs pass rates._solver_inputs.
    """
    (s, _, _), noise, w = _solver_inputs(net, w)
    k = w.shape[-1]
    return fp_iterate(np.ones(w.shape), w, s[..., :k, :], s[..., k:, :],
                      noise, _count("iters", iters, 0))
