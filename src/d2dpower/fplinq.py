"""Fractional-programming baseline for weighted sum-rate power control.

Closed-form alternating updates with the auxiliary variables eliminated;
each iteration costs O(K^2) and the weighted sum-rate never decreases.
Powers start at full, x = 1. fplinq() solves one network, or a block of
networks (same K and noise, weights (B, K)) in one batched call;
fp_iterate() runs the updates from any start on unchecked plain arrays.
"""

from __future__ import annotations

import numpy as np

from .netgen import NetworkInstance
from .rates import _solver_inputs

__all__ = ["fplinq", "fp_iterate"]


def fp_iterate(x, w, gain, gain_off, noise, iters: int):
    """Run `iters` closed-form updates on plain arrays (broadcasts).

    Each update reads only gain_off and the direct gains: total power is
    interf + direct x and gain^T y^2 is gain_off^T y^2 + direct y^2, two
    matvecs. Both are sums of nonnegative terms, so, unlike
    interf = total - direct x, neither loses precision to cancellation.
    """
    w = np.asarray(w, dtype=float)
    direct = np.diagonal(gain, axis1=-2, axis2=-1)
    off_t = np.swapaxes(gain_off, -1, -2)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(iters):
            interf = noise + np.matmul(gain_off, x[..., None])[..., 0]
            dx = direct * x
            boost = w * (1.0 + dx / interf) * direct
            y = np.sqrt(boost * x) / (interf + dx)
            y2 = y * y
            denom = (np.matmul(off_t, y2[..., None])[..., 0]
                     + direct * y2) ** 2
            x = np.where(denom > 0.0,
                         np.minimum(1.0, y2 * boost / denom), 0.0)
    return x


def fplinq(net: NetworkInstance, w, iters: int = 100) -> np.ndarray:
    """Power allocation after `iters` updates from x = 1.

    net is one NetworkInstance with weights (K,), or a block: a sequence of
    networks that share K and noise, with weights (B, K). x has the
    weights' shape; the inputs pass rates._solver_inputs.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    (s, _, _), noise, w = _solver_inputs(net, w)
    k = w.shape[-1]
    return fp_iterate(np.ones(w.shape), w, s[..., :k, :], s[..., k:, :],
                      noise, iters)
