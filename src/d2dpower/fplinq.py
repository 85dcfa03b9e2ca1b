"""Fractional-programming baseline for weighted sum-rate power control.

Closed-form alternating updates with the auxiliary variables eliminated:
O(K^2) each, never lowering the weighted sum-rate. fplinq() starts one
network or a block at x = 1; fp_iterate() updates in place on unchecked
arrays. From K >= 16 and 2^14 gains a call, links that are off skip the
interference matvec: their subnormal products are slow and move no bit.
"""

from __future__ import annotations

import numpy as np

from .netgen import NetworkInstance, _count
from .rates import _solver_inputs

__all__ = ["fplinq", "fp_iterate"]


def fp_iterate(x, w, gain, gain_off, noise, iters: int):
    """Run `iters` closed-form updates on plain arrays; x, w and the gains
    are only read. Two matvecs of nonnegative terms each, which, unlike
    total - direct x, cannot cancel: interf = gain_off x and gain_off^T y^2.
    Calls of K >= 16 and B K^2 >= 2^14 gains read x as 0 in interf below
    dead = noise 2^-200 / max gain_off: such links are off, their products
    subnormal and slow, and K of them stay under half an ulp of noise, so
    interf + noise keeps its bits; each link's own update reads its true x.
    Seeded outputs follow the in-place update's last bits: keep its order.
    """
    w = np.asarray(w, dtype=float)
    direct = np.diagonal(gain, axis1=-2, axis2=-1).copy()  # not strided
    off_t = np.swapaxes(gain_off, -1, -2)
    big = gain_off.shape[-1] >= 16 and gain_off.size >= 2**14
    with np.errstate(divide="ignore", invalid="ignore"):
        dead = noise * 2.0**-200 / gain_off.max() if big else None
        for _ in range(iters):
            live = x if dead is None else np.where(x < dead, 0.0, x)
            interf = np.matmul(gain_off, live[..., None])[..., 0]
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
            y2 *= boost  # x = min(1, y2 boost / denom), 0 unless denom > 0
            y2 /= denom
            x = np.minimum(1.0, y2, out=y2)  # y2 is fresh: not the caller's
            if not (on := denom > 0.0).all():  # NaN denom too
                x[~on] = 0.0
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
