"""Per-link rates, their Jacobian, the utopian point, and input checks.

Rates are natural-log spectral efficiencies, R_i = ln(1 + SINR_i), so every
step-size and utility constant downstream is in nats. Array helpers broadcast
over leading batch dimensions; the NetworkInstance wrappers are the
single-network API.
"""

from __future__ import annotations

import numpy as np

from .netgen import NetworkInstance

__all__ = [
    "solver_inputs",
    "rate_vector",
    "rate_vector_logdiff",
    "rate_and_jacobian",
    "weighted_sum_rate",
    "rate_jacobian",
    "utopian_point",
]


def stacked_gain(gain: np.ndarray) -> np.ndarray:
    """S = [gain; offdiag(gain)], shape (..., 2K, K), in one allocation:
    noise + S x stacks total and interference-plus-noise power."""
    gain = np.asarray(gain, dtype=float)
    k = gain.shape[-1]
    s = np.concatenate((gain, gain), axis=-2)
    # s is C-contiguous: zero entries (K + i, i) in place
    s.reshape(*s.shape[:-2], -1)[..., k * k::k + 1] = 0.0
    return s


def offdiag(gain: np.ndarray) -> np.ndarray:
    """Interference-only gains: the lower half of a fresh stacked_gain."""
    return stacked_gain(gain)[..., np.shape(gain)[-1]:, :]


def _frame(s, noise):
    """(u, u / |u|), u_i = ln(1 + gain_ii / noise) the single-user rates,
    from gains or S (..., 2K, K): the scalarization frame a = -u, r."""
    # .sum and sqrt of a sum give np.sum's and np.linalg.norm's bits at a
    # fraction of their call overhead
    u = np.log1p(np.diagonal(s, axis1=-2, axis2=-1) / noise)
    return u, u / np.sqrt((u * u).sum(-1, keepdims=True))


def _sinr(x, s, noise):
    """SINR_i from S = stacked_gain(gain) (..., 2K, K): its interference
    rows S[..., K:, :] serve in place of an offdiag copy."""
    k = s.shape[-1]
    x = np.asarray(x, dtype=float)
    interf = noise + np.matmul(s[..., k:, :], x[..., None])[..., 0]
    return np.diagonal(s, axis1=-2, axis2=-1) * x / interf


def sinr_array(x, gain, noise):
    return _sinr(x, stacked_gain(gain), noise)


def rate_array(x, gain, noise):
    return np.log1p(sinr_array(x, gain, noise))


def _nonnegative(name: str, values) -> np.ndarray:
    """values as a float array; ValueError unless nonempty, all finite and
    >= 0."""
    arr = np.asarray(values, dtype=float)
    if not arr.size:
        raise ValueError(f"{name} must not be empty")
    if not 0.0 <= arr.min() <= arr.max() < np.inf:  # False for any NaN
        raise ValueError(f"{name} must be finite and nonnegative")
    return arr


# NetworkInstance wrappers.

def _prepared(net: NetworkInstance):
    """(S, u, u / |u|) of one network, checked and built on its first solve
    and kept on it (its gain is read-only); a failed check keeps nothing."""
    prep = net.__dict__.get("_prepared")
    if prep is None:
        u, r = _frame(net.gain, net.noise_power)
        if not (u > 0.0).all():
            raise ValueError("degenerate network: zero single-user rate")
        prep = stacked_gain(net.gain), u, r
        for arr in prep:
            arr.flags.writeable = False
        net.__dict__["_prepared"] = prep
    return prep


def solver_inputs(net, w):
    """(S, noise, w), S = stacked_gain(gain), of one network with weights
    (K,) (its kept S), or of a block: networks that share K and noise, S
    (B, 2K, K), weights (B, K). Per network the weights must be finite and
    nonnegative with one positive, and every single-user rate positive;
    raises ValueError otherwise. Both solvers check their inputs here."""
    if isinstance(net, NetworkInstance):
        s, noise = _prepared(net)[0], net.noise_power
    else:
        nets = list(net)
        if not nets:
            raise ValueError("a block needs at least one network")
        noise = nets[0].noise_power
        if any(n.k_links != nets[0].k_links or n.noise_power != noise
               for n in nets):
            raise ValueError("a block's networks must share K and noise")
        s = stacked_gain(np.stack([n.gain for n in nets]))
        if not (s.diagonal(axis1=-2, axis2=-1) / noise > 0.0).all():
            raise ValueError("degenerate network: zero single-user rate")
    w, shape = np.asarray(w, dtype=float), s.shape[:-2] + s.shape[-1:]
    if w.shape != shape:
        raise ValueError(f"weights must have shape {shape}")
    # ndarray methods, not np.all/np.any: this runs on every solver call
    if not (_nonnegative("weights", w).max(-1) > 0.0).all():
        raise ValueError("weights need one positive entry per network")
    return s, noise, w


def rate_vector(x, net: NetworkInstance) -> np.ndarray:
    """Per-link rates ln(1 + SINR_i) in nats."""
    return np.log1p(_sinr(x, _prepared(net)[0], net.noise_power))


def rate_vector_logdiff(x, net: NetworkInstance) -> np.ndarray:
    """Rates as ln(total_i) - ln(interf_i), total and interference from
    one stacked matvec. Mathematically equal to rate_vector; agreement at
    float64 scale is a correctness check for both routes."""
    return rate_and_jacobian(x, net)[0]


def rate_and_jacobian(x, net: NetworkInstance):
    """(rates, Jacobian dR_i/dx_j) from one stacked matvec P = noise + S x
    (stacked_gain). Jacobian row i is gain row i over total_i minus the
    interference row over interf_i, so diagonals are nonnegative and
    off-diagonals nonpositive."""
    k = net.k_links
    s = _prepared(net)[0]
    p = net.noise_power + s @ np.asarray(x, dtype=float)
    ratio = (s / p[:, None]).reshape(2, k, k)
    return np.log(p[:k]) - np.log(p[k:]), ratio[0] - ratio[1]


def weighted_sum_rate(x, w, net: NetworkInstance) -> float:
    w = np.asarray(w, dtype=float)
    return float(w @ rate_vector(x, net))


def rate_jacobian(x, net: NetworkInstance) -> np.ndarray:
    return rate_and_jacobian(x, net)[1]


def utopian_point(net: NetworkInstance) -> np.ndarray:
    """Single-user rates u_i = ln(1 + gain_ii / noise): each link alone at
    full power. No feasible allocation exceeds u in any coordinate."""
    return _prepared(net)[1].copy()

