"""Per-link rates, their Jacobian, the utopian point, and input checks.

Rates are natural-log spectral efficiencies, R_i = ln(1 + SINR_i), so every
step-size and utility constant downstream is in nats. Array helpers broadcast
over leading batch dimensions and check nothing; the NetworkInstance wrappers
are the single-network API, and rate_vector also reads a block (_Block).
Every solve reads one checked form (_form).
"""

from __future__ import annotations

import numpy as np

from .netgen import NetworkInstance, _finite_array

__all__ = [
    "rate_vector",
    "rate_vector_logdiff",
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


def _form(gain, noise):
    """(S, u, u / |u|), read-only, of gains (K, K) or (B, K, K): S =
    stacked_gain(gain) and the frame a = -u, r of the single-user rates
    u_i = ln(1 + gain_ii / noise); ValueError unless 0 < u_i < inf."""
    s = stacked_gain(gain)
    with np.errstate(over="ignore"):  # an infinite u fails the check below
        u = np.log1p(s.diagonal(axis1=-2, axis2=-1) / noise)
    if not 0.0 < u.min() <= u.max() < np.inf:  # False for any NaN
        raise ValueError("degenerate network: single-user rate 0 or inf")
    # sqrt of a .sum gives np.linalg.norm's bits at less call overhead
    form = s, u, u / np.sqrt((u * u).sum(-1, keepdims=True))
    for arr in form:
        arr.flags.writeable = False
    return form


class _Block(tuple):
    """Networks that share K and noise, solved as one: building it checks
    them and keeps their _form (gains stacked once) on it, not on them."""

    def __new__(cls, nets):
        block = super().__new__(cls, nets)
        if len({(n.k_links, n.noise_power) for n in block}) != 1:
            raise ValueError("a block needs networks of one K and noise")
        block.noise_power = noise = block[0].noise_power
        block._prepared = _form(np.stack([n.gain for n in block]), noise)
        return block


def _prepared(net):
    """_form of a _Block, or of one network: built on its first solve and
    kept on it (its gain is read-only); a failed check keeps nothing."""
    prep = net.__dict__.get("_prepared")
    if prep is None:
        prep = net.__dict__["_prepared"] = _form(net.gain, net.noise_power)
    return prep


def _solver_inputs(net, w):
    """(_prepared form, noise, w) of one network, w (K,), or of a block (a
    _Block, or networks to build one), w (B, K). Both solvers check here:
    ValueError unless each network's w is finite, >= 0, with one > 0."""
    if not isinstance(net, (NetworkInstance, _Block)):
        net = _Block(net)
    form = _prepared(net)
    w, shape = np.asarray(w, dtype=float), form[1].shape
    if w.shape != shape:
        raise ValueError(f"weights must have shape {shape}")
    # ndarray methods, not np.all/np.any: this runs on every solver call
    if not (_finite_array("weights", w).max(-1) > 0.0).all():
        raise ValueError("weights need one positive entry per network")
    return form, net.noise_power, w


# NetworkInstance wrappers.

def rate_vector(x, net: NetworkInstance | _Block) -> np.ndarray:
    """Per-link rates ln(1 + SINR_i) in nats, of one network, x (K,), or of
    a _Block, x (B, K), from the S of its _form."""
    return np.log1p(_sinr(x, _prepared(net)[0], net.noise_power))


def rate_vector_logdiff(x, net: NetworkInstance) -> np.ndarray:
    """Rates as ln(total_i) - ln(interf_i), total and interference from
    one stacked matvec. Mathematically equal to rate_vector; agreement at
    float64 scale is a correctness check for both routes."""
    return _rate_and_jacobian(x, net)[0]


def _rate_and_jacobian(x, net: NetworkInstance):
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
    return _rate_and_jacobian(x, net)[1]


def utopian_point(net: NetworkInstance) -> np.ndarray:
    """Single-user rates u_i = ln(1 + gain_ii / noise): each link alone at
    full power. No feasible allocation exceeds u in any coordinate."""
    return _prepared(net)[1].copy()

