"""Per-link rates, their Jacobian, and the scalarization frame.

Rates are natural-log spectral efficiencies, R_i = ln(1 + SINR_i), so every
step-size and utility constant downstream is in nats. Array helpers broadcast
over leading batch dimensions; the NetworkInstance wrappers are the
single-network API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netgen import NetworkInstance

__all__ = [
    "ScalarizationFrame",
    "solver_inputs",
    "sinr",
    "rate_vector",
    "rate_vector_logdiff",
    "rate_and_jacobian",
    "weighted_sum_rate",
    "rate_jacobian",
    "utopian_point",
    "scalarization_frame",
]


def offdiag(gain: np.ndarray) -> np.ndarray:
    """Copy of the gain matrix with zeroed direct links (interference only)."""
    out = np.array(gain, dtype=float, copy=True)
    k = out.shape[-1]
    idx = np.arange(k)
    out[..., idx, idx] = 0.0
    return out


def power_terms(x, gain, gain_off, noise):
    """Total and interference-plus-noise received power at each receiver.

    Returns (total, interf) with total_i = noise + sum_j gain_ij x_j and
    interf_i = noise + sum_{j != i} gain_ij x_j. Broadcasts over leading dims.
    """
    x = np.asarray(x, dtype=float)
    total = noise + np.matmul(gain, x[..., None])[..., 0]
    interf = noise + np.matmul(gain_off, x[..., None])[..., 0]
    return total, interf


def sinr_array(x, gain, noise):
    gain = np.asarray(gain, dtype=float)
    _, interf = power_terms(x, gain, offdiag(gain), noise)
    direct = np.diagonal(gain, axis1=-2, axis2=-1)
    return direct * np.asarray(x, dtype=float) / interf


def rate_array(x, gain, noise):
    return np.log1p(sinr_array(x, gain, noise))


def weighted_rate_gradient(w, gain, gain_off, total, interf):
    """J(x)^T w without forming J: two matrix-vector products."""
    lhs = np.matmul(np.swapaxes(gain, -1, -2), (w / total)[..., None])[..., 0]
    rhs = np.matmul(np.swapaxes(gain_off, -1, -2),
                    (w / interf)[..., None])[..., 0]
    return lhs - rhs


# NetworkInstance wrappers.

def solver_inputs(net, w):
    """(gain, noise, w) of one network with weights (K,), or of a block: a
    sequence of networks that share K and noise, gains stacked (B, K, K),
    with weights (B, K). Per network the weights must be finite and
    nonnegative with one positive, and every single-user rate positive;
    raises ValueError otherwise. Both solvers check their inputs here."""
    if isinstance(net, NetworkInstance):
        gain, noise = net.gain, net.noise_power
    else:
        nets = list(net)
        if not nets:
            raise ValueError("a block needs at least one network")
        noise = nets[0].noise_power
        if any(n.k_links != nets[0].k_links or n.noise_power != noise
               for n in nets):
            raise ValueError("a block's networks must share K and noise")
        gain = np.stack([n.gain for n in nets])
    w = np.asarray(w, dtype=float)
    if w.shape != gain.shape[:-1]:
        raise ValueError(f"weights must have shape {gain.shape[:-1]}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0.0) or not np.all(np.any(w > 0.0, axis=-1)):
        raise ValueError("weights must be nonnegative with at least one "
                         "positive per network")
    if not np.all(np.diagonal(gain, axis1=-2, axis2=-1) / noise > 0.0):
        raise ValueError("degenerate network: zero single-user rate")
    return gain, noise, w


def sinr(x, net: NetworkInstance, i: int | None = None):
    """SINR of link i, or the whole SINR vector when i is None."""
    s = sinr_array(x, net.gain, net.noise_power)
    return float(s[i]) if i is not None else s


def rate_vector(x, net: NetworkInstance) -> np.ndarray:
    """Per-link rates ln(1 + SINR_i) in nats."""
    return np.log1p(sinr_array(x, net.gain, net.noise_power))


def rate_vector_logdiff(x, net: NetworkInstance) -> np.ndarray:
    """Rates as ln(total_i) - ln(interf_i), reusing the two matvecs.

    Mathematically equal to rate_vector; agreement at float64 scale is a
    correctness check for both routes.
    """
    gain = net.gain
    total, interf = power_terms(x, gain, offdiag(gain), net.noise_power)
    return np.log(total) - np.log(interf)


def rate_and_jacobian(x, net: NetworkInstance):
    """(rates, Jacobian dR_i/dx_j) sharing their matvecs. Jacobian row i is
    gain row i over total_i minus the interference row over interf_i, so
    diagonals are nonnegative and off-diagonals nonpositive."""
    gain = net.gain
    gain_off = offdiag(gain)
    total, interf = power_terms(x, gain, gain_off, net.noise_power)
    return (np.log(total) - np.log(interf),
            gain / total[..., None] - gain_off / interf[..., None])


def weighted_sum_rate(x, w, net: NetworkInstance) -> float:
    w = np.asarray(w, dtype=float)
    return float(w @ rate_vector(x, net))


def rate_jacobian(x, net: NetworkInstance) -> np.ndarray:
    return rate_and_jacobian(x, net)[1]


def utopian_point(net: NetworkInstance) -> np.ndarray:
    """Single-user rates u_i = ln(1 + gain_ii / noise): each link alone at
    full power. No feasible allocation exceeds u in any coordinate."""
    direct = np.diagonal(net.gain)
    return np.log1p(direct / net.noise_power)


@dataclass(frozen=True)
class ScalarizationFrame:
    """Anchor a = -u, unit direction r = u/|u|, and weights for one solve."""

    u: np.ndarray
    a: np.ndarray
    r_dir: np.ndarray
    w: np.ndarray


def scalarization_frame(net: NetworkInstance, w) -> ScalarizationFrame:
    """Frame for a weighted solve; the weights pass solver_inputs."""
    _, _, w = solver_inputs(net, w)
    u = utopian_point(net)
    return ScalarizationFrame(u=u, a=-u, r_dir=u / np.linalg.norm(u), w=w)
