"""Primal-dual solver for weighted sum-rate power control.

The weighted problem is scalarized against the utopian direction: minimize
the offset t such that w^T(a + t r + R(x)) >= 0 with a = -u, r = u/|u|.
Each layer does one gradient step on (t, x) and one on the multiplier:

    t    <- t - a1 (1 - lam w^T r)
    x    <- clip(x + (a2 / |g|) lam g, 0, 1),   g = J(x)^T w
    lam  <- max(0, lam - a3 w^T(a + t r + R(x)))

using the fresh t and x in the multiplier step. "normalized" mode applies
the |g| divisor and the projection lam >= 0; "plain" mode drops both and is
kept for oscillation studies. A fixed per-layer step-size schedule makes the
solver a deterministic unrolled network; schedules can be the untrained
constant default or learned offline.

run() solves one network with a per-instance loop, or a block of networks
(same K and noise) in one call of the batched forward that training
differentiates through.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .netgen import NetworkInstance
from .rates import (offdiag, power_terms, scalarization_frame, solver_inputs,
                    weighted_rate_gradient)

__all__ = [
    "StepSchedule",
    "SolverTrace",
    "viva_defaults",
    "run",
    "save_schedule",
    "load_schedule",
]

MODES = ("normalized", "plain")


@dataclass
class StepSchedule:
    """Per-layer step sizes: alpha1 (t step), alpha2 (x step), alpha3 (lam
    step), one value per layer. Values may be negative; training decides."""

    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alpha1 = np.atleast_1d(np.asarray(self.alpha1, dtype=float))
        self.alpha2 = np.atleast_1d(np.asarray(self.alpha2, dtype=float))
        self.alpha3 = np.atleast_1d(np.asarray(self.alpha3, dtype=float))
        n = self.alpha1.shape[0]
        if self.alpha2.shape != (n,) or self.alpha3.shape != (n,):
            raise ValueError("alpha arrays must share one length")
        if n < 1:
            raise ValueError("schedule needs at least one layer")
        for arr in (self.alpha1, self.alpha2, self.alpha3):
            if not np.all(np.isfinite(arr)):
                raise ValueError("step sizes must be finite")

    @property
    def n_layers(self) -> int:
        return self.alpha1.shape[0]

    def to_vector(self) -> np.ndarray:
        """Flat parameter vector [alpha1; alpha2; alpha3], length 3N."""
        return np.concatenate([self.alpha1, self.alpha2, self.alpha3])

    @classmethod
    def from_vector(cls, vec: np.ndarray, metadata: dict | None = None):
        vec = np.asarray(vec, dtype=float)
        if vec.size % 3 != 0:
            raise ValueError("vector length must be divisible by 3")
        n = vec.size // 3
        return cls(vec[:n], vec[n:2 * n], vec[2 * n:],
                   metadata=dict(metadata or {}))


def viva_defaults(n_layers: int, constant: float = 0.003) -> StepSchedule:
    """Untrained schedule: one constant for every step size of every layer."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    c = float(constant)
    if not np.isfinite(c):
        raise ValueError("constant must be finite")
    ones = np.ones(n_layers)
    return StepSchedule(c * ones, c * ones, c * ones,
                        metadata={"kind": "constant", "constant": c})


@dataclass
class SolverTrace:
    """Per-layer history including the initial state (length n_layers + 1)."""

    t: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    wsr: np.ndarray


# Batched unrolled forward. Shapes: gain (B,K,K), w/x (B,K), scalars t/lam
# (B,). noise is a scalar. All float64.

def _vecmat(v, mat):
    # (B,K) row vector times (B,K,K): out_j = sum_i v_i mat_ij
    return np.matmul(v[:, None, :], mat)[:, 0, :]


def _matvec(mat, v):
    return np.matmul(mat, v[:, :, None])[:, :, 0]


def _unrolled_forward(gain, gain_off, noise, w, a1, a2, a3, kcut, x0,
                      want_tape: bool, normalized: bool = True,
                      check_finite: bool = False):
    b, k = w.shape
    u = np.log1p(np.diagonal(gain, axis1=-2, axis2=-1) / noise)
    c = np.sum(w * (u / np.linalg.norm(u, axis=-1, keepdims=True)), axis=-1)
    a_dot_w = -np.sum(w * u, axis=-1)
    x = np.full((b, k), float(x0))
    lam = np.ones(b)
    t = np.zeros(b)
    p = noise + _matvec(gain, x)
    q = noise + _matvec(gain_off, x)
    tape = []
    for layer in range(kcut):
        g = _vecmat(w / p, gain) - _vecmat(w / q, gain_off)
        ng = np.linalg.norm(g, axis=-1)
        upd = ng > 0.0
        safe = np.where(upd, ng, 1.0) if normalized else np.ones(b)
        h = np.where(upd[:, None], g / safe[:, None], 0.0)
        t = t - a1[layer] * (1.0 - lam * c)
        v = x + a2[layer] * lam[:, None] * h
        x_new = np.clip(v, 0.0, 1.0)
        interior = (v > 0.0) & (v < 1.0)
        p_new = noise + _matvec(gain, x_new)
        q_new = noise + _matvec(gain_off, x_new)
        swr = np.sum(w * (np.log(p_new) - np.log(q_new)), axis=-1)
        s = a_dot_w + t * c + swr
        mu = lam - a3[layer] * s
        lam_new = np.maximum(mu, 0.0) if normalized else mu
        if check_finite and not all(
                np.isfinite(a).all() for a in (t, lam_new, x_new)):
            raise FloatingPointError(
                f"non-finite iterate at layer {layer + 1}")
        if want_tape:
            tape.append((x, lam, p, q, safe, h, interior, s, mu > 0.0, upd))
        x, lam, p, q = x_new, lam_new, p_new, q_new
    wsr = np.sum(w * (np.log(p) - np.log(q)), axis=-1)
    return x, lam, p, q, wsr, c, a_dot_w, tape


def run(net: NetworkInstance, w, schedule: StepSchedule,
        mode: str = "normalized", x0: float = 0.01,
        keep_trace: bool = True):
    """Run every layer of the schedule; returns (x_final, trace).

    net is one network with weights (K,), or a block: a sequence of
    networks that share K and noise, with weights (B, K), solved in one
    batched call to x of shape (B, K) with no trace (keep_trace=False).
    One network keeps the per-instance loop, faster at B = 1. The solve
    starts at x = x0, t = 0, lam = 1 (lam > 0, or x never moves). trace is
    None when keep_trace is False. Identical inputs give identical outputs.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    x0 = float(x0)
    if not 0.0 <= x0 <= 1.0:
        raise ValueError("x0 must lie in [0, 1]")
    n = schedule.n_layers
    normalized = mode == "normalized"
    if not isinstance(net, NetworkInstance):
        if keep_trace:
            raise ValueError("a block keeps no trace; pass keep_trace=False")
        gain, noise, w = solver_inputs(net, w)
        return _unrolled_forward(
            gain, offdiag(gain), noise, w, schedule.alpha1, schedule.alpha2,
            schedule.alpha3, n, x0, want_tape=False, normalized=normalized,
            check_finite=True)[0], None

    frame = scalarization_frame(net, w)
    w, gain, noise = frame.w, net.gain, net.noise_power
    gain_off = offdiag(gain)
    a_dot_w = float(w @ frame.a)
    r_dot_w = float(w @ frame.r_dir)
    t, x, lam = 0.0, np.full(net.k_links, x0), 1.0
    total, interf = power_terms(x, gain, gain_off, noise)
    history = [(t, x, lam, float(w @ (np.log(total) - np.log(interf))))]
    for k, (a1, a2, a3) in enumerate(zip(schedule.alpha1, schedule.alpha2,
                                         schedule.alpha3)):
        t = t - a1 * (1.0 - lam * r_dot_w)
        g = weighted_rate_gradient(w, gain, gain_off, total, interf)
        norm_g = float(np.linalg.norm(g))
        if not normalized:
            x = np.clip(x + a2 * lam * g, 0.0, 1.0)
        elif norm_g > 0.0:  # else zero gradient: skip the x update
            x = np.clip(x + (a2 / norm_g) * lam * g, 0.0, 1.0)
        total, interf = power_terms(x, gain, gain_off, noise)
        wsr = float(w @ (np.log(total) - np.log(interf)))
        lam = lam - a3 * (a_dot_w + t * r_dot_w + wsr)
        if normalized:
            lam = max(0.0, lam)
        if not (np.isfinite(t) and np.isfinite(lam) and
                np.all(np.isfinite(x))):
            raise FloatingPointError(f"non-finite iterate at layer {k + 1}")
        if keep_trace:
            history.append((t, x, lam, wsr))
    trace = SolverTrace(*map(np.array, zip(*history))) if keep_trace else None
    return x, trace


def save_schedule(path, schedule: StepSchedule) -> None:
    doc = {
        "n_layers": schedule.n_layers,
        "alpha1": schedule.alpha1.tolist(),
        "alpha2": schedule.alpha2.tolist(),
        "alpha3": schedule.alpha3.tolist(),
        "metadata": schedule.metadata,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_schedule(path) -> StepSchedule:
    with open(path) as fh:
        doc = json.load(fh)
    sched = StepSchedule(doc["alpha1"], doc["alpha2"], doc["alpha3"],
                         metadata=doc.get("metadata", {}))
    if sched.n_layers != int(doc["n_layers"]):
        raise ValueError("n_layers does not match alpha arrays")
    return sched
