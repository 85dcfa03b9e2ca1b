"""Primal-dual solver for weighted sum-rate power control.

The weighted problem is scalarized against the utopian direction: minimize
the offset t such that w^T(a + t r + R(x)) >= 0 with a = -u, r = u/|u|.
Each layer does one gradient step on (t, x) and one on the multiplier:

    t    <- t - a1 (1 - lam w^T r)
    x    <- clip(x + (a2 / |g|) lam g, 0, 1),   g = J(x)^T w
    lam  <- max(0, lam - a3 w^T(a + t r + R(x)))

using the fresh t and x in the multiplier step. "plain" mode is the
"normalized" step with |g| taken as 1 and without the projection lam >= 0,
kept for oscillation studies. A fixed per-layer step-size schedule makes the
solver a deterministic unrolled network; schedules can be the untrained
constant default or learned offline.

Every kernel reads one checked form (rates._form): a network's gains held
once as S = [gain; offdiag(gain)] (..., 2K, K), and the frame (u, u/|u|).
With w_pm = [w; -w], P = noise + S x gives total and interference power in
one matvec, g = (w_pm / P) S in one vecmat, and the WSR is w_pm . ln P.
run() solves a block of networks (same K and noise) in one batched forward,
the one training differentiates, and one network in a loop on Python
floats, cheaper at B = 1. A network keeps its form from its first solve and
a block from its construction, so later solves check only w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .netgen import (NetworkInstance, _count, _finite_array, _json_object,
                     _real, _write_json)
from .rates import _solver_inputs

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
        for name in ("alpha1", "alpha2", "alpha3"):
            setattr(self, name, np.atleast_1d(
                _finite_array(name, getattr(self, name), -np.inf)))
        shapes = {a.shape for a in (self.alpha1, self.alpha2, self.alpha3)}
        if len(shapes) != 1 or self.alpha1.ndim != 1:
            raise ValueError("alpha arrays must be 1-D of one length")

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
    ones = np.ones(_count("n_layers", n_layers))
    c = _real("constant", constant)
    return StepSchedule(c * ones, c * ones, c * ones,
                        metadata={"kind": "constant", "constant": c})


@dataclass
class SolverTrace:
    """Per-layer history including the initial state (length n_layers + 1)."""

    t: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    wsr: np.ndarray


# Batched unrolled forward. Shapes: form S (B,2K,K), u and r (B,K), w/x
# (B,K), scalars t/lam (B,), powers P (B,2K). noise is a scalar. float64.

def _vecmat(v, mat):
    # (B,M) row vector times (B,M,K): out_j = sum_i v_i mat_ij
    return np.matmul(v[:, None, :], mat)[:, 0, :]


def _matvec(mat, v):
    return np.matmul(mat, v[:, :, None])[:, :, 0]


def _unrolled_forward(form, noise, w, a1, a2, a3, kcut, x0, want_tape: bool,
                      normalized: bool = True, check_finite: bool = False):
    b, k = w.shape
    w_pm = np.concatenate((w, -w), axis=-1)
    s, u, r = form
    a_dot_w, c = -(w * u).sum(-1), (w * r).sum(-1)
    x = np.full((b, k), float(x0))
    lam = np.ones(b)
    t = np.zeros(b)
    p = noise + _matvec(s, x)
    tape = []
    for layer in range(kcut):
        g = _vecmat(w_pm / p, s)
        ng = np.sqrt((g * g).sum(-1))
        upd = ng > 0.0
        safe = np.where(upd, ng, 1.0) if normalized else np.ones(b)
        h = np.where(upd[:, None], g / safe[:, None], 0.0)
        t = t - a1[layer] * (1.0 - lam * c)
        v = x + a2[layer] * lam[:, None] * h
        x_new = np.clip(v, 0.0, 1.0)
        interior = (v > 0.0) & (v < 1.0)
        p_new = noise + _matvec(s, x_new)
        slack = a_dot_w + t * c + (w_pm * np.log(p_new)).sum(-1)
        mu = lam - a3[layer] * slack
        lam_new = np.maximum(mu, 0.0) if normalized else mu
        if check_finite and not all(
                np.isfinite(a).all() for a in (t, lam_new, x_new)):
            raise FloatingPointError(
                f"non-finite iterate at layer {layer + 1}")
        if want_tape:
            tape.append((x, lam, p, safe, h, interior, slack, mu > 0.0, upd))
        x, lam, p = x_new, lam_new, p_new
    wsr = (w_pm * np.log(p)).sum(-1)
    return x, lam, p, wsr, c, a_dot_w, tape


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
    x0 = _real("x0", x0, 0.0, 1.0)
    normalized = mode == "normalized"
    if not isinstance(net, NetworkInstance) and keep_trace:
        raise ValueError("a block keeps no trace; pass keep_trace=False")
    form, noise, w = _solver_inputs(net, w)
    if w.ndim == 2:
        return _unrolled_forward(
            form, noise, w, schedule.alpha1, schedule.alpha2,
            schedule.alpha3, schedule.n_layers, x0, want_tape=False,
            normalized=normalized, check_finite=True)[0], None

    # on 1-D operands .dot gives @'s bits, cheaper
    s, u, r = form
    a_dot_w, r_dot_w = -float((w * u).sum()), float((w * r).sum())
    w_pm = np.concatenate((w, -w))
    t, x, lam = 0.0, np.full(w.shape, x0), 1.0
    p = noise + s.dot(x)
    history = [(t, x, lam, float(w_pm.dot(np.log(p))))]
    for k, (a1, a2, a3) in enumerate(zip(schedule.alpha1.tolist(),
                                         schedule.alpha2.tolist(),
                                         schedule.alpha3.tolist())):
        t = t - a1 * (1.0 - lam * r_dot_w)
        g = (w_pm / p).dot(s)
        norm_g = math.sqrt(g.dot(g)) if normalized else 1.0
        if norm_g > 0.0:  # else zero gradient: skip the x update
            x = (x + (a2 / norm_g) * lam * g).clip(0.0, 1.0)
        p = noise + s.dot(x)
        wsr = float(w_pm.dot(np.log(p)))
        lam = lam - a3 * (a_dot_w + t * r_dot_w + wsr)
        if normalized:
            lam = max(0.0, lam)
        # every gain is positive, so wsr is finite only if every x is
        if not (math.isfinite(t) and math.isfinite(lam) and
                math.isfinite(wsr)):
            raise FloatingPointError(f"non-finite iterate at layer {k + 1}")
        if keep_trace:
            history.append((t, x, lam, wsr))
    trace = SolverTrace(*map(np.array, zip(*history))) if keep_trace else None
    return x, trace


def save_schedule(path, schedule: StepSchedule) -> None:
    _write_json(path, {
        "n_layers": schedule.n_layers,
        "alpha1": schedule.alpha1.tolist(),
        "alpha2": schedule.alpha2.tolist(),
        "alpha3": schedule.alpha3.tolist(),
        "metadata": schedule.metadata,
    })


def load_schedule(path) -> StepSchedule:
    doc = _json_object(path, "n_layers", "alpha1", "alpha2", "alpha3")
    sched = StepSchedule(doc["alpha1"], doc["alpha2"], doc["alpha3"],
                         metadata=doc.get("metadata", {}))
    if sched.n_layers != _count(f"{path}: n_layers", doc["n_layers"]):
        raise ValueError(f"{path}: n_layers must match the alpha arrays")
    return sched
