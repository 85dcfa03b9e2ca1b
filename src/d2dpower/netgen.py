"""Random D2D network layouts and channel gains.

Transmitters drop uniformly in a square service area; each receiver sits at a
uniform angle and a uniform distance in [d_min, d_max] from its transmitter.
Link gains follow a LoS street-canyon median pathloss with a single breakpoint
(dual-slope 20/40 dB per decade), no shadowing or fast fading. All powers are
linear milliwatts. Gains are computed from squared distances in closed form;
`pathloss_db` is their dB reference. sample_instances checks a draw once.

Every public entry checks its inputs with the private _count, _real and
_finite_array below; each raises ValueError naming the argument.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import suppress
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

# Engineering value used by the breakpoint formulas (not the CODATA constant).
SPEED_OF_LIGHT = 3.0e8

__all__ = [
    "SystemParams",
    "NetworkInstance",
    "pathloss_db",
    "noise_power_mw",
    "gains_from_geometry",
    "sample_layout",
    "sample_instances",
    "gain_batch",
    "save_layout",
    "load_layout",
]


@dataclass(frozen=True)
class SystemParams:
    """Radio and deployment parameters. Defaults are the evaluation setup."""

    bandwidth_hz: float = 20e6
    carrier_hz: float = 2.4e9
    antenna_height_m: float = 1.5
    tx_power_dbm: float = 20.0
    noise_psd_dbm_hz: float = -174.0
    d_min_m: float = 2.0
    d_max_m: float = 65.0
    area_side_m: float = 500.0

    def __post_init__(self):
        for f in fields(self):  # powers in dBm are signed, the rest > 0
            _real(f.name, getattr(self, f.name),
                  -math.inf if "dbm" in f.name else 0.0, strict=True)
        if not self.d_min_m < self.d_max_m:
            raise ValueError("d_min_m must be below d_max_m")


@dataclass(frozen=True)
class NetworkInstance:
    """One sampled network: positions, gain matrix, noise power.

    gain[i, j] is the received power in mW at receiver i from transmitter j
    at full transmit power, so gain[i, i] is the direct link of pair i.
    """

    k_links: int
    tx_pos: np.ndarray
    rx_pos: np.ndarray
    gain: np.ndarray
    noise_power: float
    seed: int | None = None

    def __post_init__(self):
        k = _count("k_links", self.k_links)
        if self.tx_pos.shape != (k, 2) or self.rx_pos.shape != (k, 2):
            raise ValueError("positions must have shape (k, 2)")
        if self.gain.shape != (k, k):
            raise ValueError("gain must have shape (k, k)")
        _check_gain_noise(self.gain, self.noise_power)
        self.gain.flags.writeable = False  # rates._prepared keeps S


def _count(name: str, value, low: int = 1) -> int:
    """value as an int; ValueError naming it unless an integer >= low."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ValueError(f"{name} must be an integer >= {low}")
    return int(value)


def _real(name: str, value, low: float = -math.inf, high: float = math.inf,
          strict: bool = False) -> float:
    """value as a float; ValueError naming it unless a finite real in
    [low, high], or in (low, high] if strict. Bools are not numbers here."""
    with suppress(OverflowError):  # math.isfinite(10 ** 400) raises
        if (not isinstance(value, bool)
                and isinstance(value, (int, float, np.integer, np.floating))
                and (low < value if strict else low <= value)
                and value <= high and math.isfinite(value)):
            return float(value)
    raise ValueError(f"{name} must be a finite number in "
                     f"{'(' if strict else '['}{low:g}, {high:g}]")


def _finite_array(name: str, values, low: float = 0.0) -> np.ndarray:
    """values as a float array; ValueError naming it unless nonempty, all
    finite and >= low (a comparison with NaN is False)."""
    arr = np.asarray(values, dtype=float)
    if not arr.size:
        raise ValueError(f"{name} must not be empty")
    if not max(low, -sys.float_info.max) <= arr.min() <= arr.max() < np.inf:
        raise ValueError(f"{name} must be finite and >= {low:g}")
    return arr


def _check_gain_noise(gain: np.ndarray, noise) -> None:
    # all gains (of a matrix or a stack) finite and > 0; False for any NaN
    if gain.size and not 0.0 < gain.min() <= gain.max() < np.inf:
        raise ValueError("gains must be finite and strictly positive")
    _real("noise_power", noise, 0.0, strict=True)


def _breakpoint(params: SystemParams) -> tuple[float, float]:
    # Breakpoint distance and basic loss of the dual-slope LoS model.
    lam = SPEED_OF_LIGHT / params.carrier_hz
    h = params.antenna_height_m
    r_bp = 4.0 * h * h / lam
    l_bp = abs(20.0 * np.log10(lam * lam / (8.0 * np.pi * h * h)))
    return r_bp, l_bp


def pathloss_db(d_m, params: SystemParams):
    """Median LoS pathloss in dB at distance d_m (meters, scalar or array).

    20 dB/decade up to the breakpoint, 40 dB/decade beyond, continuous at
    the breakpoint. Raises on non-positive distances.
    """
    d = np.asarray(d_m, dtype=float)
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise ValueError("distances must be positive and finite")
    r_bp, l_bp = _breakpoint(params)
    slope = 20.0 * np.log10(d / r_bp)
    pl = l_bp + 6.0 + slope + np.where(d > r_bp, slope, 0.0)
    return float(pl) if np.isscalar(d_m) else pl


def noise_power_mw(params: SystemParams) -> float:
    """Thermal noise power over the full bandwidth, in linear mW."""
    dbm = params.noise_psd_dbm_hz + 10.0 * np.log10(params.bandwidth_hz)
    return float(10.0 ** (dbm / 10.0))


def gains_from_geometry(tx_pos: np.ndarray, rx_pos: np.ndarray,
                        params: SystemParams) -> np.ndarray:
    """Gain matrix from positions: gain[i, j] couples Tx j into Rx i (mW):
    c / q up to the breakpoint and c / q^2 beyond, q = d^2 / r_bp^2 and
    c = 10^((P_tx - L_bp - 6) / 10). Raises on coincident or NaN/inf nodes."""
    tx = np.asarray(tx_pos, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    r_bp, l_bp = _breakpoint(params)
    with np.errstate(over="ignore"):  # inf gains fail the later checks
        c = 10.0 ** ((params.tx_power_dbm - l_bp - 6.0) / 10.0)
    dx = rx[..., :, None, 0] - tx[..., None, :, 0]
    dy = rx[..., :, None, 1] - tx[..., None, :, 1]
    # seeded outputs follow the last bits: keep this order of operations
    q = np.multiply(dx, dx, out=dx)
    q += np.multiply(dy, dy, out=dy)
    q /= r_bp * r_bp
    if q.size and not 0.0 < q.min() <= q.max() < np.inf:
        raise ValueError("positions must be finite and not coincident")
    # q * q rounds above q exactly when q > 1: den is q, then q^2 beyond
    den = np.maximum(q, np.multiply(q, q, out=dy), out=dy)
    return np.divide(c, den, out=den)


def _geometry(params: SystemParams, k: int, rng: np.random.Generator,
              count: int):
    # Draw order is fixed: tx, radii, angles. Changing it changes seeds.
    tx = rng.uniform(0.0, params.area_side_m, size=(count, k, 2))
    radii = rng.uniform(params.d_min_m, params.d_max_m, size=(count, k))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(count, k))
    offset = radii[..., None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=-1)
    return tx, tx + offset


def sample_layout(params: SystemParams, k: int, seed: int) -> NetworkInstance:
    """Sample one network instance; identical seeds give identical instances."""
    return replace(sample_instances(params, k, 1, seed)[0], seed=seed)


def sample_instances(params: SystemParams, k: int, count: int,
                     seed) -> list[NetworkInstance]:
    """Sample a batch of instances from one seeded stream; their gains are
    checked once, as one read-only stack that the instances view."""
    k, count = _count("k", k), _count("count", count, 0)
    rng = np.random.default_rng(seed)
    tx, rx = _geometry(params, k, rng, count=count)
    noise = noise_power_mw(params)
    gains = gains_from_geometry(tx, rx, params)
    _check_gain_noise(gains, noise)
    gains.flags.writeable = False  # before slicing: the views inherit it
    nets = [object.__new__(NetworkInstance) for _ in range(count)]
    for b, net in enumerate(nets):  # the checks above are __post_init__'s
        net.__dict__.update(k_links=k, tx_pos=tx[b], rx_pos=rx[b],
                            gain=gains[b], noise_power=noise, seed=None)
    return nets


def gain_batch(params: SystemParams, k: int, count: int,
               rng: np.random.Generator) -> np.ndarray:
    """Stack of `count` gain matrices, shape (count, k, k), linear mW."""
    tx, rx = _geometry(params, k, rng, count=count)
    return gains_from_geometry(tx, rx, params)


def save_layout(path, net: NetworkInstance, params: SystemParams) -> None:
    """Write an instance to JSON (gain flattened row-major, linear mW)."""
    _write_json(path, {
        "seed": net.seed,
        "k": net.k_links,
        "params": asdict(params),
        "tx_pos": net.tx_pos.tolist(),
        "rx_pos": net.rx_pos.tolist(),
        "gain": net.gain.reshape(-1).tolist(),
        "noise_power": net.noise_power,
    })


def _write_json(path, doc) -> None:
    """doc as indented JSON and a newline, numpy scalars as Python numbers.
    All of the package's JSON goes through here."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=np.generic.item)
        fh.write("\n")


def _json_object(path, *keys) -> dict:
    """The JSON object in path, holding every key in keys; else ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{path} lacks {', '.join(missing)}")
    return doc


def _params(doc, path) -> SystemParams:
    """SystemParams from doc, read from path: a JSON object of (possibly
    partial) overrides with known names only; else ValueError."""
    names = {f.name for f in fields(SystemParams)}
    if not (isinstance(doc, dict) and names.issuperset(doc)):
        raise ValueError(f"{path}: params {doc}: not an object of known names")
    return SystemParams(**doc)


def load_layout(path) -> tuple[NetworkInstance, SystemParams]:
    doc = _json_object(path, "k", "params", "tx_pos", "rx_pos", "gain",
                       "noise_power")
    k, params = _count(f"{path}: k", doc["k"]), _params(doc["params"], path)
    return NetworkInstance(
        k_links=k,
        tx_pos=np.asarray(doc["tx_pos"], dtype=float),
        rx_pos=np.asarray(doc["rx_pos"], dtype=float),
        gain=np.asarray(doc["gain"], dtype=float).reshape(k, k),
        noise_power=_real(f"{path}: noise_power", doc["noise_power"], 0.0,
                          strict=True),
        seed=doc.get("seed"),
    ), params
