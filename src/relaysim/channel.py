"""Block-fading channel: radio constants, fading models, connectivity.

A link with power gain H at distance d carries W*log2(1 + P*xi*H/d^alpha) bits
per second, constant within a frame and redrawn independently each frame. A
link is connected when that rate reaches the signalling rate R; equivalently
when H >= (beta - 1) / (P * xi) * d^alpha with beta = 2^(R/W). The threshold
form is used everywhere, in that order of operations, so connect_threshold
and the engine's FrameLinks decide boundary cases identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhyParams",
    "Rayleigh",
    "GainTable",
    "connect_threshold",
    "af_effective_snr",
    "ConnectionEstimate",
    "connection_probability_mc",
]


@dataclass(frozen=True)
class PhyParams:
    """Radio constants for one run. beta and gamma are derived, never set."""

    bandwidth: float  # W, Hz
    power: float  # P, linear transmit SNR scale
    rate: float  # R, bits per second
    tau: float  # frame duration, seconds
    alpha: float = 4.0  # path-loss exponent
    xi: float = 1.0  # SNR calibration constant
    beta: float = field(init=False)  # 2^(R/W), SNR threshold
    gamma: float = field(init=False)  # beta^(2/alpha), coverage scale

    def __post_init__(self):
        for name in ("bandwidth", "power", "rate", "tau", "xi"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.alpha < 2:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")
        object.__setattr__(self, "beta", 2.0 ** (self.rate / self.bandwidth))
        object.__setattr__(self, "gamma", self.beta ** (2.0 / self.alpha))


# ---------- fading models ----------


@dataclass(frozen=True)
class Rayleigh:
    """Unit-mean exponential power gain (Rayleigh amplitude)."""

    def from_uniforms(self, u):
        return -np.log(u)


@dataclass(frozen=True)
class GainTable:
    """Discrete power-gain pmf; must have unit mean (1e-9) like the fading it replaces."""

    gains: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.gains) != len(self.probs) or not self.gains:
            raise ValueError("gains and probs must be equal-length, non-empty")
        if any(g < 0 for g in self.gains) or any(p < 0 for p in self.probs):
            raise ValueError("gains and probs must be non-negative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probs sum to {sum(self.probs)}, expected 1")
        mean = sum(g * p for g, p in zip(self.gains, self.probs))
        if abs(mean - 1.0) > 1e-9:
            raise ValueError(f"gain table mean {mean} is not 1")
        object.__setattr__(self, "_cum", np.cumsum(np.asarray(self.probs)))
        object.__setattr__(self, "_gain_arr", np.asarray(self.gains, dtype=np.float64))

    def from_uniforms(self, u):
        idx = np.searchsorted(self._cum, np.asarray(u), side="left")
        idx = np.minimum(idx, len(self.gains) - 1)
        out = self._gain_arr[idx]
        return out if out.ndim else float(out)


# ---------- connectivity ----------


def connect_threshold(distance, phy: PhyParams):
    """Minimum power gain at which a link of the given length is connected."""
    d = np.asarray(distance, dtype=np.float64)
    out = (phy.beta - 1.0) / (phy.power * phy.xi) * d**phy.alpha
    return out if out.ndim else float(out)


def af_effective_snr(s_src, s_dst, power: float):
    """End-to-end SNR of a two-hop amplified link; s_* are gain-over-d^alpha qualities."""
    s1 = np.asarray(s_src, dtype=np.float64)
    s2 = np.asarray(s_dst, dtype=np.float64)
    out = power * power * s1 * s2 / (power * s1 + power * s2 + 1.0)
    return out if out.ndim else float(out)


# ---------- Monte Carlo connection probability ----------


@dataclass(frozen=True)
class ConnectionEstimate:
    probability: float
    ci_low: float
    ci_high: float
    n_samples: int


def connection_probability_mc(
    phy: PhyParams,
    geometry,
    fading,
    endpoint: str,
    n_samples: int,
    rng: np.random.Generator,
) -> ConnectionEstimate:
    """P(uniform relay is connected to an endpoint), with a 95% Wald interval.

    Positions and gains are drawn jointly; endpoint is 'source' or 'dest'.
    """
    if endpoint not in ("source", "dest"):
        raise ValueError(f"endpoint must be 'source' or 'dest', got {endpoint!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    r = geometry.radius
    ex = 0.0 if endpoint == "source" else 2.0 * r
    hits = 0
    for lo in range(0, n_samples, 1 << 20):  # chunked to bound memory
        n = min(1 << 20, n_samples - lo)
        rad = r * np.sqrt(rng.random(n))
        ang = 2.0 * np.pi * rng.random(n)
        x = r + rad * np.cos(ang)
        y = rad * np.sin(ang)
        d = np.hypot(x - ex, y)
        np.maximum(d, 1e-9, out=d)
        h = fading.from_uniforms(1.0 - rng.random(n))
        hits += int(np.count_nonzero(h >= connect_threshold(d, phy)))
    p = hits / n_samples
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    return ConnectionEstimate(p, max(p - half, 0.0), min(p + half, 1.0), n_samples)
