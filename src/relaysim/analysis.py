"""Closed-form throughput, delay, and stability calculators.

The order calculators evaluate order-of-growth expressions under a
unit-constant convention: every hidden constant is 1 and asymptotic regime
predicates become finite comparisons against 1. Their outputs are meant for
trend and slope comparisons against simulation, never absolute values.

Conventions shared with the simulator: gamma = beta^(2/alpha) is the coverage
scale of the rate choice, q the mobility step probability, M the strip count,
K the relay count. Times are in frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OrderParams",
    "ServiceMoments",
    "intake_time_order",
    "ddf_service_components",
    "ddf_service_time_order",
    "obdwf_throughput_bound",
    "ddf_throughput_order",
    "obdwf_delay_order",
    "ddf_delay_order",
    "stability_gain_order",
    "mx_g1_wait",
    "loglog_order_fit",
    "StabilityError",
]


class StabilityError(ValueError):
    """Raised when a queueing formula is evaluated outside its stability region."""


@dataclass(frozen=True)
class OrderParams:
    """Inputs of the order calculators."""

    K: int
    gamma: float
    q: float
    M: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.gamma < 1.0:
            raise ValueError("gamma must be >= 1 (rate at least the trivial choice)")
        if not 0.0 < self.q <= 0.5:
            raise ValueError("q must be in (0, 1/2]")
        if self.M < 1:
            raise ValueError("M must be >= 1")


def intake_time_order(K: int, gamma: float) -> float:
    """Mean frames for the source to hand one packet to the relay network: max(1, gamma/K)."""
    if K < 1 or gamma < 1.0:
        raise ValueError("need K >= 1 and gamma >= 1")
    return max(1.0, gamma / K)


def ddf_service_components(p: OrderParams) -> tuple[float, float, int]:
    """(broadcast-phase mean, forward-phase mean, branch index 1..4).

    Branch predicates are the finite surrogates of the asymptotic regimes:
    gamma/K < 1 picks the low-rate pair (1, 2) and the tie goes high-rate;
    within the pairs, K/(q*gamma^2) >= 1 picks case 1 and 1/(q*gamma) >= 1
    picks case 3.
    """
    K, g, q, M = p.K, p.gamma, p.q, p.M
    rho = max(1.0, g / K)
    if g / K < 1.0:
        if K / (q * g * g) >= 1.0:
            case = 1
            eta = max(1.0, (g * g / (K * q ** (M - 1))) ** (1.0 / M))
        else:
            case = 2
            eta = g * g / K
    else:
        if 1.0 / (q * g) >= 1.0:
            case = 3
            eta = (g / q ** (M - 1)) ** (1.0 / M)
        else:
            case = 4
            eta = g
    return rho, eta, case


def ddf_service_time_order(p: OrderParams) -> float:
    """Mean frames to serve one packet under the two-phase baseline: max of the phase orders."""
    rho, eta, _ = ddf_service_components(p)
    return max(rho, eta)


def obdwf_throughput_bound(K: int, bandwidth: float, alpha: float) -> float:
    """Upper bound on opportunistic throughput: (W * alpha / 4) * log2(K), bits per second."""
    if K < 2:
        raise ValueError("K must be >= 2 for a positive bound")
    return bandwidth * alpha / 4.0 * math.log2(K)


def ddf_throughput_order(K: int, q: float, M: int) -> tuple[float, float]:
    """(best-case throughput order, optimizing gamma) for the two-phase baseline.

    The mobility-limited capacity is min{(K q^(M-1))^(1/M), log2(K q^(M-1))}
    when the log branch is positive, else the power branch alone, achieved at
    gamma* = max(1, sqrt(K q^(M-1))).
    """
    if K < 1 or M < 1 or not 0.0 < q <= 0.5:
        raise ValueError("need K >= 1, M >= 1, q in (0, 1/2]")
    x = K * q ** (M - 1)
    power_branch = x ** (1.0 / M)
    value = min(power_branch, math.log2(x)) if x > 1.0 else power_branch
    gamma_star = max(1.0, math.sqrt(x))
    return value, gamma_star


def obdwf_delay_order(p: OrderParams, lam1: float, lam2: float) -> float:
    """End-to-end delay order: queueing at the source plus relay wander time."""
    zeta = intake_time_order(p.K, p.gamma)
    if lam1 <= 0 or lam1 * zeta >= 1.0:
        raise StabilityError(f"need 0 < lam1 and lam1*zeta < 1, got lam1={lam1}, zeta={zeta}")
    queueing = lam2 * zeta / (lam1 * (1.0 - lam1 * zeta))
    return max(queueing, ddf_service_time_order(p))


def ddf_delay_order(p: OrderParams, lam1: float, lam2: float) -> float:
    """End-to-end delay order of the two-phase baseline (service second moment ~ service^2)."""
    ds = ddf_service_time_order(p)
    if lam1 <= 0 or lam1 * ds >= 1.0:
        raise StabilityError(f"need 0 < lam1 and lam1*Ds < 1, got lam1={lam1}, Ds={ds}")
    return lam2 * ds / (lam1 * (1.0 - lam1 * ds))


def stability_gain_order(p: OrderParams) -> float:
    """Ratio of maximum stable arrival rates, opportunistic over two-phase."""
    return ddf_service_time_order(p) / intake_time_order(p.K, p.gamma)


# ---------- batch-arrival single-server queueing ----------


@dataclass(frozen=True)
class ServiceMoments:
    """First and second moments of the per-packet service time, in frames."""

    b: float
    b2: float

    def __post_init__(self):
        if self.b < 1.0:
            raise ValueError("mean service is at least one frame")
        if self.b2 < self.b * self.b:
            raise ValueError("b2 < b^2 is not a valid second moment")


def mx_g1_wait(lam1: float, lam2: float, moments: ServiceMoments) -> float:
    """Mean frames a packet spends in a batch-arrival single-server queue.

    lam1/lam2 are the first/second moments of the per-frame batch size. The
    value counts waiting plus the packet's own service. lam1 = 0 degenerates
    to the bare service time.
    """
    if lam1 < 0 or lam2 < lam1:
        raise ValueError(f"invalid batch moments lam1={lam1}, lam2={lam2}")
    b, b2 = moments.b, moments.b2
    if lam1 == 0:
        return b
    if lam1 * b >= 1.0:
        raise StabilityError(f"offered load lam1*b = {lam1 * b} >= 1")
    num = lam1 * lam1 * b2 - lam1 * lam1 * b - lam1 * b + lam2 * b
    return num / (2.0 * lam1 * (1.0 - lam1 * b)) + b


def loglog_order_fit(x, y) -> tuple[float, float]:
    """(slope, stderr) of the least-squares line through (log x, log y)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 paired points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive data")
    from scipy import stats  # deferred: importing scipy.stats costs about a second

    res = stats.linregress(np.log(x), np.log(y))
    return float(res.slope), float(res.stderr)
