"""Helpers shared by the tests: a fixed-value channel frame, and the
probability-generating-function route to the batch queue's mean sojourn,
the reference that analysis.mx_g1_wait is checked against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from relaysim.analysis import StabilityError
from relaysim.protocols import FrameLinks


def frame_links(phy, h_src, h_dst, h_direct, dist_src, dist_dst, dist_direct) -> FrameLinks:
    """One-frame view of fixed values: distances, not premultiplied powers."""
    a = phy.alpha
    links = FrameLinks(phy, float(dist_direct) ** a)
    links.fill(
        np.asarray(h_src, dtype=np.float64)[None],
        np.asarray(h_dst, dtype=np.float64)[None],
        np.array([float(h_direct)]),
        (np.asarray(dist_src, dtype=np.float64) ** a)[None],
        (np.asarray(dist_dst, dtype=np.float64) ** a)[None],
    )
    return links


@dataclass(frozen=True)
class PgfSpec:
    """Finite-support batch-size and service-time pmfs, as p.g.f. evaluators."""

    arrival_pmf: dict[int, float]
    service_pmf: dict[int, float]

    def __post_init__(self):
        for name, pmf in (("arrival", self.arrival_pmf), ("service", self.service_pmf)):
            if not pmf:
                raise ValueError(f"{name} pmf is empty")
            if abs(sum(pmf.values()) - 1.0) > 1e-12:
                raise ValueError(f"{name} pmf sums to {sum(pmf.values())}, expected 1")
            if any(k < 0 or p < 0 for k, p in pmf.items()):
                raise ValueError(f"{name} pmf has negative support or mass")
        if any(k < 1 for k in self.service_pmf):
            raise ValueError("service times are at least one frame")

    def arrival_pgf(self, z):
        return sum(p * z**k for k, p in self.arrival_pmf.items())

    def service_pgf(self, z):
        return sum(p * z**k for k, p in self.service_pmf.items())

    @property
    def lam1(self) -> float:
        return sum(k * p for k, p in self.arrival_pmf.items())

    @property
    def b(self) -> float:
        return sum(k * p for k, p in self.service_pmf.items())


def pgf_mean_system(spec: PgfSpec) -> float:
    """Mean frames in system from the queue-length p.g.f., independent of mx_g1_wait.

    E[N] is extracted as P'(1) by central differences with Richardson
    extrapolation across the removable singularity at z = 1 (the p.g.f. is
    analytic there), and converted to time by Little's law.
    """
    lam1, b = spec.lam1, spec.b
    if lam1 == 0:
        return b
    if lam1 * b >= 1.0:
        raise StabilityError(f"offered load lam1*b = {lam1 * b} >= 1")

    def pgf(z: float) -> float:
        bl = spec.service_pgf(spec.arrival_pgf(z))
        return (1.0 - lam1 * b) * (1.0 - z) * bl / (bl - z)

    def central(h: float) -> float:
        return (pgf(1.0 + h) - pgf(1.0 - h)) / (2.0 * h)

    h = 1e-3
    mean_n = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return mean_n / lam1
