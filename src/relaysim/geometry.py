"""Disk deployment region, equal-area strip partition, and node mobility.

The network lives on a disk of radius r whose boundary passes through the two
endpoints: the source sits at the origin, the destination at (2r, 0), and the
disk center at (r, 0). The disk is split into M vertical strips of equal area;
strip k (1-based) covers x in [boundaries[k-1], boundaries[k]), with a point on
an interior boundary belonging to the strip on its right and x = 2r belonging
to strip M.

Two mobility models are provided: a birth-death random walk on the strip
indices (a relay re-draws its point uniformly inside the new strip when the
strip changes) and a random-waypoint walk on the continuous disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiskGeometry",
    "RandomWalk",
    "RandomWaypoint",
    "segment_area",
    "compute_region_boundaries",
    "build_disk",
    "region_of",
    "walk_next",
]


def segment_area(radius: float, x: float) -> float:
    """Disk area to the left of the vertical line at x (disk centered at (radius, 0))."""
    u = radius - x  # signed distance from the line to the center
    c = min(1.0, max(-1.0, u / radius))
    return radius * radius * math.acos(c) - u * math.sqrt(max(radius * radius - u * u, 0.0))


def compute_region_boundaries(radius: float, num_regions: int, xtol: float = 1e-12) -> list[float]:
    """x-coordinates of the M+1 strip boundaries carving the disk into equal areas.

    Interior boundaries are found by bisection on the segment-area function;
    the ends are exactly 0 and 2*radius.
    """
    if num_regions < 1:
        raise ValueError(f"num_regions must be >= 1, got {num_regions}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    total = math.pi * radius * radius
    bounds = [0.0]
    for i in range(1, num_regions):
        target = total * i / num_regions
        lo, hi = 0.0, 2.0 * radius
        while hi - lo > xtol:
            mid = 0.5 * (lo + hi)
            if segment_area(radius, mid) < target:
                lo = mid
            else:
                hi = mid
        bounds.append(0.5 * (lo + hi))
    bounds.append(2.0 * radius)
    return bounds


@dataclass(frozen=True)
class DiskGeometry:
    """Disk with source/destination on opposite boundary points and M equal-area strips."""

    radius: float
    num_regions: int
    boundaries: tuple[float, ...]

    @property
    def source(self) -> tuple[float, float]:
        return (0.0, 0.0)

    @property
    def dest(self) -> tuple[float, float]:
        return (2.0 * self.radius, 0.0)

    @property
    def center(self) -> tuple[float, float]:
        return (self.radius, 0.0)

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius


def build_disk(radius: float, num_regions: int) -> DiskGeometry:
    """Construct the geometry and verify the equal-area invariant (1e-9 relative)."""
    bounds = compute_region_boundaries(radius, num_regions)
    target = math.pi * radius * radius / num_regions
    for k in range(num_regions):
        a = segment_area(radius, bounds[k + 1]) - segment_area(radius, bounds[k])
        if abs(a - target) > 1e-9 * target:
            raise AssertionError(f"strip {k + 1} area {a} deviates from {target}")
    return DiskGeometry(radius=radius, num_regions=num_regions, boundaries=tuple(bounds))


def region_of(geometry: DiskGeometry, point: tuple[float, float]) -> int:
    """1-based strip index of a point; boundary points belong to the right strip."""
    x, y = point
    r = geometry.radius
    if (x - r) ** 2 + y * y > r * r * (1.0 + 1e-12):
        raise ValueError(f"point {point} lies outside the disk")
    if x >= geometry.boundaries[-1]:
        return geometry.num_regions
    k = int(np.searchsorted(geometry.boundaries, x, side="right"))
    return max(k, 1)


def region_box(geometry: DiskGeometry, region: int) -> tuple[float, float, float]:
    """Bounding box (x_lo, x_hi, half_height) of a strip."""
    x0 = geometry.boundaries[region - 1]
    x1 = geometry.boundaries[region]
    c, r = geometry.radius, geometry.radius
    if x0 <= c <= x1:
        h = r
    else:
        d = min(abs(x0 - c), abs(x1 - c))
        h = math.sqrt(max(r * r - d * d, 0.0))
    return x0, x1, h


# ---------- mobility models ----------


@dataclass(frozen=True)
class RandomWalk:
    """Strip-index walk: step -1/+1 with probability q each, else stay; edges reflect the lost direction into staying."""

    q: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.q <= 0.5:
            raise ValueError(f"q must be in [0, 1/2], got {self.q}")


@dataclass(frozen=True)
class RandomWaypoint:
    """Continuous-disk waypoint walk; speeds are per frame, pauses in whole frames."""

    speed_min: float = 0.1
    speed_max: float = 0.6
    pause_set: tuple[int, ...] = tuple(range(11))

    def __post_init__(self):
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        if len(self.pause_set) == 0 or any(p < 0 for p in self.pause_set):
            raise ValueError("pause_set must be non-empty and non-negative")


def walk_next(region, u, q: float, num_regions: int):
    """Next strip index given current index and a uniform draw. Array-aware.

    Interior strips move down when u < q and up when u >= 1-q; strip 1 moves up
    when u < q, strip M moves down when u < q; a single strip never moves.
    """
    if num_regions == 1:
        return region
    region = np.asarray(region)
    u = np.asarray(u)
    down = (u < q) & (region > 1)
    up = np.where(region == 1, u < q, (u >= 1.0 - q) & (region < num_regions))
    out = region + up.astype(region.dtype) - down.astype(region.dtype)
    return out if out.ndim else int(out)
