"""Disk deployment region, equal-area strip partition, and relay mobility.

The network lives on a disk of radius r whose boundary passes through the two
endpoints: the source sits at the origin, the destination at (2r, 0), and the
disk center at (r, 0). The disk is split into M vertical strips of equal area;
strip k (1-based) covers x in [boundaries[k-1], boundaries[k]), with a point on
an interior boundary belonging to the strip on its right and x = 2r belonging
to strip M.

Two mobility models are provided: a birth-death random walk on the strip
indices (a relay re-draws its point uniformly inside the new strip when the
strip changes) and a random-waypoint walk on the continuous disk. Fleet moves
the K relays of a run under either one, or holds them at pinned points, and
returns their d^alpha toward the source and the destination for a block of
frames at a time.

Each frame's strips follow from the last, so the strip walk runs for every
frame, including those that no step reads. Under the random walk one (n, K)
draw of walk uniforms gives every relay's strip in every frame, through
transition tables built from walk_next. Each uniform decides a step through
its code [u >= q] + [u >= 1-q]; the codes of _WALK_GROUP frames form a base-3
number, first frame lowest, and table i maps a walk state (S*strip, S =
3**_WALK_GROUP) plus that number to the state i+1 frames on. So one add and
one take per group give each group's start state, and _WALK_GROUP takes give
every row. Frames that no step reads are walked in chunks of budget / (K *
_WALK_CELL_BYTES) frames, keeping only each relay's last strip change of each
chunk.

A relay whose strip changes in frame f is placed uniformly in the new strip
by rejection from the strip's bounding box: mover rank i of the m movers of
frame f reads counter lanes (a*2m + i, a*2m + m + i) of the placement stream
on attempt a. The lanes do not depend on any other mover's outcome, and
between changes a relay keeps its point, so its point in frame f is a
function of its last change up to f alone. Changes in unread frames are
therefore not placed: after each chunk every relay that changed strip in it
carries its last change as (change frame, mover rank, mover count), in the
strip it still holds.

A block's changes are taken from one flatnonzero, in frame-major order, after
the carried changes, which give their relays' points before the block.
Placement works on them as flat arrays: attempt 0 runs over all of them at
once; the rejects then draw _PLACE_BATCH attempts per round in one call and
keep the first accepted one, which is the point a loop over single attempts
would keep. The d^alpha rows are forward-filled by change index: each cell
holds the index of its relay's last change up to its frame (a running maximum
down the rows), and one take per side reads the d^alpha values. The waypoint
walk carries targets and pauses from frame to frame and is stepped frame by
frame; pinned relays repeat one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import (
    STREAM_INIT,
    STREAM_PLACE,
    STREAM_WALK,
    STREAM_WAYPOINT,
    CounterRng,
    keyed_uniforms,
)

__all__ = [
    "DiskGeometry",
    "Fleet",
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


# ---------- relay fleet ----------

_MIN_SEPARATION = 1e-9  # distance clamp keeping path loss finite
# Strip walk: frames stepped per table lookup, and the bytes per (frame, relay)
# cell of walking frames that no step reads (walk draws and their temporaries,
# states and carry: 21-24 bytes under tracemalloc), which size their chunks
# from the byte budget: 397 frames at K = 110 and 1 MiB. Six frames per lookup
# make the tables 3.6 times larger; in saturation runs that moved glibc's heap
# into trimming, and the af decisions faulted their memory in again every block.
_WALK_GROUP = 5
_WALK_CELL_BYTES = 24
# Rejection placement: attempts drawn per retry round, and the attempt cap. An
# edge strip accepts about 0.7 of its box, so after one round of 8 a reject is
# still unplaced with probability about 1e-4.
_PLACE_BATCH = 8
_PLACE_ATTEMPTS = 200


class Fleet:
    """The K relays of a run: walked for every frame, placed on demand.

    dpow(f0, n) returns the d^alpha rows of every relay toward the source and
    toward the destination for frames f0 .. f0+n-1, each of shape (n, K). It
    first walks, without placing, the frames between the end of its last call
    and f0, so successive calls ask for later frames. Pinned positions, when
    given, override `mobility`; `budget` sizes the chunks of unread frames in
    bytes. direct_dpow is d^alpha between the source and the destination.
    """

    def __init__(self, geometry: DiskGeometry, K: int, alpha: float,
                 mobility: RandomWalk | RandomWaypoint,
                 pinned: tuple[tuple[float, float], ...] | None,
                 resample: bool, rng: CounterRng, budget: int):
        self.rng = rng
        self.K = K
        self.alpha = alpha
        r = geometry.radius
        self.radius = r
        self.direct_dpow = max(2.0 * r, _MIN_SEPARATION) ** alpha
        self.mobility = None if pinned is not None else mobility
        self._end = 0  # the frames before _end are walked
        positions = np.empty((K, 2), dtype=np.float64)
        if self.mobility is None:
            for j, (x, y) in enumerate(pinned):
                positions[j] = (x, y)
                region_of(geometry, (x, y))  # raises if outside the disk
        else:
            u = rng.uniforms(STREAM_INIT, 0, 2 * K)
            rad = r * np.sqrt(u[:K])
            ang = 2.0 * np.pi * u[K:]
            positions[:, 0] = r + rad * np.cos(ang)
            positions[:, 1] = rad * np.sin(ang)
        self.src_dpow, self.dst_dpow = self._dpow(positions[:, 0], positions[:, 1])
        if isinstance(self.mobility, RandomWalk):
            M = geometry.num_regions
            bounds = np.asarray(geometry.boundaries)
            regions = np.clip(np.searchsorted(bounds, positions[:, 0], side="right"), 1, M)
            q = mobility.q
            self.q = q
            # walk_next reads u only through (u < q, u >= 1-q), so the code
            # c = [u >= q] + [u >= 1-q] decides the step; representatives of the
            # three codes are u = 0, q and 1. next3 maps 3*strip + c to
            # 3*next strip; table i is next3 composed over the digits 0..i of
            # a group's base-3 code, from walk state S*strip.
            strips = np.repeat(np.arange(M + 1, dtype=np.int64), 3)
            reps = np.tile(np.array([0.0, q, 1.0]), M + 1)
            next3 = 3 * np.asarray(walk_next(strips, reps, q, M), dtype=np.int64)
            S = 3**_WALK_GROUP
            digits = np.tile(np.arange(S), M + 1)
            state3 = np.repeat(3 * np.arange(M + 1), S)
            self._tables = np.empty((_WALK_GROUP, (M + 1) * S), dtype=np.int64)
            for table in self._tables:
                state3 = next3.take(state3 + digits % 3)
                digits //= 3
                np.multiply(state3, S // 3, out=table)
            self._pow3 = 3.0 ** np.arange(_WALK_GROUP)
            # strip boxes indexed by walk state: right edge, width (negative), half-height
            x0, x1, hh = np.zeros((3, M + 1))
            x0[1:], x1[1:], hh[1:] = zip(*(region_box(geometry, k) for k in range(1, M + 1)))
            self._box_x1, self._box_dx, self._box_hh = (np.repeat(v, S) for v in (x1, x0 - x1, hh))
            self.resample = resample
            self._chunk = max(1, budget // (_WALK_CELL_BYTES * K))
            # walk state of the walked frames, row 0 from the frame before them
            self._s = S * regions.astype(np.int64)[None]
            # each relay's last unplaced change: frame (-1: none), mover rank, mover count
            self._pend = np.full((3, K), -1, dtype=np.int64)
        elif isinstance(self.mobility, RandomWaypoint):
            self.positions = positions
            u = rng.uniforms(STREAM_INIT, 1, 3 * K)
            trad = r * np.sqrt(u[:K])
            tang = 2.0 * np.pi * u[K : 2 * K]
            self.targets = np.column_stack((r + trad * np.cos(tang), trad * np.sin(tang)))
            m = self.mobility
            self.speeds = m.speed_min + (m.speed_max - m.speed_min) * u[2 * K :]
            self.pause_left = np.zeros(K, dtype=np.int64)
            self._pause_set = np.asarray(m.pause_set, dtype=np.int64)

    def _dpow(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d^alpha toward the source and the destination of the points (x, y)."""
        r2 = 2.0 * self.radius
        d2s = x**2 + y**2
        d2d = (x - r2) ** 2 + y**2
        np.maximum(d2s, _MIN_SEPARATION**2, out=d2s)
        np.maximum(d2d, _MIN_SEPARATION**2, out=d2d)
        if self.alpha == 4.0:
            return d2s * d2s, d2d * d2d
        half = 0.5 * self.alpha
        return d2s**half, d2d**half

    def dpow(self, f0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """d^alpha rows toward the source and the destination, frames f0 .. f0+n-1."""
        walked, self._end = self._end, f0 + n
        if isinstance(self.mobility, RandomWalk):
            if f0 > walked:
                self._skip_walk(walked, f0)
            self._s = self._walk_states(f0, n, self._s[-1])
            return self._fill_walk(f0)
        if isinstance(self.mobility, RandomWaypoint):
            pos = np.empty((n, self.K, 2))
            for f in range(walked, f0 + n):
                self._step_waypoint(f)
                if f >= f0:
                    pos[f - f0] = self.positions
            return self._dpow(pos[..., 0], pos[..., 1])
        shape = (n, self.K)
        return np.broadcast_to(self.src_dpow, shape), np.broadcast_to(self.dst_dpow, shape)

    def _skip_walk(self, f0: int, f1: int) -> None:
        """Walk the frames f0 .. f1-1, which no step reads, carrying their changes."""
        s, self._s = self._s, None
        for c0 in range(f0, f1, self._chunk):
            s0 = s[-1].copy()
            del s  # only the last state is kept while the next chunk is drawn
            s = self._walk_states(c0, min(self._chunk, f1 - c0), s0)
            self._carry(self._moved(s), c0)
        self._s = s[-1:].copy()

    def _walk_states(self, f0: int, n: int, s0: np.ndarray) -> np.ndarray:
        """(n+1, K) walk states: s0, then those of frames f0 .. f0+n-1."""
        K, r = self.K, _WALK_GROUP
        # The codes are held until the states are written: freed earlier, they
        # let glibc trim the heap, and later allocations (the af decisions)
        # faulted it in again, about 1,200 page faults per 1,500-frame af run.
        code = self.rng.block_uniforms(STREAM_WALK, f0, n, K)
        up = code >= 1.0 - self.q
        np.greater_equal(code, self.q, out=code)  # the uniforms become their codes
        code += up
        del up
        # each group's base-3 code, first frame lowest; the last group may be short
        G, rem = divmod(n, r)
        combo = np.empty((G + (rem > 0), K))
        np.matmul(self._pow3, code[: n - rem].reshape(G, r, K), out=combo[:G])
        if rem:
            np.matmul(self._pow3[:rem], code[n - rem :], out=combo[G])
        # plus each group's start state, the last table's entry for the group before
        idx = combo.astype(np.int64)
        idx[0] += s0
        take, add = self._tables[-1].take, np.add
        start = np.empty(K, dtype=np.int64)
        rows = iter(idx)
        prev = next(rows)
        for row in rows:
            take(prev, out=start, mode="clip")  # idx is always in range
            add(row, start, out=row)
            prev = row
        # frame i of every group (rows 1+i, 1+i+r, ...) from table i
        s = np.empty((n + 1, K), dtype=np.int64)
        s[0] = s0
        for i, table in enumerate(self._tables):
            out = s[1 + i :: r]
            table.take(idx[: len(out)], out=out, mode="clip")
        return s

    def _moved(self, s: np.ndarray) -> np.ndarray:
        """(n, K): whether each relay is placed anew in each frame of the states s."""
        return np.ones((len(s) - 1, self.K), dtype=bool) if self.resample else s[1:] != s[:-1]

    def _carry(self, moved: np.ndarray, f0: int) -> None:
        """Keep each relay's last change in rows `moved` (frames f0..) as unplaced."""
        n, K = moved.shape
        j = np.flatnonzero(moved.any(axis=0))
        if not j.size:
            return
        r = (n - 1) - moved[::-1].argmax(axis=0)[j]
        # movers counted flat, frame-major, from the earliest last change on:
        # cs[i] counts the moves among the first i cells
        r0 = int(r.min())
        cs = np.zeros(moved[r0:].size + 1, dtype=np.int32)
        np.cumsum(moved[r0:], out=cs[1:])
        at = (r - r0) * K
        self._pend[:, j] = (f0 + r, cs[at + j] - cs[at], cs[at + K] - cs[at])

    def _fill_walk(self, f0: int) -> tuple[np.ndarray, np.ndarray]:
        """d^alpha rows of the walked frames f0 .. f0+n-1, placing their changes."""
        s = self._s
        K, B = self.K, len(s) - 1
        # the changes of the block, frame-major, so mover rank follows relay order
        idx = np.flatnonzero(self._moved(s))
        row = idx // K
        starts = idx.searchsorted(np.arange(B + 1) * K)  # first change of each row
        frame = row + f0
        rank = np.arange(idx.size) - starts[row]
        count = np.diff(starts)[row]
        state = s[1:].reshape(-1).take(idx)
        # carried changes go first: each gives its relay's point before frame f0,
        # in the strip it still holds
        pend = self._pend
        held = np.flatnonzero(pend[0] >= 0)
        c = held.size
        if c:
            frame, rank, count = (np.concatenate((v, w)) for v, w in
                                  zip(pend[:, held], (frame, rank, count)))
            state = np.concatenate((s[0, held], state))
            pend[0, held] = -1
        src, dst = self._dpow(*self._place(frame, rank, count, state))
        # forward-fill by value index: j is relay j's last value, K + i change i's;
        # carried changes stand before row 0
        last = np.zeros((B, K), dtype=np.intp)
        last[0] = np.arange(K)
        last[0, held] = np.arange(K, K + c)
        np.put(last, idx, np.arange(K + c, K + c + idx.size))
        np.maximum.accumulate(last, axis=0, out=last)
        src_rows = np.concatenate((self.src_dpow, src)).take(last)
        dst_rows = np.concatenate((self.dst_dpow, dst)).take(last)
        self.src_dpow = src_rows[-1].copy()
        self.dst_dpow = dst_rows[-1].copy()
        return src_rows, dst_rows

    def _place(self, frames, rank, movers, state) -> tuple[np.ndarray, np.ndarray]:
        """Uniform points (x, y) in each change's strip, by lane-keyed rejection;
        `state` is the walk state S*strip that each change moved into.

        Attempt 0 runs over every change; the rejects then draw
        _PLACE_BATCH attempts per round in one call and keep the first
        accepted one. Lanes are keyed by attempt, so drawing attempts past
        the first accepted one changes nothing.
        """
        bases = self.rng.frame_bases(STREAM_PLACE, frames)
        x1 = self._box_x1.take(state)
        dx = self._box_dx.take(state)
        hh = self._box_hh.take(state)
        lanes = np.stack((rank, rank + movers))  # attempt a adds a*2m to both
        x, y, ok = self._attempt(bases, lanes, x1, dx, hh)
        todo = np.flatnonzero(~ok)
        a0 = 1
        while todo.size:
            if a0 >= _PLACE_ATTEMPTS:
                raise RuntimeError("strip rejection sampling failed to converge")
            a = np.arange(a0, min(a0 + _PLACE_BATCH, _PLACE_ATTEMPTS))[:, None, None]
            xa, ya, oka = self._attempt(bases[todo], lanes[:, todo] + a * (2 * movers[todo]),
                                        x1[todo], dx[todo], hh[todo])
            first = (oka.argmax(axis=0), np.arange(todo.size))
            hit = oka[first]
            x[todo[hit]] = xa[first][hit]
            y[todo[hit]] = ya[first][hit]
            todo = todo[~hit]
            a0 += _PLACE_BATCH
        return x, y

    def _attempt(self, bases, lanes, x1, dx, hh):
        """Points and acceptance of attempts whose (x, y) lanes are lanes[..., 0 or 1, :]."""
        r = self.radius
        u = keyed_uniforms(bases, lanes)
        x = x1 + dx * u[..., 0, :]  # u in (0,1]: the strip's right edge is excluded
        y = hh * (2.0 * u[..., 1, :] - 1.0)
        return x, y, (x - r) ** 2 + y * y <= r * r

    def _step_waypoint(self, frame: int) -> None:
        m = self.mobility
        K = self.K
        r = self.radius
        paused = self.pause_left > 0
        self.pause_left[paused] -= 1
        moving = ~paused
        if np.any(moving):
            delta = self.targets[moving] - self.positions[moving]
            dist = np.hypot(delta[:, 0], delta[:, 1])
            spd = self.speeds[moving]
            arriving = dist <= spd
            mov_idx = np.nonzero(moving)[0]
            go = mov_idx[~arriving]
            if go.size:
                f = (spd[~arriving] / dist[~arriving])[:, None]
                self.positions[go] += f * delta[~arriving]
            arr = mov_idx[arriving]
            if arr.size:
                self.positions[arr] = self.targets[arr]
                up = self.rng.uniforms(STREAM_WAYPOINT, frame, K)[arr]
                pi = np.minimum((up * self._pause_set.size).astype(np.int64),
                                self._pause_set.size - 1)
                self.pause_left[arr] = self._pause_set[pi]
                ur = self.rng.uniforms(STREAM_WAYPOINT, frame, K, start=K)[arr]
                ua = self.rng.uniforms(STREAM_WAYPOINT, frame, K, start=2 * K)[arr]
                rad = r * np.sqrt(ur)
                self.targets[arr, 0] = r + rad * np.cos(2.0 * np.pi * ua)
                self.targets[arr, 1] = rad * np.sin(2.0 * np.pi * ua)
                us = self.rng.uniforms(STREAM_WAYPOINT, frame, K, start=3 * K)[arr]
                self.speeds[arr] = m.speed_min + (m.speed_max - m.speed_min) * us
