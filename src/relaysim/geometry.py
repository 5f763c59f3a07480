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
frame, including those that no step reads. Under the random walk it reads the
mixed walk counters z directly: walk_next reads a uniform u only through its
code [u >= q] + [u >= 1-q], and u = ((z >> 11) + 1) * 2**-53 exactly, so the
code is [z >= Z(q)] + [z >= Z(1-q)] with Z = rng.counter_threshold, bit for
bit. The codes of _WALK_GROUP frames form a base-3 number, first frame lowest;
added to a relay's walk state S*strip (S = 3**_WALK_GROUP) before the group,
it is the group index, and table i maps a group index to the state i frames
into the group. So one take and one add per group chain the group indices,
and a filled block takes every row from them, _WALK_GROUP takes in all.
Frames that no step reads are walked in chunks of at most budget / (K *
_WALK_CELL_BYTES) frames in buffers kept across runs, and only the frames
that hold some relay's last change of a chunk are expanded into states: a
table gives each group index the last frame of the group that changes
strip, so each relay's last change is found from its last changing group.

A relay whose strip changes in frame f is placed uniformly in the new strip
by rejection from the strip's bounding box: mover rank i of the m movers of
frame f reads counter lanes (a*2m + i, a*2m + m + i) of the placement stream
on attempt a. The lanes do not depend on any other mover's outcome, and
between changes a relay keeps its point, so its point in frame f is a
function of its last change up to f alone. Changes in unread frames are
therefore not placed: after each chunk every relay that changed strip in it
carries its last change as (change frame, mover rank, mover count), in the
strip it still holds; a relay that keeps its strip through a chunk keeps the
change it carried from an earlier one.

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
    counter_threshold,
    keyed_uniforms,
    scratch,
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
# cell of the walk's scratch buffers (rng.scratch), which hold one chunk of
# unread frames: the mixed counters and their mixing scratch (16), the two
# code bytes (2), and the groups' indices, base-3 codes and last changes (2).
# No state or carry is kept per unread cell. So a chunk is 476 frames at
# K = 110 and 1 MiB. Six frames per lookup
# make the tables 3.6 times larger; in saturation runs that moved glibc's heap
# into trimming, and the af decisions faulted their memory in again every block.
_WALK_GROUP = 5
_WALK_CELL_BYTES = 20
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
            # walk_next reads u only through (u < q, u >= 1-q), so the code
            # c = [u >= q] + [u >= 1-q] decides the step; representatives of the
            # three codes are u = 0, q and 1, and the mixed counters give the
            # code through counter_threshold. next3 maps 3*strip + c to
            # 3*next strip; table i is next3 composed over the digits 0..i-1 of
            # a group's base-3 code, from walk state S*strip (table 0).
            self._z_q = counter_threshold(q), counter_threshold(1.0 - q)
            strips = np.repeat(np.arange(M + 1, dtype=np.intp), 3)
            reps = np.tile(np.array([0.0, q, 1.0]), M + 1)
            next3 = 3 * np.asarray(walk_next(strips, reps, q, M), dtype=np.intp)
            S = 3**_WALK_GROUP
            digits = np.tile(np.arange(S), M + 1)
            state3 = np.repeat(3 * np.arange(M + 1), S)
            self._tables = np.empty((_WALK_GROUP + 1, (M + 1) * S), dtype=np.intp)
            self._tables[0] = state3 * (S // 3)
            for table in self._tables[1:]:
                state3 = next3.take(state3 + digits % 3)
                digits //= 3
                np.multiply(state3, S // 3, out=table)
            # last[L]: the last of a group's first L frames that changes strip, or -1
            self._last = np.full(self._tables.shape, -1, dtype=np.int8)
            for i, changes in enumerate(self._tables[1:] != self._tables[:-1]):
                self._last[i + 1 :, changes] = i
            # strip boxes indexed by walk state: right edge, width (negative), half-height
            x0, x1, hh = np.zeros((3, M + 1))
            x0[1:], x1[1:], hh[1:] = zip(*(region_box(geometry, k) for k in range(1, M + 1)))
            self._box_x1, self._box_dx, self._box_hh = (np.repeat(v, S) for v in (x1, x0 - x1, hh))
            self.resample = resample
            self._chunk = max(1, budget // (_WALK_CELL_BYTES * K))
            # walk state of the last walked frame, or of the start
            self._state = S * regions.astype(np.intp)
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
            return self._fill_walk(f0, self._walk_rows(f0, n))
        if isinstance(self.mobility, RandomWaypoint):
            pos = np.empty((n, self.K, 2))
            for f in range(walked, f0 + n):
                self._step_waypoint(f)
                if f >= f0:
                    pos[f - f0] = self.positions
            return self._dpow(pos[..., 0], pos[..., 1])
        shape = (n, self.K)
        return np.broadcast_to(self.src_dpow, shape), np.broadcast_to(self.dst_dpow, shape)

    def _walk_groups(self, f0: int, n: int) -> np.ndarray:
        """Walk frames f0 .. f0+n-1 by groups of _WALK_GROUP frames, the last one
        possibly short: row g is relay-wise S*strip before group g plus the
        group's base-3 code, first frame lowest. Leaves the state of the last frame."""
        K, r = self.K, _WALK_GROUP
        groups = -(-n // r)
        z = self.rng.block_counters(STREAM_WALK, f0, n, K, scratch("walk.z", (n, K), np.uint64),
                                    scratch("walk.t", (n, K), np.uint64))
        code = scratch("walk.code", (groups * r, K), np.uint8)
        hi = scratch("walk.hi", (n, K), bool)
        np.greater_equal(z, self._z_q[0], out=code[:n].view(bool))
        np.greater_equal(z, self._z_q[1], out=hi)
        code[:n] += hi
        code[n:] = 0  # a short last group has no later digits
        digits = code.reshape(groups, r, K)
        combo = scratch("walk.combo", (groups, K), np.uint8)
        combo[:] = digits[:, r - 1]
        for i in range(r - 2, -1, -1):
            combo *= 3
            combo += digits[:, i]
        # plus each group's start state, the full table's entry for the group before
        idx = scratch("walk.idx", (groups, K), np.intp)
        idx[:] = combo
        idx[0] += self._state
        take, add, start = self._tables[r].take, np.add, scratch("walk.start", (K,), np.intp)
        prev = idx[0]
        for row in idx[1:]:
            take(prev, out=start, mode="clip")  # idx is always in range
            add(row, start, out=row)
            prev = row
        self._tables[n - (groups - 1) * r].take(prev, out=self._state, mode="clip")
        return idx

    def _walk_rows(self, f0: int, n: int) -> np.ndarray:
        """(n+1, K) walk states: the last walked frame's, then those of frames f0 .. f0+n-1."""
        r = _WALK_GROUP
        s = scratch("walk.rows", (n + 1, self.K), np.intp)
        s[0] = self._state
        idx = self._walk_groups(f0, n)
        # frame i of every group (rows 1+i, 1+i+r, ...) from table i+1
        for i in range(r):
            out = s[1 + i :: r]
            self._tables[i + 1].take(idx[: len(out)], out=out, mode="clip")
        return s

    def _skip_walk(self, f0: int, f1: int) -> None:
        """Walk the frames f0 .. f1-1, which no step reads, in chunks, keeping the
        last change of every relay that changes strip as unplaced."""
        K, r, pend = self.K, _WALK_GROUP, self._pend
        for c0 in range(f0, f1, self._chunk):
            n = min(self._chunk, f1 - c0)
            idx = self._walk_groups(c0, n)
            if self.resample:  # every relay is placed anew in every frame
                pend[0], pend[1], pend[2] = c0 + n - 1, np.arange(K), K
                continue
            # each relay's last group with a change, and its last change in it
            G = n // r
            last = scratch("walk.last", idx.shape, np.int8)
            self._last[r].take(idx[:G], out=last[:G])
            if G < len(idx):
                self._last[n - G * r].take(idx[G], out=last[G])
            back = (last >= 0)[::-1]
            after = back.argmax(axis=0)  # groups after the last one with a change
            j = np.flatnonzero(back[after, np.arange(K)])
            if not j.size:
                continue
            g = len(idx) - 1 - after[j]
            frame = g * r + last[g, j]
            # the frames of those changes are the only ones expanded: every
            # relay's changes there give the mover ranks and counts
            frames, at = np.unique(frame, return_inverse=True)
            g, i = np.divmod(frames, r)
            rows = idx[g]
            moved = np.cumsum(self._tables[i[:, None] + 1, rows] != self._tables[i[:, None], rows],
                              axis=1)
            pend[0, j] = c0 + frame
            pend[1, j] = moved[at, j] - 1
            pend[2, j] = moved[at, -1]

    def _fill_walk(self, f0: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d^alpha rows of frames f0 .. f0+n-1 from their walk states s, placing their changes."""
        K, B = self.K, len(s) - 1
        # the changes of the block, frame-major, so mover rank follows relay order
        moved = np.ones((B, K), dtype=bool) if self.resample else s[1:] != s[:-1]
        idx = np.flatnonzero(moved)
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
