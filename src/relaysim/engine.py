"""Frame-synchronous Monte Carlo engine.

Each frame advances in a fixed order: batch arrivals join the source queue,
relays move, fresh fading holds for the frame, the protocol acts (broadcast /
relay forward / idle), and metrics update. All randomness comes from
counter-based streams keyed by (seed, stream, frame, index), so reruns are
bit-identical and a value does not depend on when it is drawn.

Mobility, placement, distances, fading and connectivity do not depend on
protocol state, so they are computed for a block of frames at once,
vectorized across frames and relays. The frame loop then only runs arrivals,
the protocol step on that frame's rows, and bookkeeping. A block holds
_BLOCK_BYTES / (K * _CELL_BYTES) frames, about 1 MiB of arrays whatever K is;
the block size never changes a result.

The loop pays only for busy frames. A frame whose arrivals leave the source
queue and the relay bank empty is idle for every protocol, and so is every
frame after it up to the next arrival, so the loop jumps over that span and
books it as idle. Each frame's strips follow from the last, so the strip walk
still runs for every frame: _Fleet.skip walks the frames that no step reads
in chunks of about 1 MiB of walk arrays, keeping only each relay's last strip
change of each chunk, unplaced; the block that starts at the next stepped
frame is then walked (_Fleet.walk) and its placement and fading drawn
(_Fleet.fill, FrameLinks.fill), the carried changes placed first. The walk
steps _WALK_GROUP frames per lookup in tables built from walk_next. Runs that
read every frame (connectivity tracking, the trace) skip nothing.

Placement works on a block's strip changes as flat arrays: one rejection
attempt for every change, then a few attempts at a time for the rejects,
each change keeping its first accepted attempt; the d^alpha rows are then
forward-filled from the changes by index. Packet conservation is checked
every conservation_check_every frames; the first failing check is kept in
RunMetrics.conservation_failure with its balance terms.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import GainTable, PhyParams, Rayleigh
from .geometry import (
    DiskGeometry,
    RandomWalk,
    RandomWaypoint,
    build_disk,
    region_box,
    region_of,
    walk_next,
)
from .protocols import (
    PROTOCOL_NAMES,
    ROLE_BROADCAST,
    ROLE_FORWARD,
    ROLE_IDLE,
    FrameLinks,
    make_protocol,
)
from .rng import (
    STREAM_ARRIVAL,
    STREAM_FADE_DIRECT,
    STREAM_FADE_DST,
    STREAM_FADE_SRC,
    STREAM_INIT,
    STREAM_PLACE,
    STREAM_PROTO,
    STREAM_WALK,
    STREAM_WAYPOINT,
    CounterRng,
    FrameStream,
    keyed_uniforms,
)
from .traffic import ArrivalDistribution, InfiniteBacklog, Packet, RelayBank, SourceQueue

__all__ = [
    "SimConfig",
    "RunMetrics",
    "StabilityVerdict",
    "ConservationFailure",
    "RateBracket",
    "run",
    "assess_stability",
    "max_stable_rate",
    "replicate",
    "aggregate_metric",
    "sweep",
    "apply_axis",
    "SweepRow",
    "effective_rate",
    "effective_packet_bits",
    "validate_config",
    "SWEEP_AXES",
]

_MIN_SEPARATION = 1e-9  # distance clamp keeping path loss finite

_DEFAULT_ARRIVALS = ((15, 0.001), (0, 0.999))


@dataclass(frozen=True)
class SimConfig:
    """One simulation run. Fields default to the reference scenario:
    110 relays on a radius-2.5 disk cut into 5 strips, walk rate q = 1/5,
    20 dB power, 1 MHz bandwidth, 5 ms frames, signalling rate W*log2(K),
    and rare 15-packet arrival bursts."""

    K: int = 110
    protocol: str = "obdwf"
    horizon: int = 200_000
    seed: int = 1
    warmup: int | None = None  # None -> horizon // 10
    radius: float = 2.5
    num_regions: int = 5
    mobility: RandomWalk | RandomWaypoint = RandomWalk()
    bandwidth: float = 1e6
    power: float = 100.0
    xi: float = 1.0
    alpha: float = 4.0
    rate: float | None = None  # None -> bandwidth * log2(K)
    tau: float = 5e-3
    fading: Rayleigh | GainTable = Rayleigh()
    arrival_pmf: tuple[tuple[int, float], ...] | None = _DEFAULT_ARRIVALS
    packet_bits: float | None = None  # None -> rate * tau
    buffer_capacity: int | None = None
    n_active: int = 5
    n_decode: int = 5
    direct_delivery: bool = True
    infinite_backlog: bool = False
    pinned_positions: tuple[tuple[float, float], ...] | None = None
    resample_within_region: bool = False
    track_connectivity: bool = False
    record_trace: bool = False
    traj_stride: int | None = None  # None -> auto
    abort_queue_threshold: int | None = None
    conservation_check_every: int = 10_000


def effective_rate(cfg: SimConfig) -> float:
    if cfg.rate is not None:
        return cfg.rate
    if cfg.K < 2:
        raise ValueError("the default rate rule W*log2(K) needs K >= 2; set rate explicitly")
    return cfg.bandwidth * math.log2(cfg.K)


def effective_packet_bits(cfg: SimConfig) -> float:
    return cfg.packet_bits if cfg.packet_bits is not None else effective_rate(cfg) * cfg.tau


def effective_warmup(cfg: SimConfig) -> int:
    return cfg.warmup if cfg.warmup is not None else cfg.horizon // 10


def build_phy(cfg: SimConfig) -> PhyParams:
    return PhyParams(
        bandwidth=cfg.bandwidth, power=cfg.power, rate=effective_rate(cfg),
        tau=cfg.tau, alpha=cfg.alpha, xi=cfg.xi,
    )


def validate_config(cfg: SimConfig) -> list[str]:
    """Hard-check a config; returns human-readable warnings for soft issues."""
    warnings = []
    if cfg.K < 1:
        raise ValueError("K must be >= 1")
    if cfg.horizon < 1:
        raise ValueError("horizon must be >= 1")
    if cfg.warmup is not None and cfg.warmup < 0:
        raise ValueError(f"warmup must be None or >= 0, got {cfg.warmup}")
    if effective_warmup(cfg) >= cfg.horizon:
        raise ValueError("warmup must be smaller than horizon")
    if cfg.traj_stride is not None and cfg.traj_stride < 0:
        raise ValueError(f"traj_stride must be None, 0 (both: auto) or >= 1, got {cfg.traj_stride}")
    if cfg.conservation_check_every < 0:
        raise ValueError(f"conservation_check_every must be >= 0 (0: never), "
                         f"got {cfg.conservation_check_every}")
    protocol = cfg.protocol.lower()
    if protocol not in PROTOCOL_NAMES:
        raise ValueError(f"unknown protocol {cfg.protocol!r}; expected one of {PROTOCOL_NAMES}")
    if not cfg.direct_delivery and protocol not in ("ddf", "dfsc"):
        raise ValueError(f"direct_delivery=False applies to ddf and dfsc only; "
                         f"{protocol} cannot honour it")
    if protocol == "dfsc" and cfg.n_decode > cfg.K:
        raise ValueError(f"dfsc needs n_decode <= K, got n_decode={cfg.n_decode} with K={cfg.K}")
    if cfg.abort_queue_threshold is not None and cfg.abort_queue_threshold < 0:
        raise ValueError("abort_queue_threshold must be None or >= 0")
    if not cfg.infinite_backlog and cfg.arrival_pmf is None:
        raise ValueError("need an arrival pmf unless infinite_backlog is set")
    if cfg.pinned_positions is not None and len(cfg.pinned_positions) != cfg.K:
        raise ValueError("pinned_positions must list exactly K points")
    rate = effective_rate(cfg)
    bits = effective_packet_bits(cfg)
    slot_bits = rate * cfg.tau
    if abs(bits - slot_bits) > 1e-9 * slot_bits:
        frames_per_packet = max(1, math.ceil(bits / slot_bits))
        warnings.append(
            f"packet_bits={bits:g} differs from rate*tau={slot_bits:g}; "
            f"transfers stay one frame per packet, so one packet is worth "
            f"{frames_per_packet} nominal slot(s) in throughput terms"
        )
    return warnings


# ---------- stability ----------


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    slope: float  # packets per frame, least squares over the post-warmup window
    tail_ratio: float  # final-decile mean over overall post-warmup mean
    mean_queue: float
    n_samples: int
    window_frames: int


def assess_stability(
    trajectory,
    stride: int = 1,
    warmup_frames: int = 0,
    slope_eps: float = 1e-4,
    tail_factor: float = 3.0,
    min_window: int = 200_000,
) -> StabilityVerdict:
    """Classify a queue-length trajectory as stable or growing.

    Stable means the least-squares slope over the post-warmup window stays
    below slope_eps packets/frame AND the final-decile mean stays within
    tail_factor of the overall post-warmup mean. The window must span at
    least min_window frames.
    """
    q = np.asarray(trajectory, dtype=np.float64)
    frames = np.arange(q.size, dtype=np.float64) * stride
    post = frames >= warmup_frames
    q, frames = q[post], frames[post]
    if q.size < 10:
        raise ValueError("trajectory has fewer than 10 post-warmup samples")
    window = frames[-1] - frames[0]
    if window < min_window:
        raise ValueError(f"post-warmup window {window:.0f} frames is below {min_window}")
    slope = float(np.polyfit(frames, q, 1)[0])
    overall = float(q.mean())
    tail = float(q[-max(1, q.size // 10):].mean())
    tail_ratio = tail / overall if overall > 0 else (0.0 if tail == 0 else math.inf)
    stable = slope < slope_eps and tail <= tail_factor * overall
    return StabilityVerdict(stable, slope, tail_ratio, overall, int(q.size), int(window))


# ---------- relay fleet ----------

# Frames per block: the block's arrays (walk draws and strips, fading gains,
# d^alpha rows, connectivity, and the temporaries of drawing them) take about
# _CELL_BYTES per (frame, relay) cell, so a block holds _BLOCK_BYTES / (K *
# _CELL_BYTES) frames: 74 at K = 110, one frame from K = 8192 up.
_BLOCK_BYTES = 1 << 20
_CELL_BYTES = 128
# Strip walk: frames stepped per table lookup, and the bytes per (frame, relay)
# cell of walking frames that no step reads (walk draws and their temporaries,
# states and carry: 21-24 bytes under tracemalloc), which size their chunks
# from _BLOCK_BYTES: 397 frames at K = 110. Six frames per lookup make the
# tables 3.6 times larger; in saturation runs that moved glibc's heap into
# trimming, and the af decisions faulted their memory in again every block.
_WALK_GROUP = 5
_WALK_CELL_BYTES = 24
# Rejection placement: attempts drawn per retry round, and the attempt cap. An
# edge strip accepts about 0.7 of its box, so after one round of 8 a reject is
# still unplaced with probability about 1e-4.
_PLACE_BATCH = 8
_PLACE_ATTEMPTS = 200


class _Fleet:
    """Relay mobility: walked for every frame, placed on demand.

    skip(f0, n) steps every relay through frames f0 .. f0+n-1, which no step
    reads. walk(f0, n) steps them through the block f0 .. f0+n-1, and fill()
    then returns the d^alpha rows of every relay toward the source and toward
    the destination for the block's frames, each of shape (n, K). The engine
    skips the frames up to the first stepped frame of a block and walks and
    fills the block from that frame on.

    Under the random walk one (n, K) draw of walk uniforms gives every relay's
    strip in every frame, through transition tables built from walk_next.
    Each uniform decides a step through its code [u >= q] + [u >= 1-q]; the
    codes of _WALK_GROUP frames form a base-3 number, first frame lowest, and
    table i maps a walk state (S*strip, S = 3**_WALK_GROUP) plus that number
    to the state i+1 frames on. So one add and one take per group give each
    group's start state, and _WALK_GROUP takes give every row. Skipped frames
    are walked in chunks of _BLOCK_BYTES / (K * _WALK_CELL_BYTES) frames.

    A relay whose strip changes in frame f is placed uniformly in the new
    strip by rejection from the strip's bounding box: mover rank i of the m
    movers of frame f reads counter lanes (a*2m + i, a*2m + m + i) of the
    placement stream on attempt a. The lanes do not depend on any other
    mover's outcome, and between changes a relay keeps its point, so its point
    in frame f is a function of its last change up to f alone. Changes in
    skipped frames are not placed: after each chunk every relay that changed
    strip in it carries its last change as (change frame, mover rank, mover
    count), in the strip it still holds.

    fill() takes the changes of the block from one flatnonzero, in
    frame-major order, after the carried changes, which give their relays'
    points before the block. Attempt 0 runs over all of them at once; the
    rejects then draw _PLACE_BATCH attempts per round in one call and keep
    the first accepted one, which is the point a loop over single attempts
    would keep. The d^alpha rows are forward-filled by change index: each
    cell holds the index of its relay's last change up to its frame (a
    running maximum down the rows), and one take per side reads the d^alpha
    values. The waypoint walk carries targets and pauses from frame to frame
    and is stepped frame by frame; pinned relays repeat one row.
    """

    def __init__(self, cfg: SimConfig, geometry: DiskGeometry, rng: CounterRng):
        self.rng = rng
        K = cfg.K
        self.K = K
        self.alpha = cfg.alpha
        r = geometry.radius
        self.radius = r
        self.mobility = None if cfg.pinned_positions is not None else cfg.mobility
        self.f0 = self.n = 0  # the walked block
        positions = np.empty((K, 2), dtype=np.float64)
        if self.mobility is None:
            for j, (x, y) in enumerate(cfg.pinned_positions):
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
            M = cfg.num_regions
            bounds = np.asarray(geometry.boundaries)
            regions = np.clip(np.searchsorted(bounds, positions[:, 0], side="right"), 1, M)
            q = cfg.mobility.q
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
            self.resample = cfg.resample_within_region
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

    def walk(self, f0: int, n: int) -> None:
        """Step the relays through the block f0 .. f0+n-1 and keep it for fill()."""
        if isinstance(self.mobility, RandomWalk):
            self._s = self._walk_states(f0, n, self._s[-1])
        elif isinstance(self.mobility, RandomWaypoint):
            self._pos = np.empty((n, self.K, 2))
            for b in range(n):
                self._step_waypoint(f0 + b)
                self._pos[b] = self.positions
        self.f0, self.n = f0, n

    def skip(self, f0: int, n: int) -> None:
        """Step the relays through frames f0 .. f0+n-1, which no step reads."""
        if isinstance(self.mobility, RandomWalk):
            chunk = max(1, _BLOCK_BYTES // (_WALK_CELL_BYTES * self.K))
            s, self._s = self._s, None
            for c0 in range(f0, f0 + n, chunk):
                s0 = s[-1].copy()
                del s  # only the last state is kept while the next chunk is drawn
                s = self._walk_states(c0, min(chunk, f0 + n - c0), s0)
                self._carry(self._moved(s), c0)
            self._s = s[-1:].copy()
        elif isinstance(self.mobility, RandomWaypoint):
            for f in range(f0, f0 + n):
                self._step_waypoint(f)

    def fill(self) -> tuple[np.ndarray, np.ndarray]:
        """d^alpha rows toward the source and the destination, frames f0 .. f0+n-1."""
        if isinstance(self.mobility, RandomWalk):
            return self._fill_walk()
        if isinstance(self.mobility, RandomWaypoint):
            return self._dpow(self._pos[..., 0], self._pos[..., 1])
        shape = (self.n, self.K)
        return np.broadcast_to(self.src_dpow, shape), np.broadcast_to(self.dst_dpow, shape)

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

    def _fill_walk(self) -> tuple[np.ndarray, np.ndarray]:
        K, B, s = self.K, self.n, self._s
        # the changes of the block, frame-major, so mover rank follows relay order
        idx = np.flatnonzero(self._moved(s))
        row = idx // K
        starts = idx.searchsorted(np.arange(B + 1) * K)  # first change of each row
        frame = row + self.f0
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


# ---------- run metrics ----------


@dataclass(frozen=True)
class ConservationFailure:
    """The first checked frame at which packet conservation failed, and the
    balance terms there: entered != delivered + dropped + held."""

    frame: int
    entered: int
    delivered: int
    dropped: int
    held: int


@dataclass
class RunMetrics:
    """Outputs of one run; rate metrics cover the post-warmup window."""

    seed: int
    protocol: str
    frames: int
    warmup: int
    measured_frames: int
    arrivals: int
    delivered: int
    delivered_measured: int
    throughput: float
    source_drops: int
    relay_drops: int
    mean_delay: float | None
    delay_p50: float | None
    delay_p95: float | None
    delay_p99: float | None
    broadcast_frames: int
    forward_frames: int
    idle_frames: int
    src_conn_frames: int | None
    dst_conn_frames: int | None
    service_count: int
    rho_frames: int
    eta_frames: int
    qs_traj: np.ndarray  # int32 source-queue samples, one every traj_stride frames
    relay_traj: np.ndarray  # int32 relay-copy samples, same frames
    traj_stride: int
    conservation_failure: ConservationFailure | None  # the first failed check, if any
    aborted_unstable: bool
    stability: StabilityVerdict | None
    delays: np.ndarray  # inclusive sojourns of measured deliveries, in delivery order
    trace: list | None = None

    @property
    def conservation_ok(self) -> bool:
        return self.conservation_failure is None

    @property
    def broadcast_fraction(self) -> float | None:
        active = self.broadcast_frames + self.forward_frames
        return self.broadcast_frames / active if active else None

    @property
    def delivery_rate(self) -> float:
        return self.delivered_measured / self.measured_frames if self.measured_frames else 0.0

    @property
    def mean_service(self) -> float | None:
        if not self.service_count:
            return None
        return (self.rho_frames + self.eta_frames) / self.service_count

    @property
    def mean_rho(self) -> float | None:
        return self.rho_frames / self.service_count if self.service_count else None

    @property
    def mean_eta(self) -> float | None:
        return self.eta_frames / self.service_count if self.service_count else None

    @property
    def src_conn_fraction(self) -> float | None:
        if self.src_conn_frames is None or not self.measured_frames:
            return None
        return self.src_conn_frames / self.measured_frames

    @property
    def dst_conn_fraction(self) -> float | None:
        if self.dst_conn_frames is None or not self.measured_frames:
            return None
        return self.dst_conn_frames / self.measured_frames

    def metric(self, name: str):
        """Scalar metric lookup for aggregation: field or derived property."""
        return getattr(self, name)


def _conservation_failure(
    frame: int, proto, source, relays: RelayBank, delivered: int, arrivals: int
) -> ConservationFailure | None:
    """Packet conservation: each packet that entered is delivered, dropped or held."""
    if isinstance(source, InfiniteBacklog):
        held, entered = source.pending, source.minted
    else:
        held, entered = len(source), arrivals
    held += len(relays) - getattr(proto, "source_overlap", 0)
    dropped = getattr(source, "drops", 0)
    if delivered + dropped + held == entered:
        return None
    return ConservationFailure(frame, entered, delivered, dropped, held)


def run(cfg: SimConfig) -> RunMetrics:
    """Simulate one configuration for cfg.horizon frames."""
    validate_config(cfg)
    geometry = build_disk(cfg.radius, cfg.num_regions)
    phy = build_phy(cfg)
    rng = CounterRng(cfg.seed)
    fleet = _Fleet(cfg, geometry, rng)
    relays = RelayBank(cfg.K, cfg.buffer_capacity)
    proto = make_protocol(
        cfg.protocol, n_active=cfg.n_active, n_decode=cfg.n_decode,
        direct_delivery=cfg.direct_delivery,
    )
    bits = effective_packet_bits(cfg)
    warmup = effective_warmup(cfg)
    horizon = cfg.horizon

    backlog = cfg.infinite_backlog
    if backlog:
        source = InfiniteBacklog()
        arrivals_dist = None
    else:
        source = SourceQueue(cfg.buffer_capacity)
        arrivals_dist = ArrivalDistribution.from_pmf(dict(cfg.arrival_pmf))

    fading = cfg.fading
    K = cfg.K
    direct_dist = max(2.0 * cfg.radius, _MIN_SEPARATION)
    links = FrameLinks(phy, direct_dist**cfg.alpha)
    block = max(1, _BLOCK_BYTES // (_CELL_BYTES * K))

    def fill_links() -> None:
        """Draw the channel of the walked block."""
        src_dpow, dst_dpow = fleet.fill()
        f, n = fleet.f0, fleet.n
        links.fill(
            fading.from_uniforms(rng.block_uniforms(STREAM_FADE_SRC, f, n, K)),
            fading.from_uniforms(rng.block_uniforms(STREAM_FADE_DST, f, n, K)),
            fading.from_uniforms(rng.block_uniforms(STREAM_FADE_DIRECT, f, n, 1)[:, 0]),
            src_dpow, dst_dpow,
        )

    proto_stream = FrameStream(rng, STREAM_PROTO, block=block)

    stride = cfg.traj_stride or max(1, horizon // 65536)
    n_samples = (horizon + stride - 1) // stride
    # int32 halves what callers that keep many runs hold; a sample too large
    # for it raises on assignment
    qs_traj = np.zeros(n_samples, dtype=np.int32)
    relay_traj = np.zeros(n_samples, dtype=np.int32)
    samples_taken = 0

    arrivals_count = 0
    next_id = 0
    arrival_frames: dict[int, int] = {}
    delivered_total = 0
    delivered_measured = 0
    delays: list[int] = []
    role_counts = {ROLE_BROADCAST: 0, ROLE_FORWARD: 0, ROLE_IDLE: 0}
    src_conn = dst_conn = 0
    service_count = rho_frames = eta_frames = 0
    conservation_failure: ConservationFailure | None = None
    aborted = False
    trace: list | None = [] if cfg.record_trace else None
    check_every = cfg.conservation_check_every

    # A frame whose arrivals leave the source and the relay bank empty is idle
    # for every protocol, and so is every later frame up to the next arrival:
    # none steps, reads the channel or draws. Such a span is skipped, unless
    # the run reads every frame (connectivity tracking, the trace).
    skip_idle = not (backlog or cfg.track_connectivity or cfg.record_trace)

    # arrival batches precomputed in chunks to keep the frame loop lean
    chunk = 65536
    batches = busy = None

    walked = fill0 = 0  # end of the walked frames; first frame of the filled block
    f = 0
    while f < horizon:
        a_s = 0
        if not backlog:
            c = f % chunk
            if c == 0:
                batches = arrivals_dist.from_uniforms(
                    rng.uniforms(STREAM_ARRIVAL, f // chunk, min(chunk, horizon - f)))
                busy = np.flatnonzero(batches)
            batch = int(batches[c])
            for _ in range(batch):
                pkt = Packet(next_id, f)
                next_id += 1
                arrivals_count += 1
                if source.offer(pkt):
                    a_s += 1
                    arrival_frames[pkt.id] = f
            if skip_idle and not len(source) and not relays.total_copies:
                # idle up to the next arrival, the chunk's end or the horizon
                i = busy.searchsorted(c, side="right")
                g = f - c + (int(busy[i]) if i < busy.size else batches.size)
                role_counts[ROLE_IDLE] += max(0, g - max(f, warmup))
                samples_taken = (g + stride - 1) // stride  # the samples are 0
                # one check stands for every check frame in f .. g-1: the state holds
                check = -(-f // check_every) * check_every if check_every else g
                if conservation_failure is None and check < g:
                    conservation_failure = _conservation_failure(
                        check, proto, source, relays, delivered_total, arrivals_count)
                f = g
                continue

        if f >= walked:  # skip the unread frames up to f, then walk and fill f's block
            links.clear()  # free the last filled rows before drawing more
            if f > walked:
                fleet.skip(walked, f - walked)
            fleet.walk(f, min(block, horizon - f))
            walked, fill0 = f + fleet.n, f
            fill_links()
        links.row = f - fill0

        outcome = proto.step(links, source, relays, proto_stream.rebind(f))

        measured = f >= warmup
        if measured:
            role_counts[outcome.role] += 1
            if cfg.track_connectivity:
                src_conn += bool(links.src_connected().any())
                dst_conn += bool(links.dst_connected().any())
            if outcome.service is not None:
                service_count += 1
                rho_frames += outcome.service[0]
                eta_frames += outcome.service[1]
        for pid in outcome.delivered:
            delivered_total += 1
            af = arrival_frames.pop(pid, None)
            if measured:
                delivered_measured += 1
                if af is not None and af >= warmup:
                    # inclusive sojourn: same-frame arrival and delivery counts 1
                    delays.append(f - af + 1)

        if f % stride == 0:
            u_s = 1 if outcome.source_dequeued else 0
            qs_traj[samples_taken] = (0 if backlog else len(source)) + u_s
            relay_traj[samples_taken] = relays.total_copies
            samples_taken += 1

        if trace is not None:
            trace.append({
                "frame": f,
                "role": outcome.role,
                "a_s": a_s,
                "u_s": 1 if outcome.source_dequeued else 0,
                "s_s": (0 if backlog else len(source)) + (1 if outcome.source_dequeued else 0),
                "delivered": outcome.delivered,
                "decodes": outcome.decodes,
                "removed": outcome.removed,
                "relay_lens": tuple(relays.queue_len(j) for j in range(K)),
            })

        if conservation_failure is None and check_every and f % check_every == 0:
            conservation_failure = _conservation_failure(
                f, proto, source, relays, delivered_total, arrivals_count)

        if (
            cfg.abort_queue_threshold is not None
            and not backlog
            and len(source) > cfg.abort_queue_threshold
        ):
            aborted = True
            f += 1
            break
        f += 1

    frames_done = f
    # the stability fit below is the run's largest transient: free the loop's arrays
    links.clear()
    batches = busy = None
    measured_frames = max(frames_done - warmup, 0)
    delivered_bits = delivered_measured * bits
    throughput = delivered_bits / (measured_frames * cfg.tau) if measured_frames else 0.0

    if delays:
        arr = np.asarray(delays, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50, 95, 99])
        mean_delay = float(arr.mean())
    else:
        mean_delay = p50 = p95 = p99 = None

    qs_traj = qs_traj[:samples_taken]
    relay_traj = relay_traj[:samples_taken]

    verdict: StabilityVerdict | None = None
    if aborted:
        verdict = StabilityVerdict(
            stable=False, slope=math.inf, tail_ratio=math.inf,
            mean_queue=float(qs_traj.mean()) if qs_traj.size else 0.0,
            n_samples=int(qs_traj.size), window_frames=frames_done,
        )
    elif not backlog:
        try:
            verdict = assess_stability(qs_traj, stride, warmup)
        except ValueError:
            verdict = None

    return RunMetrics(
        seed=cfg.seed, protocol=cfg.protocol, frames=frames_done, warmup=warmup,
        measured_frames=measured_frames, arrivals=arrivals_count,
        delivered=delivered_total, delivered_measured=delivered_measured,
        throughput=throughput, source_drops=getattr(source, "drops", 0),
        relay_drops=relays.drops, mean_delay=mean_delay,
        delay_p50=p50, delay_p95=p95, delay_p99=p99,
        broadcast_frames=role_counts[ROLE_BROADCAST],
        forward_frames=role_counts[ROLE_FORWARD],
        idle_frames=role_counts[ROLE_IDLE],
        src_conn_frames=src_conn if cfg.track_connectivity else None,
        dst_conn_frames=dst_conn if cfg.track_connectivity else None,
        service_count=service_count, rho_frames=rho_frames, eta_frames=eta_frames,
        qs_traj=qs_traj, relay_traj=relay_traj, traj_stride=stride,
        conservation_failure=conservation_failure, aborted_unstable=aborted,
        stability=verdict, trace=trace, delays=np.asarray(delays, dtype=np.int64),
    )


# ---------- replication, bisection, sweeps ----------


def _run_worker(cfg: SimConfig) -> RunMetrics:
    return run(cfg)


def replicate(
    cfg: SimConfig, n_reps: int, jobs: int = 1, seeds: list[int] | None = None
) -> list[RunMetrics]:
    """Independent replicates with seeds seed+i (or explicit seeds)."""
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if seeds is None:
        seeds = [cfg.seed + i for i in range(n_reps)]
    elif len(seeds) != n_reps:
        raise ValueError("seeds must match n_reps")
    cfgs = [replace(cfg, seed=s) for s in seeds]
    if jobs > 1 and n_reps > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, n_reps)) as ex:
            return list(ex.map(_run_worker, cfgs))
    return [run(c) for c in cfgs]


def aggregate_metric(runs: list[RunMetrics], name: str) -> tuple[float, float, float]:
    """(mean, ci_low, ci_high) of a scalar metric; CI bounds are NaN for n=1."""
    vals = [r.metric(name) for r in runs]
    vals = [v for v in vals if v is not None]
    if not vals:
        return math.nan, math.nan, math.nan
    mean = float(np.mean(vals))
    if len(vals) == 1:
        return mean, math.nan, math.nan
    sem = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    if sem == 0.0:
        return mean, mean, mean
    from scipy import stats  # deferred: importing scipy.stats costs about a second

    half = float(stats.t.ppf(0.975, len(vals) - 1)) * sem
    return mean, mean - half, mean + half


@dataclass(frozen=True)
class RateBracket:
    """Bisection result: the largest rate seen stable and smallest seen unstable."""

    stable_rate: float
    unstable_rate: float | None
    probes: tuple[tuple[float, bool], ...]
    resolution: float

    @property
    def midpoint(self) -> float:
        hi = self.unstable_rate if self.unstable_rate is not None else self.stable_rate
        return 0.5 * (self.stable_rate + hi)


def max_stable_rate(
    cfg: SimConfig,
    lo: float = 0.02,
    hi: float = 0.8,
    resolution: float = 0.02,
    batch_size: int | None = None,
    horizon: int | None = None,
    abort_queue: int = 2_000,
) -> RateBracket:
    """Bracket the maximum stable arrival rate by bisection on Bernoulli(lam)
    arrivals (or batches of batch_size arriving w.p. lam/batch_size).

    Clearly-unstable probes cut off early once the source queue passes
    abort_queue packets; a stable Bernoulli-fed queue stays orders of
    magnitude below that."""
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    horizon = horizon or 230_000
    warmup = 25_000 if horizon > 50_000 else horizon // 9

    def arrivals_for(lam: float):
        if batch_size is None:
            if lam >= 1.0:
                raise ValueError("Bernoulli rate must be < 1")
            return ((1, lam),)
        return ((batch_size, lam / batch_size),)

    probes: list[tuple[float, bool]] = []

    def stable_at(lam: float) -> bool:
        probe_cfg = replace(
            cfg, arrival_pmf=arrivals_for(lam), infinite_backlog=False,
            horizon=horizon, warmup=warmup, record_trace=False,
            track_connectivity=False, abort_queue_threshold=abort_queue,
            traj_stride=None,
        )
        verdict = run(probe_cfg).stability
        if verdict is None:
            raise ValueError(f"the probe at rate {lam} is too short for a stability verdict")
        probes.append((lam, verdict.stable))
        return verdict.stable

    if not stable_at(lo):
        return RateBracket(0.0, lo, tuple(probes), resolution)
    if stable_at(hi):
        return RateBracket(hi, None, tuple(probes), resolution)
    lo_s, hi_u = lo, hi
    while hi_u - lo_s > resolution:
        mid = 0.5 * (lo_s + hi_u)
        if stable_at(mid):
            lo_s = mid
        else:
            hi_u = mid
    return RateBracket(lo_s, hi_u, tuple(probes), resolution)


SWEEP_AXES = ("K", "q", "lambda", "gamma", "M", "protocol")


def apply_axis(cfg: SimConfig, axis: str, value) -> SimConfig:
    """Rebuild a config with one swept quantity changed.

    Sweeping K keeps the rate rule coupled (rate=None re-derives W*log2 K);
    sweeping gamma re-derives the rate as W*(alpha/2)*log2(gamma).
    """
    if axis == "K":
        return replace(cfg, K=int(value))
    if axis == "q":
        return replace(cfg, mobility=RandomWalk(q=float(value)))
    if axis == "lambda":
        return replace(cfg, arrival_pmf=((1, float(value)),), infinite_backlog=False)
    if axis == "gamma":
        g = float(value)
        if g <= 1.0:
            raise ValueError("gamma must exceed 1")
        return replace(
            cfg, rate=cfg.bandwidth * (cfg.alpha / 2.0) * math.log2(g), packet_bits=None
        )
    if axis == "M":
        return replace(cfg, num_regions=int(value))
    if axis == "protocol":
        return replace(cfg, protocol=str(value))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: object
    protocol: str
    metric: str
    mean: float
    ci_low: float
    ci_high: float
    n_reps: int
    seed_base: int


_DEFAULT_SWEEP_METRICS = ("throughput", "mean_delay", "delay_p95", "delivery_rate", "delivered")


def sweep(
    cfg: SimConfig,
    axis: str,
    values,
    n_reps: int = 1,
    jobs: int = 1,
    metrics: tuple[str, ...] = _DEFAULT_SWEEP_METRICS,
) -> list[SweepRow]:
    """Replicate along one axis; one row per (value, metric)."""
    rows: list[SweepRow] = []
    for v in values:
        sub = apply_axis(cfg, axis, v)
        runs = replicate(sub, n_reps, jobs=jobs)
        for name in metrics:
            mean, lo, hi = aggregate_metric(runs, name)
            if math.isnan(mean):
                continue
            rows.append(SweepRow(axis, v, sub.protocol, name, mean, lo, hi, n_reps, cfg.seed))
    return rows
