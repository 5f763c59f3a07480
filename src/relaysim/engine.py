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
books it as idle. The channel is drawn only for the block that starts at the
next stepped frame: geometry.Fleet.dpow walks the relays through the frames
skipped before it and returns the block's d^alpha rows, and FrameLinks.fill
takes them with the block's fading. Runs that read every frame (connectivity
tracking, the trace) skip nothing. Packet conservation is checked every
conservation_check_every frames; the first failing check is kept in
RunMetrics.conservation_failure with its balance terms.

pool_map runs a list of tasks (runs, replicates, stability brackets) in
order, in this process or over one spawn-context process pool; replicate and
every CLI plan run through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import GainTable, PhyParams, Rayleigh
from .geometry import Fleet, RandomWalk, RandomWaypoint, build_disk
from .geometry import walk_next  # unused: perfbench/tracing.py patches it here (ROADMAP item 8)
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
    STREAM_PROTO,
    CounterRng,
    FrameStream,
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
    "pool_map",
    "aggregate_metric",
    "apply_axis",
    "effective_rate",
    "effective_packet_bits",
    "validate_config",
    "SWEEP_AXES",
]

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
    if cfg.pinned_positions is not None and cfg.mobility != RandomWalk():
        raise ValueError(f"pinned_positions hold every relay still; the mobility "
                         f"{cfg.mobility} would be ignored")
    if cfg.resample_within_region and (cfg.pinned_positions is not None
                                       or not isinstance(cfg.mobility, RandomWalk)):
        raise ValueError("resample_within_region applies to the strip walk of unpinned "
                         "relays only")
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

# A stable trajectory's least-squares slope stays below _SLOPE_EPS packets per
# frame and its final-decile mean within _TAIL_FACTOR of its post-warmup mean;
# the post-warmup window must span _MIN_WINDOW frames.
_SLOPE_EPS = 1e-4
_TAIL_FACTOR = 3.0
_MIN_WINDOW = 200_000


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    slope: float  # packets per frame, least squares over the post-warmup window
    tail_ratio: float  # final-decile mean over overall post-warmup mean
    mean_queue: float
    n_samples: int
    window_frames: int


def assess_stability(trajectory, stride: int = 1, warmup_frames: int = 0) -> StabilityVerdict:
    """Classify a queue-length trajectory as stable or growing: stable when
    both the slope and the tail test pass over the post-warmup window."""
    q = np.asarray(trajectory, dtype=np.float64)
    frames = np.arange(q.size, dtype=np.float64) * stride
    post = frames >= warmup_frames
    q, frames = q[post], frames[post]
    if q.size < 10:
        raise ValueError("trajectory has fewer than 10 post-warmup samples")
    window = frames[-1] - frames[0]
    if window < _MIN_WINDOW:
        raise ValueError(f"post-warmup window {window:.0f} frames is below {_MIN_WINDOW}")
    slope = float(np.polyfit(frames, q, 1)[0])
    overall = float(q.mean())
    tail = float(q[-max(1, q.size // 10):].mean())
    tail_ratio = tail / overall if overall > 0 else (0.0 if tail == 0 else math.inf)
    stable = slope < _SLOPE_EPS and tail <= _TAIL_FACTOR * overall
    return StabilityVerdict(stable, slope, tail_ratio, overall, int(q.size), int(window))


# Frames per block: the block's arrays (walk draws and strips, fading gains,
# d^alpha rows, connectivity, and the temporaries of drawing them) take about
# _CELL_BYTES per (frame, relay) cell, so a block holds _BLOCK_BYTES / (K *
# _CELL_BYTES) frames: 74 at K = 110, one frame from K = 8192 up. The fleet
# sizes the chunks of the frames it walks unread from the same budget.
_BLOCK_BYTES = 1 << 20
_CELL_BYTES = 128


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
    fleet = Fleet(geometry, cfg.K, cfg.alpha, cfg.mobility, cfg.pinned_positions,
                  cfg.resample_within_region, rng, _BLOCK_BYTES)
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
    links = FrameLinks(phy, fleet.direct_dpow)
    block = max(1, _BLOCK_BYTES // (_CELL_BYTES * K))
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

    filled = fill0 = 0  # end and first frame of the filled block
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

        if f >= filled:  # draw the channel of the block from f on
            links.clear()  # free the last filled rows before drawing more
            n = min(block, horizon - f)
            src_dpow, dst_dpow = fleet.dpow(f, n)
            links.fill(
                fading.from_uniforms(rng.block_uniforms(STREAM_FADE_SRC, f, n, K)),
                fading.from_uniforms(rng.block_uniforms(STREAM_FADE_DST, f, n, K)),
                fading.from_uniforms(rng.block_uniforms(STREAM_FADE_DIRECT, f, n, 1)[:, 0]),
                src_dpow, dst_dpow,
            )
            filled, fill0 = f + n, f
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


# ---------- replication, bisection, plans ----------


def pool_map(fn, items, jobs: int = 1):
    """Yield fn(item) for each item, in order.

    At jobs <= 1, or with fewer than two items, fn runs in this process.
    Otherwise the items run over one spawn-context process pool of up to jobs
    workers, imported only here, so fn and the items must pickle."""
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        yield from map(fn, items)
        return
    import multiprocessing  # deferred, like the pool: only pools need it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                             mp_context=multiprocessing.get_context("spawn")) as ex:
        yield from ex.map(fn, items)


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
    return list(pool_map(run, [replace(cfg, seed=s) for s in seeds], jobs))


def aggregate_metric(runs: list[RunMetrics], name: str) -> tuple[float, float, float]:
    """(mean, ci_low, ci_high) of a scalar metric; CI bounds are NaN for n=1."""
    vals = [getattr(r, name) for r in runs]
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
