"""Simulation engine: determinism, queue recursions, conservation, sweeps,
stability assessment, and the closed-form delay tie-in."""

import math
from dataclasses import replace

import numpy as np
import pytest

from relaysim import engine, geometry
from relaysim.analysis import ServiceMoments, mx_g1_wait
from relaysim.channel import GainTable
from relaysim.engine import (
    ConservationFailure,
    RateBracket,
    SimConfig,
    SWEEP_AXES,
    aggregate_metric,
    apply_axis,
    assess_stability,
    effective_packet_bits,
    effective_rate,
    max_stable_rate,
    replicate,
    run,
    validate_config,
)
from relaysim.geometry import Fleet, RandomWalk, RandomWaypoint, build_disk, region_box, walk_next
from relaysim.protocols import PROTOCOL_NAMES, ROLE_BROADCAST, FrameOutcome, Obdwf
from relaysim.rng import STREAM_PLACE, STREAM_WALK, CounterRng, _unit, counter_threshold


def small_cfg(**kw):
    base = dict(K=30, horizon=20_000, seed=5, conservation_check_every=977)
    base.update(kw)
    return SimConfig(**base)


def always_connected_cfg(**kw):
    """Single relay pinned at the disk center with unit gain and rate = W:
    both relay hops always connect, the direct link never does."""
    base = dict(
        K=1, seed=3, horizon=120_000, warmup=20_000, rate=1e6,
        fading=GainTable(gains=(1.0,), probs=(1.0,)),
        pinned_positions=((2.5, 0.0),), conservation_check_every=977,
    )
    base.update(kw)
    return SimConfig(**base)


def runs_equal(a, b):
    assert a.delivered == b.delivered
    assert a.arrivals == b.arrivals
    assert a.throughput == b.throughput
    assert a.mean_delay == b.mean_delay
    assert a.broadcast_frames == b.broadcast_frames
    assert a.forward_frames == b.forward_frames
    assert np.array_equal(a.qs_traj, b.qs_traj)
    assert np.array_equal(a.relay_traj, b.relay_traj)


def test_rerun_bit_identical():
    cfg = small_cfg()
    runs_equal(run(cfg), run(cfg))


def test_lazy_positions_match_eager():
    # track_connectivity reads every frame's connectivity rows, while a run
    # without it skips idle spans and draws a block's channel only from its
    # first stepped frame on. Both must give the same run.
    cfg = small_cfg(K=40, horizon=15_000)
    lazy = run(cfg)
    eager = run(replace(cfg, track_connectivity=True))
    runs_equal(lazy, eager)
    assert eager.src_conn_frames is not None
    assert lazy.src_conn_frames is None


def test_trace_queue_recursion_and_ledgers():
    cfg = small_cfg(
        K=25, horizon=4_000, warmup=0, record_trace=True,
        arrival_pmf=((3, 0.2), (0, 0.8)), traj_stride=1,
    )
    m = run(cfg)
    t = m.trace
    assert len(t) == cfg.horizon
    # source queue one-step recursion in the post-arrival pre-service gauge:
    # s(t) = a(t) + s(t-1) - u(t-1)
    assert t[0]["s_s"] == t[0]["a_s"]
    for prev, cur in zip(t, t[1:]):
        assert cur["s_s"] == cur["a_s"] + prev["s_s"] - prev["u_s"]
    # relay copy ledger: lengths move exactly by decodes minus removals
    prev_total = 0
    for row in t:
        total = sum(row["relay_lens"])
        assert total == prev_total + row["decodes"].bit_count() - row["removed"].bit_count()
        prev_total = total
    # the sampled trajectory is the same gauge
    assert np.array_equal(m.qs_traj, np.array([row["s_s"] for row in t]))
    # no packet is delivered twice
    seen = [pid for row in t for pid in row["delivered"]]
    assert len(seen) == len(set(seen))
    assert m.delivered == len(seen)


def test_conservation_with_finite_buffers_and_drops():
    cfg = small_cfg(
        K=20, horizon=6_000, buffer_capacity=2,
        arrival_pmf=((5, 0.3), (0, 0.7)), abort_queue_threshold=None,
    )
    m = run(cfg)
    assert m.conservation_ok
    assert m.source_drops > 0
    assert m.relay_drops > 0
    assert m.delivered + m.source_drops <= m.arrivals


def test_delay_matches_batch_queue_formula():
    # the always-connected single relay serves each packet in exactly two
    # frames, so the measured sojourn must match the closed form for
    # deterministic service 2 at Bernoulli rate 0.2
    cfg = always_connected_cfg(
        horizon=250_000, warmup=25_000, arrival_pmf=((1, 0.2), (0, 0.8))
    )
    m = run(cfg)
    expect = mx_g1_wait(0.2, 0.2, ServiceMoments(2.0, 4.0))
    assert math.isclose(expect, 7.0 / 3.0, rel_tol=1e-12)
    assert m.mean_delay is not None
    assert abs(m.mean_delay - expect) / expect < 0.02
    assert m.conservation_ok
    # stability verdict exists and is positive at load 0.4
    assert m.stability is not None and m.stability.stable


def test_backlog_alternation_integer_identity():
    m = run(always_connected_cfg(horizon=30_000, warmup=0, infinite_backlog=True))
    assert 2 * m.delivered_measured == m.measured_frames
    assert m.broadcast_fraction == 0.5
    assert m.idle_frames == 0
    assert math.isclose(m.throughput, 0.5 * effective_rate(always_connected_cfg()),
                        rel_tol=1e-12)


def test_warmup_excludes_early_frames():
    cfg = small_cfg(horizon=10_000, warmup=4_000)
    m = run(cfg)
    assert m.measured_frames == 6_000
    assert m.broadcast_frames + m.forward_frames + m.idle_frames == 6_000
    assert m.delivered_measured <= m.delivered


def test_replicate_and_aggregate():
    cfg = small_cfg(horizon=5_000)
    runs = replicate(cfg, 3)
    assert [r.seed for r in runs] == [5, 6, 7]
    # identical seeds collapse the confidence interval onto the mean
    twins = replicate(cfg, 2, seeds=[5, 5])
    mean, lo, hi = aggregate_metric(twins, "throughput")
    assert mean == lo == hi
    mean, lo, hi = aggregate_metric(runs[:1], "throughput")
    assert math.isnan(lo) and math.isnan(hi)
    # metrics that are None everywhere aggregate to NaN
    backlog = replicate(small_cfg(horizon=3_000, infinite_backlog=True), 2)
    mean, _, _ = aggregate_metric(backlog, "mean_delay")
    assert math.isnan(mean)
    with pytest.raises(ValueError):
        replicate(cfg, 0)
    with pytest.raises(ValueError):
        replicate(cfg, 2, seeds=[1])


def test_replicate_parallel_matches_serial():
    cfg = small_cfg(horizon=4_000)
    serial = replicate(cfg, 2, jobs=1)
    parallel = replicate(cfg, 2, jobs=2)
    for a, b in zip(serial, parallel):
        runs_equal(a, b)


def test_apply_axis():
    cfg = small_cfg(packet_bits=123.0)
    assert apply_axis(cfg, "K", 64).K == 64
    assert apply_axis(cfg, "q", 0.4).mobility == RandomWalk(q=0.4)
    lam = apply_axis(cfg, "lambda", 0.05)
    assert lam.arrival_pmf == ((1, 0.05),)
    assert not lam.infinite_backlog
    g = apply_axis(cfg, "gamma", 16.0)
    assert math.isclose(effective_rate(g), cfg.bandwidth * 2.0 * 4.0, rel_tol=1e-12)
    assert g.packet_bits is None  # re-derived from the new rate
    assert apply_axis(cfg, "M", 3).num_regions == 3
    assert apply_axis(cfg, "protocol", "ddf").protocol == "ddf"
    with pytest.raises(ValueError):
        apply_axis(cfg, "gamma", 1.0)
    with pytest.raises(ValueError):
        apply_axis(cfg, "nope", 1)
    assert set(SWEEP_AXES) == {"K", "q", "lambda", "gamma", "M", "protocol"}


def test_assess_stability_flat_and_growing():
    flat = assess_stability(np.zeros(3000), stride=100)
    assert flat.stable and flat.slope == 0.0 and flat.mean_queue == 0.0
    grow = assess_stability(np.arange(3000, dtype=float), stride=100)
    assert not grow.stable
    assert grow.slope > 1e-3  # one packet per sample = 0.01 per frame
    bounded = assess_stability(10.0 + np.sin(np.arange(3000) / 50.0), stride=100)
    assert bounded.stable


def test_assess_stability_tail_spike():
    # slope stays under the epsilon but the final decile triples the mean
    q = np.full(3000, 10.0)
    q[2700:] = 40.0
    v = assess_stability(q, stride=100)
    assert v.slope < 1e-4
    assert v.tail_ratio > 3.0
    assert not v.stable


def test_assess_stability_window_guards():
    with pytest.raises(ValueError):
        assess_stability(np.zeros(500), stride=100)  # 49,900-frame window
    with pytest.raises(ValueError):
        assess_stability(np.zeros(5), stride=100_000)  # too few samples
    # warmup trimming applies before the window check
    with pytest.raises(ValueError):
        assess_stability(np.zeros(3000), stride=100, warmup_frames=150_000)


def test_max_stable_rate_brackets():
    cfg = always_connected_cfg()
    # service 2 means rates above 1/2 diverge: 0.7 aborts fast
    br = max_stable_rate(cfg, lo=0.7, hi=0.8, resolution=0.1)
    assert br == RateBracket(0.0, 0.7, br.probes, 0.1)
    assert br.probes[0] == (0.7, False)
    assert br.midpoint == 0.35
    # both ends comfortably stable: the whole range is declared stable
    br = max_stable_rate(cfg, lo=0.05, hi=0.1, resolution=0.05)
    assert br.stable_rate == 0.1 and br.unstable_rate is None
    assert br.midpoint == 0.1
    with pytest.raises(ValueError):
        max_stable_rate(cfg, lo=0.5, hi=0.2)


def test_max_stable_rate_judges_each_probe_once(monkeypatch):
    judged, aborted = [], []
    assess, run_ = engine.assess_stability, engine.run

    def counted_assess(*args, **kw):
        judged.append(args)
        return assess(*args, **kw)

    def counted_run(cfg):
        m = run_(cfg)
        aborted.append(m.aborted_unstable)
        return m

    monkeypatch.setattr(engine, "assess_stability", counted_assess)
    monkeypatch.setattr(engine, "run", counted_run)
    # probes 0.05 (stable), 0.7 (aborts) and 0.375 (stable)
    br = max_stable_rate(always_connected_cfg(), lo=0.05, hi=0.7, resolution=0.4)
    assert [lam for lam, _ in br.probes] == [0.05, 0.7, 0.375]
    assert aborted == [False, True, False]
    assert len(judged) == 2
    # a probe whose window is too short for a verdict still raises
    with pytest.raises(ValueError):
        max_stable_rate(always_connected_cfg(), lo=0.05, hi=0.1, horizon=60_000)


def test_validate_config_errors_and_warnings():
    with pytest.raises(ValueError):
        validate_config(small_cfg(K=0))
    with pytest.raises(ValueError):
        validate_config(small_cfg(horizon=0))
    with pytest.raises(ValueError):
        validate_config(small_cfg(warmup=30_000))  # warmup >= horizon
    with pytest.raises(ValueError):
        validate_config(small_cfg(protocol="nope"))
    with pytest.raises(ValueError):
        validate_config(small_cfg(arrival_pmf=None))  # no traffic source
    with pytest.raises(ValueError):
        validate_config(small_cfg(pinned_positions=((2.5, 0.0),)))  # needs K points
    with pytest.raises(ValueError):
        validate_config(small_cfg(abort_queue_threshold=-1))
    # a negative warm-up would count frames before the run as measured
    with pytest.raises(ValueError, match="warmup must be None or >= 0"):
        validate_config(SimConfig(horizon=2_000, warmup=-5, infinite_backlog=True,
                                  arrival_pmf=None))
    with pytest.raises(ValueError, match="traj_stride"):
        validate_config(small_cfg(traj_stride=-2))
    with pytest.raises(ValueError, match="conservation_check_every"):
        validate_config(small_cfg(conservation_check_every=-1))
    assert validate_config(small_cfg(warmup=0, traj_stride=0, conservation_check_every=0)) == []
    with pytest.raises(ValueError):
        effective_rate(SimConfig(K=1))  # the W*log2(K) rule needs K >= 2
    assert validate_config(small_cfg()) == []
    warnings = validate_config(small_cfg(packet_bits=999.0))
    assert len(warnings) == 1 and "packet_bits" in warnings[0]
    assert effective_packet_bits(small_cfg(packet_bits=999.0)) == 999.0


@pytest.mark.parametrize("ignored", [
    # resampling re-places relays within their strip under the strip walk only
    dict(resample_within_region=True, mobility=RandomWaypoint()),
    dict(resample_within_region=True, pinned_positions=((2.5, 0.0),) * 30),
    # pinned relays never move, so a waypoint model would be dropped
    dict(pinned_positions=((2.5, 0.0),) * 30, mobility=RandomWaypoint(speed_max=0.3)),
    # nor would a strip walk other than the default one
    dict(pinned_positions=((2.5, 0.0),) * 30, mobility=RandomWalk(q=0.5)),
    dict(pinned_positions=((2.5, 0.0),) * 30, mobility=RandomWalk(q=0.0)),
], ids=["resample-waypoint", "resample-pinned", "pinned-waypoint", "pinned-walk-q0.5",
        "pinned-walk-q0"])
def test_validate_config_rejects_ignored_mobility_settings(ignored):
    with pytest.raises(ValueError):
        validate_config(small_cfg(**ignored))
    with pytest.raises(ValueError):
        run(small_cfg(**ignored))


def test_validate_config_rejects_dfsc_with_more_decoders_than_relays():
    # dfsc waits for n_decode distinct decoders, so with n_decode > K it would
    # broadcast forever and deliver nothing
    cfg = SimConfig(K=3, protocol="dfsc", n_decode=5, rate=1e6, horizon=3_000,
                    infinite_backlog=True, arrival_pmf=None)
    with pytest.raises(ValueError, match="n_decode"):
        run(cfg)
    assert validate_config(replace(cfg, n_decode=3)) == []
    assert validate_config(replace(cfg, protocol="ddf")) == []  # n_decode is dfsc's alone


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_validate_config_accepts_direct_delivery_off_only_where_honoured(protocol):
    assert validate_config(small_cfg(protocol=protocol.upper())) == []
    cfg = small_cfg(protocol=protocol, direct_delivery=False)
    if protocol in ("ddf", "dfsc"):
        assert validate_config(cfg) == []
    else:
        with pytest.raises(ValueError, match="direct_delivery"):
            validate_config(cfg)


def test_run_rejects_pinned_outside_disk():
    cfg = SimConfig(K=1, horizon=100, rate=1e6,
                    pinned_positions=((6.0, 0.0),), arrival_pmf=((1, 0.1),))
    with pytest.raises(ValueError):
        run(cfg)


def test_waypoint_mobility_run():
    cfg = small_cfg(
        K=15, horizon=4_000, infinite_backlog=True,
        mobility=RandomWaypoint(speed_min=0.1, speed_max=0.6,
                                pause_set=tuple(range(11))),
    )
    m = run(cfg)
    assert m.conservation_ok
    assert m.broadcast_frames + m.forward_frames + m.idle_frames == m.measured_frames
    assert m.delivered > 0
    runs_equal(m, run(cfg))


def test_ddf_service_books_small():
    m = run(small_cfg(protocol="ddf", horizon=8_000, warmup=0, infinite_backlog=True))
    assert m.service_count > 10
    assert math.isclose(m.mean_service, m.mean_rho + m.mean_eta,
                        rel_tol=0.0, abs_tol=1e-9)
    # completed services tile the backlogged timeline up to one in flight
    assert m.rho_frames <= m.broadcast_frames
    assert m.eta_frames <= m.forward_frames
    unfinished = m.measured_frames - m.rho_frames - m.eta_frames
    assert unfinished == (m.broadcast_frames - m.rho_frames) + (m.forward_frames - m.eta_frames)


def test_abort_threshold_flags_unstable():
    cfg = always_connected_cfg(
        horizon=60_000, warmup=0, arrival_pmf=((1, 0.9), (0, 0.1)),
        abort_queue_threshold=500,
    )
    m = run(cfg)
    assert m.aborted_unstable
    assert m.frames < cfg.horizon
    assert m.stability is not None and not m.stability.stable
    assert m.stability.slope == math.inf


def _place_oracle(rng, disk, frame, rank, movers, strip):
    """One change placed by the scalar rule: attempt a reads lanes
    (a*2m + rank, a*2m + m + rank) and the first point inside the disk wins."""
    x0, x1, hh = region_box(disk, strip)
    r = disk.radius
    for a in range(200):
        lane = a * 2 * movers + rank
        ux, uy = rng.uniforms_at(STREAM_PLACE, frame, np.array([lane, lane + movers]))
        x = x1 + (x0 - x1) * ux
        y = hh * (2.0 * uy - 1.0)
        if (x - r) ** 2 + y * y <= r * r:
            return x, y
    raise AssertionError("no attempt accepted")


@pytest.mark.parametrize("batch", [1, 3, geometry._PLACE_BATCH])
@pytest.mark.parametrize("num_regions", [5, 20])
def test_place_matches_scalar_rejection(batch, num_regions, monkeypatch):
    # 20 strips: the edge strips accept about 2/3 of their box, so the
    # rejects of small batches retry over several rounds
    monkeypatch.setattr(geometry, "_PLACE_BATCH", batch)
    cfg = SimConfig(K=40, num_regions=num_regions, seed=11)
    disk = build_disk(cfg.radius, num_regions)
    rng = CounterRng(cfg.seed)
    fleet = Fleet(disk, cfg.K, cfg.alpha, cfg.mobility, None, False, rng, 1 << 20)
    draw = np.random.default_rng(num_regions)
    n = 1_500
    frames = draw.integers(0, 2**40, n)
    movers = draw.integers(1, cfg.K + 1, n)
    rank = (draw.random(n) * movers).astype(np.int64)
    edge = draw.choice(np.array([1, num_regions]), n)
    strip = np.where(draw.random(n) < 0.5, edge, draw.integers(1, num_regions + 1, n))
    x, y = fleet._place(frames, rank, movers, 3**geometry._WALK_GROUP * strip)  # walk state
    want = [_place_oracle(rng, disk, int(f), int(i), int(m), int(s))
            for f, i, m, s in zip(frames, rank, movers, strip)]
    assert np.array_equal(np.column_stack((x, y)), want)


def _walk_fleet(K, num_regions, q, seed=2, budget=1 << 20):
    cfg = SimConfig(K=K, num_regions=num_regions, mobility=RandomWalk(q=q), seed=seed)
    return Fleet(build_disk(cfg.radius, num_regions), cfg.K, cfg.alpha, cfg.mobility, None,
                 False, CounterRng(cfg.seed), budget)


def _filled_states(monkeypatch):
    """The walk states of each block that a fleet fills, row 0 the frame before it."""
    filled = []
    fill = Fleet._fill_walk

    def spy(fleet, f0, s):
        filled.append(s.copy())
        return fill(fleet, f0, s)

    monkeypatch.setattr(Fleet, "_fill_walk", spy)
    return filled


@pytest.mark.parametrize("q", [0.0, 0.02, 0.2, 0.5])
@pytest.mark.parametrize("num_regions", [1, 2, 5, 6, 12])
def test_table_walk_matches_walk_next(num_regions, q, monkeypatch):
    # The table walk steps _WALK_GROUP frames per lookup. Walk spans of every
    # length up to three groups and one, most not a multiple of the group,
    # against one walk_next call per frame; a third of the counters sit
    # exactly at the threshold of [u >= q] and another third at that of
    # [u >= 1-q], where the step changes. Each span is walked once as a block
    # that dpow returns and once as unread frames that a one-frame dpow call
    # walks past.
    drawn = []
    draw = np.random.default_rng(num_regions)
    edges = np.array([counter_threshold(q), counter_threshold(1.0 - q)], dtype=np.uint64)

    def block_counters(self, stream, frame0, n_frames, n, out=None, scratch=None):
        z = draw.integers(0, 2**64, (n_frames, n), dtype=np.uint64, endpoint=False)
        at = draw.integers(0, 3, z.shape)
        z = np.where(at < 2, edges[np.minimum(at, 1)], z)
        drawn.append(z)
        out[:] = z
        return out

    monkeypatch.setattr(CounterRng, "block_counters", block_counters)
    filled = _filled_states(monkeypatch)
    fleet = _walk_fleet(9, num_regions, q)
    S = 3**geometry._WALK_GROUP  # the walk state is S * strip
    strips = fleet._state // S
    assert 1 <= strips.min() and strips.max() <= num_regions
    f = 0
    for n in range(1, 3 * geometry._WALK_GROUP + 2):
        for skipped in (False, True):
            drawn.clear()
            if skipped:
                fleet.dpow(f + n, 1)
            else:
                fleet.dpow(f, n)
            want = []
            for z in np.concatenate(drawn):
                strips = walk_next(strips, _unit(z.copy()), q, num_regions)
                want.append(strips)
            assert len(want) == n + skipped
            # a block holds every frame; skipped frames give only their last
            # state, in row 0 of the one-frame block after them
            s = filled[-1]
            got = s if skipped else s[1:]
            assert np.array_equal(got // S, want[-len(got):]), (skipped, n)
            f += n + skipped


def _changes(strips):
    """Per frame (rows) of a strip history: each relay's change, mover rank and mover count."""
    moved = strips[1:] != strips[:-1]
    rank = np.cumsum(moved, axis=1) - 1
    return moved, rank, moved.sum(axis=1)


@pytest.mark.parametrize("q", [0.001, 0.02, 0.2])
def test_unread_spans_carry_each_relays_last_change(q):
    # Spans of unread frames are walked in 37-frame chunks; only the frames
    # of each relay's last change are expanded. At q = 0.001 most relays keep
    # their strip for thousands of frames, so their last change, if any, lies
    # many chunks before the span's end. Every span's carried (frame, mover
    # rank, mover count) must match a walk_next reference stepped frame by frame.
    K, M = 8, 5
    fleet = _walk_fleet(K, M, q, seed=7, budget=37 * K * geometry._WALK_CELL_BYTES)
    assert fleet._chunk == 37
    rng = CounterRng(7)
    S = 3**geometry._WALK_GROUP
    history = [fleet._state // S]
    pend = np.full((3, K), -1)
    f = 0
    for span in (1, 36, 37, 38, 500, 4_000, 1, 20_000):
        fleet._skip_walk(f, f + span)
        for g in range(f, f + span):
            history.append(walk_next(history[-1], rng.uniforms(STREAM_WALK, g, K), q, M))
        moved, rank, count = _changes(np.array(history[-span - 1:]))
        for j in np.flatnonzero(moved.any(axis=0)):
            r = np.flatnonzero(moved[:, j])[-1]
            pend[:, j] = (f + r, rank[r, j], count[r])
        f += span
        assert np.array_equal(fleet._state // S, history[-1])
        assert np.array_equal(fleet._pend, pend), (q, span)
    if q == 0.001:
        # some relay carries a change from before the last span's last chunk
        assert ((0 <= pend[0]) & (pend[0] < f - 37)).any()


class _LosesFirstPacket(Obdwf):
    """obdwf that takes the first packet it sees out of the source and delivers it nowhere."""

    lost_at = next_arrival = None

    def step(self, links, source, relays, rng):
        if self.lost_at is None and len(source):
            self.lost_at = source.pop_head().arrival_frame
            return FrameOutcome(ROLE_BROADCAST, source_dequeued=True)
        if self.next_arrival is None and len(source):
            self.next_arrival = source.head().arrival_frame
        return super().step(links, source, relays, rng)


def test_conservation_failure_records_first_failing_frame(monkeypatch):
    protos = []

    def make(*args, **kw):
        protos.append(_LosesFirstPacket())
        return protos[-1]

    monkeypatch.setattr(engine, "make_protocol", make)
    every = 500
    cfg = small_cfg(K=6, horizon=6_000, warmup=0, arrival_pmf=((1, 0.002),),
                    conservation_check_every=every)
    m = run(cfg)
    lost = protos[0].lost_at
    check = -(-lost // every) * every
    # the system is empty from the loss to the next arrival, past the check frame
    assert lost < check < protos[0].next_arrival
    assert not m.conservation_ok
    fail = m.conservation_failure
    assert isinstance(fail, ConservationFailure)
    assert fail.frame == check
    assert fail.entered == fail.delivered + fail.dropped + fail.held + 1
    assert 0 < fail.entered < m.arrivals
    assert fail.dropped == 0
    # the run above checks an idle span once, at its start; connectivity
    # tracking steps every frame and checks each check frame as it passes
    assert run(replace(cfg, track_connectivity=True)).conservation_failure == fail
