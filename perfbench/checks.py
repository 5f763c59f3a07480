"""Output checks for the benchmark workloads.

Each check compares a result against a computation made here or against a
property the method must have; none compares against stored output. A check
returns a list of failure messages, empty when the check passes. Summaries are
plain dicts built by `workloads.py`, so tests can corrupt a copy and confirm
that the check rejects it.
"""

from __future__ import annotations

import math

import numpy as np

# ddf/dfsc under saturation with no warm-up: completed services tile the window
# exactly, except for the one service still in flight at the end. The longest
# ddf service in 20 saturation runs of 6,000 frames was 11 mean lengths; 25
# leaves room for the in-flight one, which is length-biased.
IN_FLIGHT_MEANS = 25
# Bursty source queue: the least-squares rise over the post-warm-up window may
# not exceed three bursts' worth of packets.
QUEUE_RISE_BURSTS = 3
BINOMIAL_SIGMAS = 5
# assess_stability's defaults: stable means slope below SLOPE_EPS packets/frame
# and final-decile mean within TAIL_FACTOR of the post-warm-up mean.
SLOPE_EPS = 1e-4
TAIL_FACTOR = 3.0


def check_repeats(rounds: list[dict[str, dict]]) -> list[str]:
    """Every round repeats round 0's operations on the same seed, so its outputs
    must be identical: draws depend only on (seed, stream, frame, index)."""
    bad = []
    for r, by_proto in enumerate(rounds[1:], start=1):
        for p, s in by_proto.items():
            ref = rounds[0].get(p)
            if ref is None or ref.keys() != s.keys() or not all(
                    np.array_equal(s[k], ref[k]) for k in s):
                bad.append(f"round {r} {p}: outputs differ from round 0 on the same seed")
    return bad


def check_saturation(rounds: list[dict[str, dict]], bandwidth: float, alpha: float,
                     K: int) -> list[str]:
    """rounds: one {protocol: summary} per round, all protocols on one seed."""
    bad = []
    bound = bandwidth * alpha / 4.0 * math.log2(K)
    for r, by_proto in enumerate(rounds):
        for p, s in by_proto.items():
            tag = f"round {r} {p}"
            if not s["conservation_ok"]:
                bad.append(f"{tag}: packet conservation failed")
            if s["idle_frames"] != 0:
                bad.append(f"{tag}: {s['idle_frames']} idle frames under infinite backlog")
            if s["broadcast_frames"] + s["forward_frames"] != s["measured_frames"]:
                bad.append(f"{tag}: broadcast {s['broadcast_frames']} + forward "
                           f"{s['forward_frames']} != measured {s['measured_frames']}")
            if p in ("af", "afsc"):
                if abs(s["broadcast_frames"] - s["forward_frames"]) > 1:
                    bad.append(f"{tag}: two-frame cycle broken ({s['broadcast_frames']} "
                               f"broadcast, {s['forward_frames']} forward)")
                if s["delivered_measured"] > s["forward_frames"]:
                    bad.append(f"{tag}: {s['delivered_measured']} deliveries exceed "
                               f"{s['forward_frames']} forward frames")
            if p in ("ddf", "dfsc"):
                if s["service_count"] != s["delivered_measured"]:
                    bad.append(f"{tag}: service_count {s['service_count']} != deliveries "
                               f"{s['delivered_measured']}")
                tiled = s["rho_frames"] + s["eta_frames"]
                mean = tiled / s["service_count"] if s["service_count"] else math.inf
                in_flight = s["measured_frames"] - tiled
                if s["warmup"] != 0 or not 0 <= in_flight <= IN_FLIGHT_MEANS * mean:
                    bad.append(f"{tag}: rho+eta {tiled} does not tile the window "
                               f"{s['measured_frames']} (warm-up {s['warmup']})")
        ob = by_proto.get("obdwf")
        if ob is not None:
            if not 0.0 < ob["throughput"] < bound:
                bad.append(f"round {r} obdwf: throughput {ob['throughput']:.6g} outside "
                           f"(0, {bound:.6g})")
            for other in ("ddf", "dfsc"):
                if other in by_proto and not ob["throughput"] > by_proto[other]["throughput"]:
                    bad.append(f"round {r}: obdwf throughput {ob['throughput']:.6g} not above "
                               f"{other} {by_proto[other]['throughput']:.6g}")
    return bad


def queue_fit(qs_traj, stride: int, warmup: int) -> tuple[float, float, float, float]:
    """Source queue over the post-warm-up window: (least-squares slope in
    packets/frame, window in frames, mean, final-decile mean)."""
    q = np.asarray(qs_traj, dtype=np.float64)
    frames = np.arange(q.size, dtype=np.float64) * stride
    keep = frames >= warmup
    q, frames = q[keep], frames[keep]
    if q.size < 2:
        return 0.0, 0.0, 0.0, 0.0
    x = frames - frames.mean()
    slope = float(np.dot(x, q - q.mean()) / np.dot(x, x))
    tail = float(q[-max(1, q.size // 10):].mean())
    return slope, float(frames[-1] - frames[0]), float(q.mean()), tail


def check_verdict(tag: str, s: dict) -> list[str]:
    """The engine's stability verdict agrees with the benchmark's own fit."""
    v = s["verdict"]
    if v is None:
        return [f"{tag}: no stability verdict"]
    slope, window, mean, tail = queue_fit(s["qs_traj"], s["traj_stride"], s["warmup"])
    stable = slope < SLOPE_EPS and tail <= TAIL_FACTOR * mean
    bad = []
    if v["window_frames"] != window or not math.isclose(v["slope"], slope, rel_tol=1e-6,
                                                          abs_tol=1e-12):
        bad.append(f"{tag}: verdict slope {v['slope']:.6g} over {v['window_frames']} frames, "
                   f"own fit {slope:.6g} over {window:.0f}")
    if v["stable"] != stable:
        bad.append(f"{tag}: verdict stable={v['stable']}, own fit says {stable}")
    return bad


def check_bursty(rounds: list[dict[str, dict]], batch: int, burst_prob: float) -> list[str]:
    bad = []
    for r, by_proto in enumerate(rounds):
        arrivals = {p: s["arrivals"] for p, s in by_proto.items()}
        if len(set(arrivals.values())) != 1:
            bad.append(f"round {r}: arrivals differ across protocols {arrivals}")
        for p, s in by_proto.items():
            tag = f"round {r} {p}"
            if not s["conservation_ok"]:
                bad.append(f"{tag}: packet conservation failed")
            a = s["arrivals"]
            if a % batch:
                bad.append(f"{tag}: {a} arrivals is not a multiple of {batch}")
            n = s["frames"]
            mean = n * burst_prob
            sigma = math.sqrt(n * burst_prob * (1.0 - burst_prob))
            if abs(a / batch - mean) > BINOMIAL_SIGMAS * sigma:
                bad.append(f"{tag}: {a / batch:g} bursts, expected {mean:g} +- "
                           f"{BINOMIAL_SIGMAS} x {sigma:.3g}")
            if s["delivered"] + s["source_drops"] > a:
                bad.append(f"{tag}: delivered {s['delivered']} + drops {s['source_drops']} "
                           f"exceed arrivals {a}")
            pct = (s["delay_p50"], s["delay_p95"], s["delay_p99"])
            if any(v is None for v in pct) or not 1 <= pct[0] <= pct[1] <= pct[2]:
                bad.append(f"{tag}: delay percentiles {pct} not ordered 1 <= p50 <= p95 <= p99")
            slope, window, _, _ = queue_fit(s["qs_traj"], s["traj_stride"], s["warmup"])
            if slope * window > QUEUE_RISE_BURSTS * batch:
                bad.append(f"{tag}: source queue rises by {slope * window:.1f} packets "
                           f"over the window")
            bad += check_verdict(tag, s)
        ob, dd = by_proto.get("obdwf"), by_proto.get("ddf")
        if ob and dd and not (ob["mean_delay"] is not None and dd["mean_delay"] is not None
                              and ob["mean_delay"] < dd["mean_delay"]):
            bad.append(f"round {r}: obdwf mean delay {ob['mean_delay']} not below "
                       f"ddf {dd['mean_delay']}")
    return bad
