"""The benchmark's output checks pass on real results and reject corrupted ones.

Run with `python3 -m pytest perfbench -q` from the repository root. Every
check has a negative control: a copy of a valid result with one field broken,
which that check must reject.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import workloads


def _round(workload):
    return {p: op()[1] for p, op in workload.operations()}


@pytest.fixture(scope="module")
def saturation():
    wl = workloads.Saturation(seed=3)
    return wl, [_round(wl), _round(wl)]


@pytest.fixture(scope="module")
def bursty():
    wl = workloads.Bursty(seed=3)  # full horizon: the engine's verdict needs 200k frames
    first = _round(wl)
    return wl, [first, copy.deepcopy(first)]


def test_valid_results_pass(saturation, bursty):
    for wl, rounds in (saturation, bursty):
        assert wl.check(rounds) == []


def test_conservation_is_checked_throughout_each_operation(saturation, bursty):
    for wl, _ in (saturation, bursty):
        assert wl.cfg.horizon // wl.cfg.conservation_check_every >= 10


def test_repeated_rounds_must_match(saturation, bursty):
    for wl, rounds in (saturation, bursty):
        bad = copy.deepcopy(rounds)
        s = bad[1]["obdwf"]
        key = "qs_traj" if "qs_traj" in s else "forward_frames"
        s[key] = s[key] + 1
        assert any("differ from round 0" in msg for msg in wl.check(bad))


def _set(protocol, **fields):
    def corrupt(rnd):
        rnd[protocol].update(fields)
    return corrupt


def _with(protocol, fn):
    def corrupt(rnd):
        fn(rnd[protocol])
    return corrupt


SATURATION_CORRUPTIONS = {
    "conservation": (_set("obdwf", conservation_ok=False), "conservation"),
    "idle": (_set("dfsc", idle_frames=4), "idle frames"),
    "roles": (_with("obdwf", lambda s: s.update(forward_frames=s["forward_frames"] + 1)),
              "!= measured"),
    "af_cycle": (_with("af", lambda s: s.update(broadcast_frames=s["broadcast_frames"] + 2,
                                               forward_frames=s["forward_frames"] - 2)),
                 "two-frame cycle"),
    "af_deliveries": (_with("afsc", lambda s: s.update(
        delivered_measured=s["forward_frames"] + 1)), "exceed"),
    "service_count": (_with("ddf", lambda s: s.update(service_count=s["service_count"] + 1)),
                      "service_count"),
    "over_tiling": (_with("ddf", lambda s: s.update(
        eta_frames=s["measured_frames"] - s["rho_frames"] + 1)), "does not tile"),
    "under_tiling": (_with("dfsc", lambda s: s.update(eta_frames=s["eta_frames"] // 2)),
                     "does not tile"),
    "warmup": (_set("ddf", warmup=600), "does not tile"),
    "throughput_zero": (_set("obdwf", throughput=0.0), "outside (0"),
    "throughput_bound": (_set("obdwf", throughput=1e6 * np.log2(110)), "outside (0"),
    "ordering": (lambda rnd: rnd["obdwf"].update(throughput=rnd["ddf"]["throughput"] / 2),
                 "not above ddf"),
}


@pytest.mark.parametrize("case", sorted(SATURATION_CORRUPTIONS))
def test_saturation_rejects(saturation, case):
    wl, rounds = saturation
    bad = copy.deepcopy(rounds)
    corrupt, expected = SATURATION_CORRUPTIONS[case]
    corrupt(bad[0])
    assert any(expected in msg for msg in wl.check(bad)), case


def _ramp(s):
    s["qs_traj"] = s["qs_traj"] + np.arange(s["qs_traj"].size) // 200


BURSTY_CORRUPTIONS = {
    "crn": (_with("ddf", lambda s: s.update(arrivals=s["arrivals"] + 15)), "arrivals differ"),
    "multiple": (lambda rnd: [s.update(arrivals=s["arrivals"] + 1) for s in rnd.values()],
                 "not a multiple"),
    "binomial": (lambda rnd: [s.update(arrivals=3 * s["arrivals"]) for s in rnd.values()],
                 "bursts, expected"),
    "conservation": (_with("obdwf", lambda s: s.update(delivered=s["arrivals"] + 1)),
                     "exceed arrivals"),
    "percentile_order": (_with("ddf", lambda s: s.update(delay_p95=s["delay_p99"] + 1)),
                         "not ordered"),
    "percentile_floor": (_set("obdwf", delay_p50=0.0), "not ordered"),
    "queue_growth": (_with("ddf", _ramp), "source queue rises"),
    "conservation_flag": (_set("ddf", conservation_ok=False), "conservation"),
    "verdict_missing": (_set("obdwf", verdict=None), "no stability verdict"),
    "verdict_flipped": (_with("ddf", lambda s: s["verdict"].update(
        stable=not s["verdict"]["stable"])), "own fit says"),
    "verdict_slope": (_with("obdwf", lambda s: s["verdict"].update(
        slope=2 * s["verdict"]["slope"] + 1e-9)), "verdict slope"),
    "delay_order": (lambda rnd: rnd["obdwf"].update(mean_delay=rnd["ddf"]["mean_delay"] + 1),
                    "mean delay"),
}


@pytest.mark.parametrize("case", sorted(BURSTY_CORRUPTIONS))
def test_bursty_rejects(bursty, case):
    wl, rounds = bursty
    bad = copy.deepcopy(rounds)
    corrupt, expected = BURSTY_CORRUPTIONS[case]
    corrupt(bad[0])
    assert any(expected in msg for msg in wl.check(bad)), case
