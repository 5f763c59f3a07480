"""Acceptance gate: one test per shipping criterion, in order, each printing
a single PASS/FAIL line with the measured numbers.

Criterion 8 audits every run this module executed directly (conservation,
dominance of the relay queue under a stable source queue, bit-identical
reruns), so it runs last.
"""

import math
from dataclasses import replace

import numpy as np

from relaysim.analysis import ServiceMoments, mx_g1_wait
from relaysim.channel import GainTable
from relaysim.engine import (
    SimConfig,
    assess_stability,
    effective_rate,
    max_stable_rate,
    run,
)
from relaysim.geometry import RandomWalk
from relaysim.validation import (
    QUEUE_CHECK_CASES,
    check_alternation,
    check_connectivity_slope,
    check_queue_formula,
)
from relaysim.validation import check_throughput_trend

from support import PgfSpec, pgf_mean_system

ACC_RUNS: list = []  # (config, metrics) for every run the gate executed
_MEMO: dict = {}


def acc_run(cfg: SimConfig):
    m = _MEMO.get(cfg)
    if m is None:
        m = run(cfg)
        _MEMO[cfg] = m
        ACC_RUNS.append((cfg, m))
    return m


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


SAT_HORIZON = 60_000


def sat_cfg(protocol: str, K: int, q: float = 0.2, seed: int = 11) -> SimConfig:
    return SimConfig(K=K, protocol=protocol, horizon=SAT_HORIZON, seed=seed,
                     infinite_backlog=True, mobility=RandomWalk(q=q))


def spread(vals) -> float:
    return (max(vals) - min(vals)) / (sum(vals) / len(vals))


def test_criterion_1_queue_formula_exactness():
    # closed form vs brute-force queue at 1e7 frames per case, and the same
    # mean via the p.g.f. route on every finite-support case
    res = check_queue_formula(n_frames=10_000_000, seed=1, rel_tol=0.02)
    worst_pgf = 0.0
    for apmf, spmf in QUEUE_CHECK_CASES:
        spec = PgfSpec(arrival_pmf=apmf, service_pmf=spmf)
        lam2 = sum(k * k * p for k, p in apmf.items())
        b2 = sum(k * k * p for k, p in spmf.items())
        via_moments = mx_g1_wait(spec.lam1, lam2, ServiceMoments(spec.b, b2))
        via_pgf = pgf_mean_system(spec)
        worst_pgf = max(worst_pgf, abs(via_pgf - via_moments) / via_moments)
    ok = res.passed and worst_pgf <= 1e-6
    assert _verdict(
        1, "queue-formula-exactness", ok,
        f"sim worst rel err {res.measured['worst_rel_err']:.2e} over "
        f"{res.measured['cases']} cases (tol 2e-2); pgf route worst rel "
        f"{worst_pgf:.1e} (tol 1e-6)",
    )


def test_criterion_2_connectivity_decay_slope():
    res = check_connectivity_slope(seed=1)
    slope = res.measured["slope"]
    ok = res.passed and abs(slope + 1.0) <= 0.1
    assert _verdict(2, "connectivity-decay-slope", ok,
                    f"log-log slope {slope:.3f} +/- {res.measured['stderr']:.3f}, "
                    f"target -1.0 +/- 0.1")


def test_criterion_3_throughput_log_scaling():
    # K in {32,64,128,256} with the coupled rate rule (gamma = sqrt(K))
    res = check_throughput_trend(seed=1)
    ok = res.passed
    assert _verdict(3, "throughput-log-scaling", ok,
                    f"R^2 {res.measured['r2']:.4f} (>=0.95), "
                    f"monotone {res.measured['monotone']}, "
                    f"below (W*alpha/4)*log2 K: {res.measured['below_bound']}")


def test_criterion_4_mobility_insensitivity():
    qs = (0.1, 0.2, 0.5)
    ob = [acc_run(sat_cfg("obdwf", 110, q)).throughput for q in qs]
    dd = [acc_run(sat_cfg("ddf", 110, q)).throughput for q in qs]
    ob_s, dd_s = spread(ob), spread(dd)
    ok = ob_s < 0.10 and dd_s > 0.25
    assert _verdict(4, "mobility-insensitivity", ok,
                    f"throughput spread over q in {qs}: "
                    f"obdwf {ob_s:.1%} (< 10%), ddf {dd_s:.1%} (> 25%)")


def test_criterion_5_protocol_ordering():
    # throughput and max stable rate: the buffered protocol must beat the
    # two-phase baseline and both analog-forwarding variants at every K.
    # lambda* ordering is proved by brackets: a rate proven stable for obdwf
    # must exceed a rate proven unstable for each baseline.
    ks = (60, 110, 160)
    rivals = ("ddf", "af", "afsc")
    details = []
    ok = True
    for K in ks:
        tput = {p: acc_run(sat_cfg(p, K)).throughput for p in ("obdwf",) + rivals}
        t_ok = all(tput["obdwf"] > tput[p] for p in rivals)
        base = SimConfig(K=K, seed=17)
        ob = max_stable_rate(replace(base, protocol="obdwf"),
                             lo=0.2, hi=0.8, resolution=0.6)
        dd = max_stable_rate(replace(base, protocol="ddf"),
                             lo=0.02, hi=0.2, resolution=0.05)
        af = max_stable_rate(replace(base, protocol="af"),
                             lo=0.02, hi=0.15, resolution=0.13)
        asc = max_stable_rate(replace(base, protocol="afsc"),
                              lo=0.02, hi=0.15, resolution=0.13)
        lam_ok = all(
            b.unstable_rate is not None and ob.stable_rate > b.unstable_rate
            for b in (dd, af, asc)
        )
        ok &= t_ok and lam_ok
        details.append(
            f"K={K}: tput obdwf {tput['obdwf']:.3g} > "
            + "/".join(f"{p} {tput[p]:.3g}" for p in rivals)
            + f" [{t_ok}]; lambda* obdwf >= {ob.stable_rate:.2g} vs "
            + "/".join(f"{p} <= {b.unstable_rate}" for p, b in
                       zip(rivals, (dd, af, asc)))
            + f" [{lam_ok}]"
        )
    # the reference arrival burst pattern (mean 0.015 packets/frame) must
    # leave the obdwf source queue stable with a finite measured delay
    m = acc_run(SimConfig(K=110, horizon=230_000, warmup=25_000, seed=23))
    delay_ok = (m.stability is not None and m.stability.stable
                and m.mean_delay is not None and math.isfinite(m.mean_delay))
    ok &= delay_ok
    details.append(
        f"delay at mean rate 0.015: {m.mean_delay:.2f} frames, "
        f"stable {m.stability.stable}"
    )
    assert _verdict(5, "protocol-ordering", ok, "; ".join(details))


def test_criterion_6_alternation_law():
    res = check_alternation(seed=1)
    # lambda* bracket around the exact capacity 1/2 of the two-frame cycle
    alt = SimConfig(
        K=1, seed=3, horizon=40_000, rate=1e6,
        fading=GainTable(gains=(1.0,), probs=(1.0,)),
        pinned_positions=((2.5, 0.0),),
    )
    br = max_stable_rate(alt, lo=0.4, hi=0.6, resolution=0.2)
    bracket_ok = (br.unstable_rate is not None
                  and br.stable_rate <= 0.5 <= br.unstable_rate)
    # large fleet at the default rate rule: both endpoints are connected to
    # some relay nearly always, so broadcast/forward alternate 50/50
    big = acc_run(replace(sat_cfg("obdwf", 110, seed=29), track_connectivity=True))
    conn = min(big.src_conn_fraction, big.dst_conn_fraction)
    frac = big.broadcast_fraction
    big_ok = conn > 0.999 and abs(frac - 0.5) <= 0.02
    ok = res.passed and bracket_ok and big_ok
    assert _verdict(
        6, "alternation-law", ok,
        f"exact half-rate law {res.passed}; lambda* bracket "
        f"[{br.stable_rate}, {br.unstable_rate}] contains 0.5: {bracket_ok}; "
        f"K=110 connectivity {conn:.4%}, broadcast fraction {frac:.4f}",
    )


def test_criterion_7_ddf_service_decomposition():
    base = SimConfig(protocol="ddf", K=110, horizon=60_000, warmup=0,
                     infinite_backlog=True, seed=31)
    rate0 = effective_rate(base)
    mults, qs = (0.9, 1.0, 1.15), (0.1, 0.2, 0.5)
    mean_service = {}
    books = True
    for mult in mults:
        for q in qs:
            m = acc_run(replace(base, rate=rate0 * mult, mobility=RandomWalk(q=q)))
            mean_service[(mult, q)] = m.mean_service
            books &= (
                m.service_count > 50
                and m.broadcast_frames + m.forward_frames == m.measured_frames
                and m.rho_frames <= m.broadcast_frames
                and m.eta_frames <= m.forward_frames
                and math.isclose(m.mean_service, m.mean_rho + m.mean_eta,
                                 rel_tol=0.0, abs_tol=1e-9)
            )
    # rate up means beta (hence gamma) up at fixed W; q up means faster mixing
    gamma_mono = all(
        mean_service[(mults[i], q)] <= mean_service[(mults[i + 1], q)]
        for q in qs for i in range(len(mults) - 1)
    )
    q_mono = all(
        mean_service[(mult, qs[i])] >= mean_service[(mult, qs[i + 1])]
        for mult in mults for i in range(len(qs) - 1)
    )
    ok = books and gamma_mono and q_mono
    corner = {k: round(v, 2) for k, v in mean_service.items()
              if k in ((0.9, 0.5), (1.0, 0.2), (1.15, 0.1))}
    assert _verdict(
        7, "ddf-service-decomposition", ok,
        f"bookkeeping exact on 3x3 grid: {books}; nondecreasing in gamma: "
        f"{gamma_mono}; nonincreasing in q: {q_mono}; corners {corner}",
    )


def test_criterion_8_engine_hygiene():
    # two extra finite-load runs so the dominance audit has stable verdicts
    # from more than one protocol
    acc_run(SimConfig(K=110, protocol="ddf", horizon=230_000, warmup=25_000,
                      seed=37, arrival_pmf=((1, 0.02), (0, 0.98))))
    acc_run(SimConfig(K=60, horizon=230_000, warmup=25_000, seed=41,
                      arrival_pmf=((1, 0.1), (0, 0.9))))
    # bit-identical rerun under a fixed seed
    probe = SimConfig(K=40, horizon=25_000, seed=43)
    a, b = run(probe), run(probe)
    identical = (
        a.delivered == b.delivered
        and a.arrivals == b.arrivals
        and a.throughput == b.throughput
        and a.mean_delay == b.mean_delay
        and np.array_equal(a.qs_traj, b.qs_traj)
        and np.array_equal(a.relay_traj, b.relay_traj)
    )
    ACC_RUNS.append((probe, a))
    conserve = all(m.conservation_ok for _, m in ACC_RUNS)
    dominance_checked = 0
    dominance = True
    for _, m in ACC_RUNS:
        if m.stability is not None and m.stability.stable:
            try:
                rv = assess_stability(m.relay_traj, m.traj_stride, m.warmup)
            except ValueError:
                continue  # window too short to judge
            dominance_checked += 1
            dominance &= rv.stable
    ok = identical and conserve and dominance and dominance_checked >= 2
    assert _verdict(
        8, "engine-hygiene", ok,
        f"{len(ACC_RUNS)} runs audited; conservation all-ok {conserve}; "
        f"relay-queue dominance held on {dominance_checked} stable runs "
        f"({dominance}); rerun bit-identical {identical}",
    )
