"""Theory-versus-simulation validation suite.

Five self-contained checks compare closed-form results against independent
simulation: the batch-arrival queue formula against a brute-force queue, the
connection-probability decay slope, the saturation-throughput growth trend,
the two-phase service-time decomposition, and the two-frame alternation law.

Each check returns a CheckResult; run_suite() runs them all. The ``hooks``
mapping lets a test swap a named formula for a corrupted one to prove the
corresponding check actually has teeth (negative control).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .channel import GainTable, connection_probability_mc
from .engine import SimConfig, build_phy, effective_rate, run
from .geometry import RandomWalk, build_disk
from .traffic import arrival_moments

__all__ = [
    "CheckResult",
    "BatchQueueStats",
    "simulate_batch_queue",
    "check_queue_formula",
    "check_connectivity_slope",
    "check_throughput_trend",
    "check_service_decomposition",
    "check_alternation",
    "run_suite",
    "QUEUE_CHECK_CASES",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: dict
    expected: str
    detail: str

    def row(self) -> dict:
        return {
            "check": self.name,
            "passed": int(self.passed),
            "expected": self.expected,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class BatchQueueStats:
    mean_delay: float
    n_packets: int


def simulate_batch_queue(
    arrival_pmf: dict[int, float],
    service_pmf: dict[int, float],
    n_frames: int,
    seed: int = 0,
) -> BatchQueueStats:
    """Brute-force single-server queue: i.i.d. batch arrivals per frame,
    i.i.d. integer service frames, FIFO, sojourn counted inclusively
    (arrive and finish in the same frame = 1).

    Independent oracle: numpy Generator randomness and a direct completion
    recursion c_i = max(a_i, c_{i-1} + 1) + s_i - 1, vectorized via a
    running-maximum identity.
    """
    rng = np.random.default_rng(seed)
    sizes = np.array(sorted(arrival_pmf), dtype=np.int64)
    sp = np.array([arrival_pmf[k] for k in sizes], dtype=np.float64)
    svals = np.array(sorted(service_pmf), dtype=np.int64)
    if svals.min() < 1:
        raise ValueError("service must be at least one frame")
    ssp = np.array([service_pmf[k] for k in svals], dtype=np.float64)
    counts = rng.choice(sizes, p=sp / sp.sum(), size=n_frames)
    a = np.repeat(np.arange(n_frames, dtype=np.int64), counts)
    if a.size == 0:
        return BatchQueueStats(math.nan, 0)
    s = rng.choice(svals, p=ssp / ssp.sum(), size=a.size)
    cum = np.cumsum(s)
    prev = np.concatenate(([0], cum[:-1]))
    start_floor = np.maximum.accumulate(a - 1 - prev)
    c = start_floor + cum
    delay = c - a + 1
    return BatchQueueStats(float(delay.mean()), int(a.size))


# (arrival pmf, service pmf) pairs for the queue-formula cross-check;
# the first is the reference burst pattern with two-frame deterministic service
QUEUE_CHECK_CASES: tuple[tuple[dict, dict], ...] = (
    ({15: 0.001, 0: 0.999}, {2: 1.0}),
    ({15: 0.001, 0: 0.999}, {1: 0.5, 2: 0.25, 3: 0.125, 4: 0.0625, 5: 0.03125, 6: 0.03125}),
    ({1: 0.3, 0: 0.7}, {1: 1.0}),
    ({1: 0.2, 0: 0.8}, {1: 0.5, 4: 0.5}),
    ({3: 0.1, 1: 0.2, 0: 0.7}, {1: 0.6, 2: 0.4}),
    ({2: 0.2, 0: 0.8}, {2: 0.9, 3: 0.1}),
)


def check_queue_formula(
    n_frames: int = 10_000_000,
    seed: int = 1,
    rel_tol: float = 0.02,
    cases=QUEUE_CHECK_CASES,
    hooks: dict | None = None,
) -> CheckResult:
    """Closed-form batch-arrival mean delay vs the brute-force queue."""
    wait_fn = (hooks or {}).get("mx_g1_wait", analysis.mx_g1_wait)
    worst = 0.0
    details = []
    passed = True
    for i, (apmf, spmf) in enumerate(cases):
        lam1, lam2 = arrival_moments(apmf)
        b, b2 = arrival_moments(spmf)
        predicted = wait_fn(lam1, lam2, analysis.ServiceMoments(b, b2))
        sim = simulate_batch_queue(apmf, spmf, n_frames, seed + i)
        rel = abs(sim.mean_delay - predicted) / predicted
        worst = max(worst, rel)
        ok = rel <= rel_tol
        passed &= ok
        details.append(f"case{i}: formula={predicted:.6g} sim={sim.mean_delay:.6g} rel={rel:.2e}")
    return CheckResult(
        name="queue-formula-vs-oracle",
        passed=passed,
        measured={"worst_rel_err": worst, "cases": len(cases)},
        expected=f"relative error <= {rel_tol} on every case",
        detail="; ".join(details),
    )


def check_connectivity_slope(
    seed: int = 1,
    n_samples: int = 200_000,
    slope_tol: float = 0.1,
    hooks: dict | None = None,
) -> CheckResult:
    """Connection probability decays like 1/gamma: log-log slope -1 +/- tol."""
    fit_fn = (hooks or {}).get("loglog_order_fit", analysis.loglog_order_fit)
    geometry = build_disk(2.5, 5)
    rng = np.random.default_rng(seed)
    gammas = np.geomspace(5.0, 50.0, 9)
    phis = []
    base = SimConfig()
    for g in gammas:
        rate = base.bandwidth * (base.alpha / 2.0) * math.log2(g)
        phy = build_phy(replace(base, rate=rate))
        est = connection_probability_mc(phy, geometry, base.fading, "dest", n_samples, rng)
        phis.append(est.probability)
    slope, stderr = fit_fn(gammas, np.asarray(phis))
    ok = abs(slope - (-1.0)) <= slope_tol
    return CheckResult(
        name="connectivity-decay-slope",
        passed=ok,
        measured={"slope": slope, "stderr": stderr},
        expected=f"slope within {slope_tol} of -1",
        detail=f"gamma in [{gammas[0]:.3g}, {gammas[-1]:.3g}], phi in "
               f"[{min(phis):.3g}, {max(phis):.3g}]",
    )


def check_throughput_trend(
    seed: int = 1,
    ks: tuple[int, ...] = (32, 64, 128, 256),
    horizon: int = 60_000,
    r2_min: float = 0.95,
    hooks: dict | None = None,
) -> CheckResult:
    """Saturation throughput grows like log2 K and stays below the cap."""
    bound_fn = (hooks or {}).get("obdwf_throughput_bound", analysis.obdwf_throughput_bound)
    base = SimConfig(seed=seed, horizon=horizon, infinite_backlog=True, rate=None)
    tputs = []
    for k in ks:
        m = run(replace(base, K=k))
        tputs.append(m.throughput)
    x = np.log2(np.asarray(ks, dtype=np.float64))
    y = np.asarray(tputs)
    monotone = bool(np.all(np.diff(y) > 0))
    coef = np.polyfit(x, y, 1)
    fitted = np.polyval(coef, x)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    below = all(
        t <= bound_fn(k, base.bandwidth, base.alpha) for t, k in zip(tputs, ks)
    )
    ok = monotone and r2 >= r2_min and below
    return CheckResult(
        name="throughput-log-trend",
        passed=ok,
        measured={"r2": r2, "monotone": monotone, "below_bound": below,
                  "throughputs": tuple(float(t) for t in y)},
        expected=f"monotone in K, R^2 >= {r2_min}, below (W*alpha/4)*log2 K",
        detail=f"K={ks}, tput={[f'{t:.4g}' for t in tputs]}, slope={coef[0]:.4g} bits/s per log2 K",
    )


def check_service_decomposition(
    seed: int = 1,
    horizon: int = 80_000,
    hooks: dict | None = None,
) -> CheckResult:
    """Two-phase service bookkeeping is exact and trends match the calculator:
    mean service nondecreasing in gamma, nonincreasing in q."""
    # warmup 0 so completed services exactly tile the measured window
    base = SimConfig(seed=seed, protocol="ddf", horizon=horizon, warmup=0,
                     infinite_backlog=True)
    rate0 = effective_rate(base)

    def measure(rate_mult: float, q: float):
        m = run(replace(base, rate=rate0 * rate_mult, mobility=RandomWalk(q=q)))
        return m

    mid = measure(1.0, 0.2)
    hi_rate = measure(1.25, 0.2)
    slow = measure(1.0, 0.1)
    fast = measure(1.0, 0.5)
    # completed services tile the backlogged timeline: every frame is either a
    # broadcast or a forward, phase counts never exceed their role counts, and
    # the untallied remainder is exactly the one in-flight service
    def books_ok(m):
        unfinished = m.measured_frames - m.rho_frames - m.eta_frames
        return (
            m.service_count > 50
            and m.broadcast_frames + m.forward_frames == m.measured_frames
            and m.rho_frames <= m.broadcast_frames
            and m.eta_frames <= m.forward_frames
            and 0 <= unfinished
            and unfinished == (m.broadcast_frames - m.rho_frames)
            + (m.forward_frames - m.eta_frames)
            and math.isclose(
                m.mean_service, m.mean_rho + m.mean_eta, rel_tol=0.0, abs_tol=1e-9
            )
        )

    exact = all(books_ok(m) for m in (mid, hi_rate, slow, fast))
    gamma_up = hi_rate.mean_service >= mid.mean_service
    q_down = slow.mean_service >= mid.mean_service >= fast.mean_service
    ok = exact and gamma_up and q_down
    return CheckResult(
        name="service-decomposition",
        passed=ok,
        measured={
            "mean_service_mid": mid.mean_service,
            "mean_service_hi_rate": hi_rate.mean_service,
            "mean_service_slow": slow.mean_service,
            "mean_service_fast": fast.mean_service,
            "bookkeeping_exact": exact,
        },
        expected="rho+eta sums exactly; service up with rate, down with q",
        detail=(
            f"mid={mid.mean_service:.3f} hiRate={hi_rate.mean_service:.3f} "
            f"q0.1={slow.mean_service:.3f} q0.5={fast.mean_service:.3f}"
        ),
    )


def _always_connected_config(seed: int = 1, horizon: int = 40_000) -> SimConfig:
    """One relay pinned at the disk center, unit gain, rate = W: the relay is
    always connected to both endpoints while the direct link never is, so the
    protocol must alternate broadcast/forward exactly."""
    return SimConfig(
        K=1, seed=seed, horizon=horizon, warmup=0, infinite_backlog=True,
        rate=1e6, fading=GainTable(gains=(1.0,), probs=(1.0,)),
        pinned_positions=((2.5, 0.0),), traj_stride=1,
    )


def check_alternation(seed: int = 1, horizon: int = 40_000, hooks: dict | None = None) -> CheckResult:
    """Always-connected single relay: exactly half the frames deliver, so
    saturation throughput equals rate/2 exactly."""
    cfg = _always_connected_config(seed, horizon)
    m = run(cfg)
    rate = effective_rate(cfg)
    ratio = (hooks or {}).get("alternation_ratio", lambda: 0.5)()
    # the exact law is the integer one: deliveries per frame == ratio
    exact = m.delivered_measured == ratio * m.measured_frames
    tput_ok = math.isclose(m.throughput, rate * ratio, rel_tol=1e-12)
    frac = m.broadcast_fraction
    ok = exact and tput_ok and frac == 0.5
    return CheckResult(
        name="alternation-law",
        passed=ok,
        measured={"throughput": m.throughput, "expected": rate * ratio,
                  "broadcast_fraction": frac},
        expected="deliveries == frames/2 exactly; throughput == rate/2; "
                 "broadcast fraction == 1/2",
        detail=f"delivered {m.delivered} in {m.frames} frames",
    )


def run_suite(seed: int = 1, hooks: dict | None = None) -> list[CheckResult]:
    """All five checks, in a stable order."""
    return [
        check_queue_formula(seed=seed, hooks=hooks),
        check_connectivity_slope(seed=seed, hooks=hooks),
        check_throughput_trend(seed=seed, hooks=hooks),
        check_service_decomposition(seed=seed, hooks=hooks),
        check_alternation(seed=seed, hooks=hooks),
    ]
