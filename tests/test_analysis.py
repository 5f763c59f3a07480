"""Closed-form calculators: frozen hand-computed values, branch continuity,
stability guards, and the dual-route p.g.f. cross-check."""

import math

import numpy as np
import pytest

from relaysim.analysis import (
    OrderParams,
    ServiceMoments,
    StabilityError,
    ddf_delay_order,
    ddf_service_components,
    ddf_service_time_order,
    ddf_throughput_order,
    intake_time_order,
    loglog_order_fit,
    mx_g1_wait,
    obdwf_delay_order,
    obdwf_throughput_bound,
    stability_gain_order,
)

from support import PgfSpec, pgf_mean_system

# hand-computed with exact rational arithmetic:
#   wait = (l1^2 b2 - l1^2 b - l1 b + l2 b) / (2 l1 (1 - l1 b)) + b
BATCH_QUEUE_CASES = [
    # (lam1, lam2, b, b2, expected mean frames in system)
    (0.015, 0.225, 2.0, 4.0, 16.448453608247423),       # 3191/194
    (0.015, 0.225, 1.96875, 5.53125, 16.196893616164868),  # 3219165/198752
    (0.3, 0.3, 1.0, 1.0, 1.0),                          # Bernoulli + unit service
    (0.2, 0.2, 2.5, 8.5, 3.7),                          # 37/10
    (0.5, 1.1, 1.4, 2.2, 4.866666666666666),            # 73/15
    (0.4, 0.8, 2.1, 4.5, 11.6625),                      # 933/80
]


def test_mx_g1_wait_frozen_values():
    for lam1, lam2, b, b2, expect in BATCH_QUEUE_CASES:
        got = mx_g1_wait(lam1, lam2, ServiceMoments(b, b2))
        assert math.isclose(got, expect, rel_tol=1e-12), (lam1, lam2, b, b2, got)


def test_mx_g1_wait_degenerate_and_guards():
    assert mx_g1_wait(0.0, 0.0, ServiceMoments(3.0, 9.0)) == 3.0
    with pytest.raises(StabilityError):
        mx_g1_wait(0.5, 0.5, ServiceMoments(2.0, 4.0))  # load exactly 1
    with pytest.raises(StabilityError):
        mx_g1_wait(0.6, 0.6, ServiceMoments(2.0, 4.0))
    with pytest.raises(ValueError):
        mx_g1_wait(-0.1, 0.1, ServiceMoments(2.0, 4.0))
    with pytest.raises(ValueError):
        mx_g1_wait(0.5, 0.4, ServiceMoments(2.0, 4.0))  # lam2 < lam1 impossible
    with pytest.raises(ValueError):
        ServiceMoments(0.5, 4.0)  # service below one frame
    with pytest.raises(ValueError):
        ServiceMoments(2.0, 3.0)  # b2 < b^2


def test_mx_g1_wait_monotone_in_load_and_variance():
    m = ServiceMoments(2.0, 4.0)
    waits = [mx_g1_wait(l, l, m) for l in (0.1, 0.2, 0.3, 0.4, 0.45)]
    assert all(a < b for a, b in zip(waits, waits[1:]))
    # extra service variance at the same mean only hurts
    assert mx_g1_wait(0.3, 0.3, ServiceMoments(2.0, 6.0)) > mx_g1_wait(
        0.3, 0.3, ServiceMoments(2.0, 4.0)
    )
    # burstier batches at the same mean rate only hurt
    assert mx_g1_wait(0.3, 0.9, m) > mx_g1_wait(0.3, 0.3, m)


# pmf pairs realizing the moment cases above, for the p.g.f. cross-check
PGF_CASES = [
    ({15: 0.001, 0: 0.999}, {2: 1.0}),
    ({15: 0.001, 0: 0.999},
     {1: 0.5, 2: 0.25, 3: 0.125, 4: 0.0625, 5: 0.03125, 6: 0.03125}),
    ({1: 0.3, 0: 0.7}, {1: 1.0}),
    ({1: 0.2, 0: 0.8}, {1: 0.5, 4: 0.5}),
    ({3: 0.1, 1: 0.2, 0: 0.7}, {1: 0.6, 2: 0.4}),
    ({2: 0.2, 0: 0.8}, {2: 0.9, 3: 0.1}),
]


def test_pgf_route_matches_moment_route():
    # two independent derivations of the same mean must agree to 1e-6
    for apmf, spmf in PGF_CASES:
        spec = PgfSpec(arrival_pmf=apmf, service_pmf=spmf)
        lam1 = spec.lam1
        lam2 = sum(k * k * p for k, p in apmf.items())
        b = spec.b
        b2 = sum(k * k * p for k, p in spmf.items())
        via_moments = mx_g1_wait(lam1, lam2, ServiceMoments(b, b2))
        via_pgf = pgf_mean_system(spec)
        assert math.isclose(via_pgf, via_moments, rel_tol=1e-6), (apmf, spmf)


def test_pgf_spec_validation():
    with pytest.raises(ValueError):
        PgfSpec(arrival_pmf={}, service_pmf={1: 1.0})
    with pytest.raises(ValueError):
        PgfSpec(arrival_pmf={1: 0.5}, service_pmf={1: 1.0})
    with pytest.raises(ValueError):
        PgfSpec(arrival_pmf={1: 1.0}, service_pmf={0: 1.0})
    with pytest.raises(StabilityError):
        # offered load 0.5 * 2 = 1
        pgf_mean_system(PgfSpec(arrival_pmf={1: 0.5, 0: 0.5}, service_pmf={2: 1.0}))


def test_intake_time_order():
    assert intake_time_order(10, 5.0) == 1.0
    assert intake_time_order(10, 20.0) == 2.0
    assert intake_time_order(10, 10.0) == 1.0
    with pytest.raises(ValueError):
        intake_time_order(0, 5.0)
    with pytest.raises(ValueError):
        intake_time_order(10, 0.5)


def test_service_components_branches():
    # four regimes, values frozen from the piecewise formulas
    rho, eta, case = ddf_service_components(OrderParams(K=100, gamma=5.0, q=0.2, M=5))
    assert (rho, case) == (1.0, 1)
    assert math.isclose(eta, 2.7464013582652944, rel_tol=1e-12)
    rho, eta, case = ddf_service_components(OrderParams(K=10, gamma=9.0, q=0.5, M=5))
    assert (rho, case) == (1.0, 2)
    assert math.isclose(eta, 8.1, rel_tol=1e-12)
    rho, eta, case = ddf_service_components(OrderParams(K=2, gamma=4.0, q=0.2, M=5))
    assert (rho, case) == (2.0, 3)
    assert math.isclose(eta, 4.781762498950185, rel_tol=1e-12)
    rho, eta, case = ddf_service_components(OrderParams(K=2, gamma=10.0, q=0.5, M=5))
    assert (rho, case) == (5.0, 4)
    assert eta == 10.0


def test_service_components_continuous_across_branches():
    # K = q*gamma^2 joins cases 1 and 2 at eta = 1/q
    q, g, M = 0.25, 8.0, 5
    K = int(q * g * g)  # 16
    p = OrderParams(K=K, gamma=g, q=q, M=M)
    _, eta, case = ddf_service_components(p)
    assert case == 1
    assert math.isclose(eta, 1.0 / q, rel_tol=1e-12)
    assert math.isclose(eta, g * g / K, rel_tol=1e-12)  # the case-2 value agrees
    # q*gamma = 1 joins cases 3 and 4 at eta = gamma
    q2, g2 = 0.25, 4.0
    p2 = OrderParams(K=2, gamma=g2, q=q2, M=M)
    _, eta2, case2 = ddf_service_components(p2)
    assert case2 == 3
    assert math.isclose(eta2, g2, rel_tol=1e-12)
    # gamma = K joins the low- and high-rate pairs (here cases 2 and 4)
    g3 = 6.0
    below = ddf_service_components(OrderParams(K=6, gamma=g3 - 1e-9, q=0.5, M=M))
    at = ddf_service_components(OrderParams(K=6, gamma=g3, q=0.5, M=M))
    assert below[2] == 2 and at[2] == 4
    assert math.isclose(below[1], at[1], rel_tol=1e-6)


def test_service_time_order_is_max_of_components():
    p = OrderParams(K=2, gamma=10.0, q=0.5, M=5)
    rho, eta, _ = ddf_service_components(p)
    assert ddf_service_time_order(p) == max(rho, eta)


def test_service_monotone_grid():
    # nondecreasing in gamma, nonincreasing in q, over a seeded grid
    for K in (16, 110, 400):
        for M in (3, 5):
            gammas = np.linspace(1.5, 30.0, 12)
            for q in (0.1, 0.3, 0.5):
                vals = [ddf_service_time_order(OrderParams(K=K, gamma=g, q=q, M=M))
                        for g in gammas]
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])), (K, M, q)
            qs = np.linspace(0.05, 0.5, 10)
            for g in (2.0, 8.0, 25.0):
                vals = [ddf_service_time_order(OrderParams(K=K, gamma=g, q=q, M=M))
                        for q in qs]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), (K, M, g)


def test_order_params_validation():
    with pytest.raises(ValueError):
        OrderParams(K=0, gamma=2.0, q=0.2, M=5)
    with pytest.raises(ValueError):
        OrderParams(K=10, gamma=0.9, q=0.2, M=5)
    with pytest.raises(ValueError):
        OrderParams(K=10, gamma=2.0, q=0.0, M=5)
    with pytest.raises(ValueError):
        OrderParams(K=10, gamma=2.0, q=0.6, M=5)
    with pytest.raises(ValueError):
        OrderParams(K=10, gamma=2.0, q=0.2, M=0)


def test_throughput_bound_and_order():
    assert math.isclose(obdwf_throughput_bound(110, 1e6, 4.0), 6781359.71352466,
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        obdwf_throughput_bound(1, 1e6, 4.0)
    value, gamma_star = ddf_throughput_order(110, 0.2, 5)
    assert math.isclose(value, 0.7064843300523573, rel_tol=1e-12)
    assert gamma_star == 1.0
    value, gamma_star = ddf_throughput_order(10**6, 0.5, 2)
    assert math.isclose(value, 18.931568569324174, rel_tol=1e-12)  # log branch wins
    assert math.isclose(gamma_star, 707.1067811865476, rel_tol=1e-12)
    with pytest.raises(ValueError):
        ddf_throughput_order(0, 0.2, 5)


def test_delay_orders_and_stability_regions():
    p = OrderParams(K=10, gamma=5.0, q=0.2, M=5)
    # zeta = 1, Ds = (25 / (10 * 0.2^4))^(1/5) = 1562.5^0.2
    ds = ddf_service_time_order(p)
    assert math.isclose(ds, 1562.5**0.2, rel_tol=1e-12)
    got = obdwf_delay_order(p, lam1=0.5, lam2=0.5)
    # queueing term 0.5/(0.5*0.5) = 2 loses to the wander term Ds
    assert math.isclose(got, ds, rel_tol=1e-12)
    got = ddf_delay_order(p, lam1=0.1, lam2=0.1)
    assert math.isclose(got, 0.1 * ds / (0.1 * (1 - 0.1 * ds)), rel_tol=1e-12)
    # the opportunistic protocol tolerates rates the two-phase one cannot
    with pytest.raises(StabilityError):
        ddf_delay_order(p, lam1=0.5, lam2=0.5)  # 0.5 * Ds > 1
    obdwf_delay_order(p, lam1=0.9, lam2=0.9)  # zeta = 1: fine below rate 1
    with pytest.raises(StabilityError):
        obdwf_delay_order(p, lam1=1.0, lam2=1.0)
    with pytest.raises(StabilityError):
        obdwf_delay_order(p, lam1=0.0, lam2=0.0)


def test_stability_gain_order():
    p = OrderParams(K=10, gamma=5.0, q=0.2, M=5)
    assert math.isclose(
        stability_gain_order(p),
        ddf_service_time_order(p) / intake_time_order(p.K, p.gamma),
        rel_tol=1e-15,
    )
    # while gamma stays below K the intake time is pinned at 1, so the gain
    # inherits the growth of the two-phase service time
    gains = [stability_gain_order(OrderParams(K=10, gamma=g, q=0.2, M=5))
             for g in (2.0, 4.0, 6.0, 9.0)]
    assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))


def test_loglog_order_fit():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    slope, stderr = loglog_order_fit(x, 3.0 * x**-1.0)
    assert math.isclose(slope, -1.0, abs_tol=1e-12)
    assert stderr < 1e-12
    slope, _ = loglog_order_fit(x, 0.5 * x**2.5)
    assert math.isclose(slope, 2.5, abs_tol=1e-12)
    with pytest.raises(ValueError):
        loglog_order_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        loglog_order_fit([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
