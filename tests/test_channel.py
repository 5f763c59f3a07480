"""Channel model: rate law, connectivity threshold, fading, MC estimator."""

import math

import numpy as np
import pytest

from relaysim.channel import (
    GainTable,
    PhyParams,
    Rayleigh,
    af_effective_snr,
    connect_threshold,
    connection_probability_mc,
)
from relaysim.geometry import build_disk
from relaysim.protocols import FrameLinks


def ref_phy(rate=1e6, power=100.0, alpha=4.0, xi=1.0):
    return PhyParams(bandwidth=1e6, power=power, rate=rate, tau=5e-3, alpha=alpha, xi=xi)


def test_phy_derived_quantities():
    phy = ref_phy(rate=1e6 * math.log2(110))
    assert math.isclose(phy.beta, 110.0, rel_tol=1e-12)
    assert math.isclose(phy.gamma, math.sqrt(110.0), rel_tol=1e-12)
    # gamma = beta^(2/alpha) tracks alpha
    phy3 = ref_phy(rate=3e6, alpha=3.0)
    assert math.isclose(phy3.gamma, 8.0 ** (2.0 / 3.0), rel_tol=1e-12)


def test_phy_validation():
    with pytest.raises(ValueError):
        ref_phy(rate=0.0)
    with pytest.raises(ValueError):
        ref_phy(power=-1.0)
    with pytest.raises(ValueError):
        ref_phy(alpha=1.5)


def test_connectivity_threshold_inclusive():
    phy = ref_phy(rate=2e6)  # beta = 4
    d = 1.3
    thr = connect_threshold(d, phy)
    assert math.isclose(thr, (phy.beta - 1.0) * d**4 / (phy.power * phy.xi), rel_tol=1e-15)
    # the rate meets R at the threshold gain
    rate = phy.bandwidth * math.log2(1.0 + phy.power * phy.xi * thr / d**4)
    assert rate >= phy.rate * (1 - 1e-12)
    # the engine's links: a gain at the threshold connects (boundary counts as
    # connected), one ulp below does not, on every link of the frame; at 2.1
    # and 3.3 the threshold rounds differently in other orders of operations
    for d in (1.3, 2.1, 3.3):
        thr = connect_threshold(d, phy)
        for h, connected in ((thr, True), (np.nextafter(thr, 0.0), False)):
            links = FrameLinks.from_values(phy, [h], [h], h, [d], [d], d)
            assert links.src_connected()[0] == links.dst_connected()[0] == connected
            assert links.direct_connected() == connected


def test_af_effective_snr_reference():
    # P=1 and unit qualities: 1*1*1 / (1 + 1 + 1) = 1/3
    assert math.isclose(af_effective_snr(1.0, 1.0, 1.0), 1.0 / 3.0, rel_tol=1e-15)
    # harmonic-style combining never beats the weaker hop's own SNR
    assert af_effective_snr(0.1, 100.0, 1.0) < 0.1 * 1.0
    arr = af_effective_snr(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 2.0)
    assert arr.shape == (2,)


def test_rayleigh_from_uniforms():
    r = Rayleigh()
    u = np.array([1.0, 0.5, np.exp(-3.0)])
    g = r.from_uniforms(u)
    assert np.allclose(g, [0.0, math.log(2.0), 3.0], atol=1e-15)


def test_gain_table_validation_and_sampling():
    with pytest.raises(ValueError):
        GainTable(gains=(0.5,), probs=(1.0,))  # mean != 1
    with pytest.raises(ValueError):
        GainTable(gains=(1.0, 2.0), probs=(0.5,))
    with pytest.raises(ValueError):
        GainTable(gains=(1.0,), probs=(0.9,))
    tbl = GainTable(gains=(0.5, 1.5), probs=(0.5, 0.5))
    # inverse cdf: u <= p0 gives the first gain, above it the second
    assert tbl.from_uniforms(0.2) == 0.5
    assert tbl.from_uniforms(0.5) == 0.5
    assert tbl.from_uniforms(0.51) == 1.5
    assert tbl.from_uniforms(1.0) == 1.5
    out = tbl.from_uniforms(np.array([0.1, 0.9]))
    assert np.array_equal(out, [0.5, 1.5])


def test_connection_probability_deterministic_and_bounded():
    phy = ref_phy(rate=1e6 * math.log2(110))
    geo = build_disk(2.5, 5)
    a = connection_probability_mc(phy, geo, Rayleigh(), "dest", 50_000, np.random.default_rng(3))
    b = connection_probability_mc(phy, geo, Rayleigh(), "dest", 50_000, np.random.default_rng(3))
    assert a == b
    assert 0.0 < a.probability < 1.0
    assert a.ci_low <= a.probability <= a.ci_high
    with pytest.raises(ValueError):
        connection_probability_mc(phy, geo, Rayleigh(), "nowhere", 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        connection_probability_mc(phy, geo, Rayleigh(), "dest", 0, np.random.default_rng(0))


def test_connection_probability_ci_scaling():
    # Wald half-width shrinks like n^{-1/2}
    phy = ref_phy(rate=1e6 * math.log2(64))
    geo = build_disk(2.5, 5)
    est1 = connection_probability_mc(phy, geo, Rayleigh(), "source", 20_000,
                                     np.random.default_rng(11))
    est2 = connection_probability_mc(phy, geo, Rayleigh(), "source", 320_000,
                                     np.random.default_rng(11))
    w1 = est1.ci_high - est1.ci_low
    w2 = est2.ci_high - est2.ci_low
    assert w2 < w1 / 2.5  # 16x samples -> ~4x narrower


def test_connection_probability_extremes_and_symmetry():
    geo = build_disk(2.5, 5)
    unit = GainTable(gains=(1.0,), probs=(1.0,))
    # tiny rate: essentially everything is connected
    lo = connection_probability_mc(ref_phy(rate=1.0), geo, unit, "dest", 20_000,
                                   np.random.default_rng(2))
    assert lo.probability > 0.999
    # absurd rate: nothing is
    hi = connection_probability_mc(ref_phy(rate=4e7), geo, unit, "dest", 20_000,
                                   np.random.default_rng(2))
    assert hi.probability == 0.0
    # the disk is mirror-symmetric, so source and dest see the same probability
    phy = ref_phy(rate=1e6 * math.log2(110))
    ps = connection_probability_mc(phy, geo, Rayleigh(), "source", 200_000,
                                   np.random.default_rng(5))
    pd = connection_probability_mc(phy, geo, Rayleigh(), "dest", 200_000,
                                   np.random.default_rng(6))
    assert abs(ps.probability - pd.probability) < 0.004
