"""Protocol state machines against scripted and randomized channel frames."""

import math

import numpy as np
import pytest

from relaysim.channel import PhyParams
from relaysim.protocols import (
    PROTOCOL_NAMES,
    ROLE_BROADCAST,
    ROLE_FORWARD,
    ROLE_IDLE,
    Af,
    AfSc,
    Ddf,
    DfSc,
    Obdwf,
    contention_select,
    make_protocol,
)
from relaysim.traffic import Packet, RelayBank, SourceQueue

from support import frame_links


class ScriptRng:
    """Feeds a fixed list of uniforms to contention tie-breaks."""

    def __init__(self, vals=()):
        self.vals = list(vals)

    def random(self):
        return self.vals.pop(0)


class NpRng:
    def __init__(self, seed):
        self.g = np.random.default_rng(seed)

    def random(self):
        return float(self.g.random())


def phy_beta2():
    # rate == bandwidth: beta = 2, so the gain threshold at distance d is d^4/100
    return PhyParams(bandwidth=1e6, power=100.0, rate=1e6, tau=5e-3, alpha=4.0, xi=1.0)


def phy_beta20():
    # beta = 20: with unit-mean fading at distance 1.2 a side connects ~2/3 of
    # the time, which keeps randomized traces exercising both branches
    return PhyParams(bandwidth=1e6, power=100.0, rate=1e6 * math.log2(20.0),
                     tau=5e-3, alpha=4.0, xi=1.0)


def links_for(phy, h_src, h_dst, h_direct, d=1.0, d_direct=5.0):
    k = len(h_src)
    return frame_links(
        phy, h_src, h_dst, h_direct, [d] * k, [d] * k, d_direct
    )


def full_source(*ids):
    q = SourceQueue()
    for i in ids:
        q.offer(Packet(i, 0))
    return q


# ---------- opportunistic buffered protocol ----------


def test_obdwf_forward_preempts_broadcast_and_flushes():
    phy = phy_beta2()
    proto = Obdwf()
    bank = RelayBank(3)
    bank.enqueue(0b101, 7)
    bank.enqueue(0b100, 8)
    source = full_source(9)
    # relays 0 and 2 are destination-connected (gain 1 >= 0.01); source side moot
    links = links_for(phy, [1.0, 1.0, 1.0], [1.0, 0.0, 1.0], 0.0)
    out = proto.step(links, source, bank, ScriptRng([0.0]))
    assert out.role == ROLE_FORWARD
    assert out.delivered == (7,)
    assert out.removed == 0b101  # every copy of 7 leaves
    assert bank.total_copies == 1 and bank.head(2) == 8
    assert len(source) == 1  # the source never acted this frame
    assert not out.source_dequeued


def test_obdwf_contention_uniform_pick():
    phy = phy_beta2()
    bank = RelayBank(3)
    bank.enqueue(0b001, 7)
    bank.enqueue(0b100, 8)
    links = links_for(phy, [0.0] * 3, [1.0, 0.0, 1.0], 0.0)
    # contenders are [0, 2]; u = 0.6 picks index 1 -> relay 2, whose head is 8
    out = Obdwf().step(links, full_source(9), bank, ScriptRng([0.6]))
    assert out.delivered == (8,)


def test_obdwf_broadcast_decodes_and_dequeues():
    phy = phy_beta2()
    bank = RelayBank(3)
    source = full_source(9, 10)
    links = links_for(phy, [1.0, 0.0, 1.0], [0.0] * 3, 0.0)
    out = Obdwf().step(links, source, bank, ScriptRng())
    assert out.role == ROLE_BROADCAST
    assert out.delivered == ()
    assert out.source_dequeued
    assert out.decodes == 0b101
    assert len(source) == 1 and source.head().id == 10
    assert bank.holders_of(9) == 0b101


def test_obdwf_direct_delivery_flushes_fresh_decodes():
    phy = phy_beta2()
    bank = RelayBank(2)
    source = full_source(9)
    # direct link: gain 10 >= 6.25 threshold at distance 5
    links = links_for(phy, [1.0, 0.0], [0.0] * 2, 10.0)
    out = Obdwf().step(links, source, bank, ScriptRng())
    assert out.role == ROLE_BROADCAST
    assert out.delivered == (9,)
    assert out.source_dequeued
    assert out.decodes == 0b1
    assert out.removed == 0b1  # the copy never lingers
    assert bank.total_copies == 0 and len(source) == 0


def test_obdwf_failed_broadcast_keeps_packet():
    phy = phy_beta2()
    source = full_source(9)
    links = links_for(phy, [0.0, 0.0], [0.0] * 2, 0.0)
    out = Obdwf().step(links, source, RelayBank(2), ScriptRng())
    assert out.role == ROLE_BROADCAST
    assert not out.source_dequeued and out.delivered == ()
    assert len(source) == 1


def test_obdwf_idle():
    phy = phy_beta2()
    links = links_for(phy, [1.0], [1.0], 10.0)
    out = Obdwf().step(links, SourceQueue(), RelayBank(1), ScriptRng())
    assert out.role == ROLE_IDLE


# ---------- two-phase baseline ----------


def test_ddf_two_phase_service_accounting():
    phy = phy_beta2()
    proto = Ddf()
    bank = RelayBank(2)
    source = full_source(5, 6)
    rng = ScriptRng()
    # frame 1: nobody decodes
    out = proto.step(links_for(phy, [0.0, 0.0], [1.0, 1.0], 0.0), source, bank, rng)
    assert out.role == ROLE_BROADCAST and not out.source_dequeued
    # frame 2: relay 0 decodes, phase flips
    out = proto.step(links_for(phy, [1.0, 0.0], [1.0, 1.0], 0.0), source, bank, rng)
    assert out.source_dequeued and out.decodes == 0b01
    assert len(source) == 1
    # frame 3: forwarding fails; the source is blocked even though it has work
    out = proto.step(links_for(phy, [1.0, 1.0], [0.0, 0.0], 10.0), source, bank, rng)
    assert out.role == ROLE_FORWARD and out.delivered == ()
    assert len(source) == 1
    # frame 4: both sides connect; relay 0, the one holder, forwards
    out = proto.step(links_for(phy, [0.0, 0.0], [1.0, 1.0], 0.0), source, bank, rng)
    assert out.delivered == (5,)
    assert out.removed == 0b01
    assert out.service == (2, 2)  # two broadcast frames, two forward frames
    assert bank.total_copies == 0
    # the next packet starts a fresh service
    out = proto.step(links_for(phy, [0.0, 0.0], [1.0, 1.0], 0.0), source, bank, rng)
    assert out.role == ROLE_BROADCAST


def test_ddf_direct_delivery_short_circuits():
    phy = phy_beta2()
    source = full_source(5)
    out = Ddf().step(links_for(phy, [0.0], [0.0], 10.0), source, RelayBank(1), ScriptRng())
    assert out.delivered == (5,) and out.source_dequeued
    assert out.service == (1, 0)
    assert len(source) == 0


def test_ddf_direct_delivery_disabled():
    phy = phy_beta2()
    source = full_source(5)
    proto = Ddf(direct_delivery=False)
    out = proto.step(links_for(phy, [0.0], [0.0], 10.0), source, RelayBank(1), ScriptRng())
    assert out.delivered == () and not out.source_dequeued
    assert len(source) == 1


def test_ddf_idle_only_between_services():
    phy = phy_beta2()
    proto = Ddf()
    out = proto.step(links_for(phy, [1.0], [1.0], 0.0), SourceQueue(), RelayBank(1), ScriptRng())
    assert out.role == ROLE_IDLE


# ---------- analog relaying ----------


def test_af_two_frame_cycle_success():
    phy = phy_beta2()
    proto = Af()
    bank = RelayBank(2)
    source = full_source(3)
    rng = ScriptRng()
    out = proto.step(links_for(phy, [1.0, 0.5], [0.0, 0.0], 0.0), source, bank, rng)
    assert out.role == ROLE_BROADCAST and len(source) == 1  # listen frame
    # forward frame: effective SNR 1e4*1*1/(100+100+1) ~ 49.8 >= beta-1 = 1
    out = proto.step(links_for(phy, [0.0, 0.0], [1.0, 0.0], 0.0), source, bank, rng)
    assert out.role == ROLE_FORWARD
    assert out.delivered == (3,) and out.source_dequeued
    assert len(source) == 0
    assert bank.total_copies == 0  # analog relays never buffer


def test_af_uses_stored_listen_gains():
    # the source-side quality comes from the listen frame even if the
    # source link has since collapsed
    phy = phy_beta2()
    proto = Af()
    source = full_source(3)
    proto.step(links_for(phy, [1.0, 0.0], [0.0, 0.0], 0.0), source, RelayBank(2), ScriptRng())
    out = proto.step(links_for(phy, [0.0, 0.0], [1.0, 0.0], 0.0), source, RelayBank(2), ScriptRng())
    assert out.delivered == (3,)


def test_af_failure_retries_same_packet():
    phy = phy_beta2()
    proto = Af()
    source = full_source(3)
    rng = ScriptRng()
    bank = RelayBank(1)
    proto.step(links_for(phy, [1e-4], [0.0], 0.0), source, bank, rng)
    out = proto.step(links_for(phy, [0.0], [1e-4], 0.0), source, bank, rng)
    assert out.delivered == () and len(source) == 1
    # next cycle listens to the same packet again
    out = proto.step(links_for(phy, [1.0], [0.0], 0.0), source, bank, rng)
    assert out.role == ROLE_BROADCAST
    assert proto.pid == 3


def test_af_idle_when_source_empty():
    phy = phy_beta2()
    out = Af().step(links_for(phy, [1.0], [1.0], 0.0), SourceQueue(), RelayBank(1), ScriptRng())
    assert out.role == ROLE_IDLE


def test_afsc_sum_combining_beats_best_single():
    # per-relay effective SNR ~ 0.6 < 1, but two of them sum past the threshold
    phy = phy_beta2()
    s = (120.0 + math.sqrt(120.0**2 + 4 * 1e4 * 0.6)) / (2 * 1e4)
    snr_single = 1e4 * s * s / (200.0 * s + 1.0)
    assert 0.55 < snr_single < 0.65
    for proto, expect in ((Af(), ()), (AfSc(2), (3,))):
        source = full_source(3)
        proto.step(links_for(phy, [s, s], [0.0, 0.0], 0.0), source, RelayBank(2), ScriptRng())
        out = proto.step(links_for(phy, [0.0, 0.0], [s, s], 0.0), source, RelayBank(2), ScriptRng())
        assert out.delivered == expect


def test_afsc_one_equals_af_trace():
    phy = phy_beta20()
    g = np.random.default_rng(12)
    a, b = Af(), AfSc(1)
    qa, qb = SourceQueue(), SourceQueue()
    next_id = 0
    for f in range(200):
        if f % 3 == 0:
            qa.offer(Packet(next_id, f))
            qb.offer(Packet(next_id, f))
            next_id += 1
        h_src = g.exponential(size=2)
        h_dst = g.exponential(size=2)
        la = links_for(phy, h_src, h_dst, 0.0, d=1.2)
        lb = links_for(phy, h_src, h_dst, 0.0, d=1.2)
        oa = a.step(la, qa, RelayBank(2), ScriptRng())
        ob = b.step(lb, qb, RelayBank(2), ScriptRng())
        assert oa == ob, f"frame {f}: {oa} vs {ob}"
    assert len(qa) == len(qb)


# ---------- decode-and-forward with sum combining ----------


def test_dfsc_gathers_decoders_then_combines():
    phy = phy_beta2()
    proto = DfSc(n_decode=2)
    bank = RelayBank(3)
    source = full_source(4, 5)
    rng = ScriptRng()
    out = proto.step(links_for(phy, [1.0, 0.0, 0.0], [0.0] * 3, 0.0), source, bank, rng)
    assert out.decodes == 0b001 and not out.source_dequeued
    assert proto.source_overlap == 1  # packet 4 is at the source AND in a buffer
    # relay 0 decoding again adds nothing; relay 1 completes the set
    out = proto.step(links_for(phy, [1.0, 1.0, 0.0], [0.0] * 3, 0.0), source, bank, rng)
    assert out.decodes == 0b010
    assert out.source_dequeued and len(source) == 1
    assert proto.source_overlap == 0
    # combined forward: P*xi*(sum of h/d^4) must reach beta-1 = 1
    out = proto.step(links_for(phy, [0.0] * 3, [0.004, 0.004, 9.9], 0.0), source, bank, rng)
    assert out.role == ROLE_FORWARD and out.delivered == ()  # 0.8 falls short
    out = proto.step(links_for(phy, [0.0] * 3, [0.006, 0.006, 0.0], 0.0), source, bank, rng)
    assert out.delivered == (4,)
    assert out.service == (2, 2)
    assert bank.total_copies == 0


def test_dfsc_direct_delivery_flushes_partial_decodes():
    phy = phy_beta2()
    proto = DfSc(n_decode=2)
    bank = RelayBank(2)
    source = full_source(4)
    rng = ScriptRng()
    proto.step(links_for(phy, [1.0, 0.0], [0.0] * 2, 0.0), source, bank, rng)
    out = proto.step(links_for(phy, [0.0, 0.0], [0.0] * 2, 10.0), source, bank, rng)
    assert out.delivered == (4,) and out.source_dequeued
    assert out.removed == 0b01
    assert out.service == (2, 0)
    assert bank.total_copies == 0
    assert proto.source_overlap == 0


def test_dfsc_one_decoder_matches_ddf_single_relay():
    # with one relay the combined-SNR success test reduces to the plain
    # connectivity test, so the two state machines must agree frame by frame
    phy = phy_beta20()
    g = np.random.default_rng(21)
    a = Ddf(direct_delivery=False)
    b = DfSc(n_decode=1, direct_delivery=False)
    qa, qb = SourceQueue(), SourceQueue()
    ba, bb = RelayBank(1), RelayBank(1)
    next_id = 0
    for f in range(300):
        if g.random() < 0.4:
            qa.offer(Packet(next_id, f))
            qb.offer(Packet(next_id, f))
            next_id += 1
        h_src = g.exponential(size=1)
        h_dst = g.exponential(size=1)
        la = links_for(phy, h_src, h_dst, 0.0, d=1.2)
        lb = links_for(phy, h_src, h_dst, 0.0, d=1.2)
        oa = a.step(la, qa, ba, ScriptRng())
        ob = b.step(lb, qb, bb, ScriptRng())
        assert oa == ob, f"frame {f}: {oa} vs {ob}"
        assert len(qa) == len(qb)
        assert ba.total_copies == bb.total_copies


# ---------- shared invariants ----------


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_frame_invariants_random_grid(name):
    phy = phy_beta20()
    g = np.random.default_rng(sum(name.encode()))
    proto = make_protocol(name, n_active=2, n_decode=2)
    source = SourceQueue()
    bank = RelayBank(4)
    offered = set()
    next_id = 0
    tie = NpRng(7)
    for f in range(500):
        if g.random() < 0.3:
            source.offer(Packet(next_id, f))
            offered.add(next_id)
            next_id += 1
        links = links_for(phy, g.exponential(size=4), g.exponential(size=4),
                          g.exponential(), d=1.2, d_direct=2.0)
        out = proto.step(links, source, bank, tie)
        assert out.role in (ROLE_BROADCAST, ROLE_FORWARD, ROLE_IDLE)
        assert len(out.delivered) <= 1
        assert set(out.delivered) <= offered
        assert bank.total_copies == sum(m.bit_count() for m in bank.masks.values())
        for pid in out.delivered:
            assert bank.holders_of(pid) == 0


def test_contention_select_bounds():
    mask = (1 << 5) | (1 << 7) | (1 << 9)
    assert contention_select(mask, ScriptRng([0.0])) == 5
    assert contention_select(mask, ScriptRng([0.5])) == 7
    assert contention_select(mask, ScriptRng([0.999999])) == 9
    assert contention_select(mask, ScriptRng([1.0])) == 9  # uniforms lie in (0, 1]
    assert contention_select(1 << 5, ScriptRng([0.5])) == 5
    with pytest.raises(ValueError):
        contention_select(0, ScriptRng([0.5]))


def test_make_protocol_names():
    assert isinstance(make_protocol("obdwf"), Obdwf)
    assert isinstance(make_protocol("DDF"), Ddf)
    assert isinstance(make_protocol("afsc", n_active=3), AfSc)
    assert make_protocol("afsc", n_active=3).n_active == 3
    assert make_protocol("dfsc", n_decode=2).n_decode == 2
    with pytest.raises(ValueError):
        make_protocol("nope")
    with pytest.raises(ValueError):
        AfSc(0)
    with pytest.raises(ValueError):
        DfSc(0)
