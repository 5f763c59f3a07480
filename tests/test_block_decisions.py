"""Block decisions: af, afsc and dfsc decide a block of frames at once, and
every frame must come out as the per-frame formula decides it.

A recorder wraps the protocol the engine steps and keeps each frame's
qualities h / d^alpha and its outcome; the per-frame formulas below replay
the run. Forced 1- and 7-frame blocks put listen frames on the last row of a
block and gather dfsc decoders across block boundaries; relays pinned to one
point under a three-level gain table tie their SNRs.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from relaysim import engine
from relaysim.channel import GainTable, Rayleigh, af_effective_snr
from relaysim.protocols import ROLE_BROADCAST, ROLE_FORWARD, FrameLinks, Obdwf, make_protocol
from relaysim.traffic import Packet, RelayBank, SourceQueue

TIED = GainTable(gains=(0.0, 0.5, 3.75), probs=(0.3, 0.5, 0.2))


class Recorder:
    """Steps the engine's protocol and keeps (q_src, q_dst, outcome) per frame."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def step(self, links, source, relays, rng):
        q_src, q_dst = links.src_quality().copy(), links.dst_quality().copy()
        out = self.inner.step(links, source, relays, rng)
        self.frames.append((q_src, q_dst, out))
        return out


def recorded_frames(cfg, block_frames):
    made = []

    def make(*args, **kw):
        made.append(Recorder(make_protocol(*args, **kw)))
        return made[-1]

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(engine, "make_protocol", make))
        if block_frames:
            stack.enter_context(mock.patch.object(
                engine, "_BLOCK_BYTES", block_frames * cfg.K * engine._CELL_BYTES))
        assert engine.run(cfg).conservation_ok
    return made[0].frames


def saturation_cfg(protocol, K, fading, **kw):
    """400 saturated frames at a rate where some frames deliver and some do not."""
    if fading is TIED:
        kw.update(pinned_positions=((1.0, 0.5),) * K, rate=1e6)
    else:
        kw.update(rate=3e6)
    return engine.SimConfig(
        K=K, protocol=protocol, fading=fading, horizon=400, seed=17, warmup=0,
        infinite_backlog=True, arrival_pmf=None, conservation_check_every=1, **kw)


def af_delivers(q_src, q_dst, phy, n_active):
    """The per-frame af/afsc rule: the best n_active SNRs sum past the threshold."""
    snr = af_effective_snr(q_src, q_dst, phy.power)
    n = min(n_active, snr.size)
    top = np.argpartition(snr, -n)[-n:]
    return phy.xi * float(snr[top].sum()) >= phy.beta - 1.0


def dfsc_delivers(q_dst, decoders, phy):
    """The per-frame dfsc rule: the decoder mask's summed qualities clear the threshold."""
    total = float(np.sum(q_dst[[j for j in range(q_dst.size) if decoders >> j & 1]]))
    return phy.power * phy.xi * total >= phy.beta - 1.0


BLOCKS = (None, 1, 7)


@pytest.mark.parametrize("block_frames", BLOCKS)
@pytest.mark.parametrize("protocol,K,n_active,fading", [
    ("af", 12, 1, TIED),
    ("afsc", 12, 5, TIED),
    ("afsc", 3, 5, TIED),  # n_active >= K: every relay combines
    ("afsc", 12, 9, Rayleigh()),
])
def test_af_block_decisions_match_the_per_frame_rule(protocol, K, n_active, fading, block_frames):
    cfg = saturation_cfg(protocol, K, fading, n_active=n_active)
    phy = engine.build_phy(cfg)
    frames = recorded_frames(cfg, block_frames)
    outcomes = {True: 0, False: 0}
    last_row_listens = 0
    for f, ((q_src, _, listen), (_, q_dst, fwd)) in enumerate(zip(frames, frames[1:])):
        if listen.role != ROLE_BROADCAST:
            continue
        assert fwd.role == ROLE_FORWARD
        ok = af_delivers(q_src, q_dst, phy, n_active)
        assert bool(fwd.delivered) == ok, f"frame {f + 1}"
        outcomes[ok] += 1
        last_row_listens += block_frames is not None and (f + 1) % block_frames == 0
    assert outcomes[True] and outcomes[False]
    assert block_frames is None or last_row_listens


@pytest.mark.parametrize("block_frames", BLOCKS)
@pytest.mark.parametrize("K,n_decode,fading", [
    (12, 3, TIED),
    (3, 3, TIED),
    (12, 9, Rayleigh()),  # nine summands take numpy's pairwise summation path
])
def test_dfsc_block_decisions_match_the_per_frame_rule(K, n_decode, fading, block_frames):
    cfg = saturation_cfg("dfsc", K, fading, n_decode=n_decode)
    phy = engine.build_phy(cfg)
    outcomes = {True: 0, False: 0}
    crossed = 0
    decoders = 0  # mask of the in-flight packet's holders
    first = None  # frame of the in-flight packet's first decode
    for f, (_, q_dst, out) in enumerate(recorded_frames(cfg, block_frames)):
        if out.role == ROLE_FORWARD:
            ok = dfsc_delivers(q_dst, decoders, phy)
            assert bool(out.delivered) == ok, f"frame {f}"
            outcomes[ok] += 1
            crossed += block_frames is not None and first // block_frames != f // block_frames
        if out.decodes and first is None:
            first = f
        decoders |= out.decodes
        if out.delivered:
            decoders, first = 0, None
    assert outcomes[True] and outcomes[False]
    assert block_frames is None or crossed


def test_obdwf_contention_at_u_one_picks_the_last_contender():
    phy = engine.build_phy(engine.SimConfig(K=3, rate=1e6))
    bank = RelayBank(3)
    bank.enqueue(0b001, 7)
    bank.enqueue(0b010, 8)
    source = SourceQueue()
    source.offer(Packet(9, 0))

    class One:
        def random(self):
            return 1.0  # counter-based uniforms lie in (0, 1]

    links = FrameLinks.from_values(phy, [0.0] * 3, [1.0] * 3, 0.0, [1.0] * 3, [1.0] * 3, 5.0)
    out = Obdwf().step(links, source, bank, One())
    assert out.delivered == (8,)  # relay 1's head
