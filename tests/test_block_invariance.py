"""Block precompute: a run does not depend on how many frames a block holds,
nor on which frames it steps.

The engine walks mobility for a block of frames at a time, sized from a byte
budget, and places relays and draws fading only from a block's first stepped
frame on; it skips idle spans, in which the source and the relay bank are
empty, unless the run reads every frame. Every draw is keyed by (seed,
stream, frame, index), so forcing one-frame blocks or a small odd block size,
which cuts the horizon mid-block, must reproduce the default run field by
field, and so must tracking connectivity, which steps and fills every frame.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import engine
from relaysim.channel import GainTable, Rayleigh
from relaysim.geometry import RandomWalk, RandomWaypoint
from relaysim.protocols import PROTOCOL_NAMES

FADING = (Rayleigh(), GainTable(gains=(0.0, 0.5, 3.75), probs=(0.3, 0.5, 0.2)))


@st.composite
def configs(draw):
    K = draw(st.integers(1, 30))
    horizon = draw(st.integers(1, 400))
    mobility = draw(st.sampled_from(("walk", "waypoint", "pinned")))
    kw = {}
    if mobility == "walk":
        kw["mobility"] = RandomWalk(q=draw(st.sampled_from((0.0, 0.02, 0.2, 0.5))))
        kw["resample_within_region"] = draw(st.booleans())
    elif mobility == "waypoint":
        kw["mobility"] = RandomWaypoint(speed_min=0.05, speed_max=0.5, pause_set=(0, 1, 4))
    else:
        kw["pinned_positions"] = tuple(
            (2.5 + 2.0 * math.cos(1.3 * j), 2.0 * math.sin(1.3 * j)) for j in range(K))
    if draw(st.booleans()):
        kw["infinite_backlog"] = True
        kw["arrival_pmf"] = None
    else:
        kw["arrival_pmf"] = ((draw(st.integers(1, 4)), draw(st.floats(0.01, 0.6))),)
        kw["abort_queue_threshold"] = draw(st.sampled_from((None, 8)))
    return engine.SimConfig(
        K=K,
        protocol=draw(st.sampled_from(PROTOCOL_NAMES)),
        horizon=horizon,
        warmup=draw(st.integers(0, horizon - 1)),
        seed=draw(st.integers(0, 2**64 - 1)),
        num_regions=draw(st.integers(1, 6)),
        alpha=draw(st.sampled_from((4.0, 3.0))),
        rate=draw(st.sampled_from((1e6, 2e6, 4e6))),
        fading=draw(st.sampled_from(FADING)),
        buffer_capacity=draw(st.sampled_from((None, 1, 3))),
        n_active=draw(st.integers(1, 4)),
        n_decode=draw(st.integers(1, min(4, K))),
        track_connectivity=draw(st.booleans()),
        record_trace=draw(st.booleans()),
        conservation_check_every=1,
        **kw,
    )


def _run_with_block(cfg, frames):
    budget = frames * cfg.K * engine._CELL_BYTES
    with mock.patch.object(engine, "_BLOCK_BYTES", budget):
        return engine.run(cfg)


def _assert_same_run(a, b, ignore=()):
    for field in dataclasses.fields(a):
        if field.name in ignore:
            continue
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@settings(max_examples=60, deadline=None)
@given(configs())
def test_block_size_does_not_change_the_run(cfg):
    default = engine.run(cfg)
    assert default.conservation_ok
    for frames in (1, 7):
        _assert_same_run(_run_with_block(cfg, frames), default)
    dense = engine.run(dataclasses.replace(cfg, track_connectivity=True))
    _assert_same_run(dense, default, ignore=("src_conn_frames", "dst_conn_frames"))


def test_changes_carry_across_unread_blocks():
    # Rare bursts and 7-frame blocks: most blocks between bursts are walked
    # but never filled. Relays rarely change strips at q = 0.03, so many reach
    # the next stepped frame on a change carried from such a block.
    cfg = engine.SimConfig(
        K=30, horizon=8_000, seed=3, rate=2e6, num_regions=6, mobility=RandomWalk(q=0.03),
        arrival_pmf=((2, 0.004),), conservation_check_every=1)
    default = engine.run(cfg)
    assert default.conservation_ok and default.delivered > 20
    assert default.idle_frames > cfg.horizon // 2
    _assert_same_run(_run_with_block(cfg, 7), default)
    dense = engine.run(dataclasses.replace(cfg, track_connectivity=True))
    _assert_same_run(dense, default, ignore=("src_conn_frames", "dst_conn_frames"))

    # Idle spans are walked in chunks, 37 frames long with 7-frame blocks. At
    # q = 0.005 a relay often keeps its strip through a whole chunk, so the
    # change it carries into the next filled block comes from an earlier one.
    cfg = engine.SimConfig(
        K=6, horizon=20_000, seed=4, rate=1e6, mobility=RandomWalk(q=0.005),
        arrival_pmf=((2, 0.002),), conservation_check_every=1)
    chunk_starts, from_earlier = [], []
    carry, fill = engine._Fleet._carry, engine._Fleet._fill_walk

    def carry_spy(fleet, moved, f0):
        chunk_starts.append(f0)
        carry(fleet, moved, f0)

    def fill_spy(fleet):
        held = fleet._pend[0]
        from_earlier.append(bool(chunk_starts and ((0 <= held) & (held < chunk_starts[-1])).any()))
        return fill(fleet)

    with mock.patch.object(engine._Fleet, "_carry", carry_spy), \
            mock.patch.object(engine._Fleet, "_fill_walk", fill_spy):
        chunked = _run_with_block(cfg, 7)
    assert sum(from_earlier) > 10  # of 69 fills
    assert chunked.conservation_ok and chunked.delivered > 50
    assert chunked.idle_frames > cfg.horizon // 2
    _assert_same_run(_run_with_block(cfg, 1), chunked)
    dense = engine.run(dataclasses.replace(cfg, track_connectivity=True))
    _assert_same_run(dense, chunked, ignore=("src_conn_frames", "dst_conn_frames"))
