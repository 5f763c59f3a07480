"""Counter-based RNG: purity, lane addressing, stream separation, uniformity."""

import numpy as np
import pytest
from scipy import stats

from relaysim.rng import (
    STREAM_ARRIVAL,
    STREAM_FADE_DST,
    STREAM_FADE_SRC,
    STREAM_PLACE,
    STREAM_WALK,
    CounterRng,
    FrameStream,
    keyed_uniforms,
)


def test_uniform_in_half_open_unit_interval():
    rng = CounterRng(123)
    u = rng.uniforms(STREAM_WALK, 0, 100_000)
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)


def test_scalar_matches_vector_pointwise():
    rng = CounterRng(7)
    vec = rng.uniforms(STREAM_FADE_SRC, 42, 50)
    for i in range(50):
        assert rng.uniform(STREAM_FADE_SRC, 42, i) == vec[i]


def test_uniforms_start_offset():
    rng = CounterRng(7)
    full = rng.uniforms(STREAM_FADE_DST, 9, 40)
    tail = rng.uniforms(STREAM_FADE_DST, 9, 25, start=15)
    assert np.array_equal(full[15:], tail)


def test_uniforms_at_matches_uniforms():
    rng = CounterRng(99)
    full = rng.uniforms(STREAM_PLACE, 1234, 64)
    idx = np.array([0, 3, 7, 63, 17, 17, 2])
    picked = rng.uniforms_at(STREAM_PLACE, 1234, idx)
    assert np.array_equal(picked, full[idx])


def test_uniforms_at_large_counters():
    # lanes far beyond any sequential draw must still be pure functions
    rng = CounterRng(5)
    idx = np.array([2**40, 2**40 + 1, 12345678901], dtype=np.uint64)
    a = rng.uniforms_at(STREAM_PLACE, 3, idx)
    b = rng.uniforms_at(STREAM_PLACE, 3, idx)
    assert np.array_equal(a, b)
    assert np.all((a > 0) & (a <= 1))


def test_purity_across_instances():
    a = CounterRng(2026)
    b = CounterRng(2026)
    assert np.array_equal(
        a.uniforms(STREAM_ARRIVAL, 77, 1000), b.uniforms(STREAM_ARRIVAL, 77, 1000)
    )
    assert a.uniform(STREAM_WALK, 5, 3) == b.uniform(STREAM_WALK, 5, 3)


def test_streams_and_frames_differ():
    rng = CounterRng(1)
    u1 = rng.uniforms(STREAM_FADE_SRC, 0, 256)
    u2 = rng.uniforms(STREAM_FADE_DST, 0, 256)
    u3 = rng.uniforms(STREAM_FADE_SRC, 1, 256)
    assert not np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)
    # cross-stream correlation should be noise-level
    assert abs(np.corrcoef(u1, u2)[0, 1]) < 0.15


def test_seed_sensitivity():
    u1 = CounterRng(1).uniforms(STREAM_WALK, 0, 128)
    u2 = CounterRng(2).uniforms(STREAM_WALK, 0, 128)
    assert not np.array_equal(u1, u2)


def test_seed_validation():
    with pytest.raises(ValueError):
        CounterRng(-1)
    with pytest.raises(ValueError):
        CounterRng(2**64)
    CounterRng(2**64 - 1)  # max u64 is fine


def test_uniformity_ks():
    # seeded grid: several (seed, stream, frame) cells must all look uniform
    for seed, stream, frame in [(1, STREAM_WALK, 0), (42, STREAM_FADE_SRC, 17),
                                (7, STREAM_ARRIVAL, 999)]:
        u = CounterRng(seed).uniforms(stream, frame, 100_000)
        stat, p = stats.kstest(u, "uniform")
        assert p > 1e-3, f"seed={seed} stream={stream} frame={frame} p={p}"


def test_frame_stream_slot_ordering():
    rng = CounterRng(11)
    fs = FrameStream(rng, STREAM_WALK, frame=4)
    draws = [fs.random() for _ in range(5)]
    expect = [rng.uniform(STREAM_WALK, 4, i) for i in range(5)]
    assert draws == expect


def test_frame_stream_rebind_resets_slot():
    rng = CounterRng(11)
    fs = FrameStream(rng, STREAM_WALK, frame=0)
    fs.random()
    fs.random()
    out = fs.rebind(9)
    assert out is fs
    assert fs.random() == rng.uniform(STREAM_WALK, 9, 0)


def test_frame_stream_block_draws_match_scalar_draws():
    # slot 0 comes from block draws of 4 frames, refilled whenever a frame
    # falls outside the drawn window, in whatever order frames are bound
    rng = CounterRng(11)
    fs = FrameStream(rng, STREAM_WALK, block=4)
    for frame in (0, 1, 3, 4, 9, 2, 10, 10):
        fs.rebind(frame)
        assert [fs.random() for _ in range(3)] == [rng.uniform(STREAM_WALK, frame, i)
                                                   for i in range(3)]


def test_block_uniforms_match_per_frame_rows():
    rng = CounterRng(31)
    block = rng.block_uniforms(STREAM_FADE_SRC, 2**33 - 3, 9, 40)
    assert block.shape == (9, 40)
    for b in range(9):
        assert np.array_equal(block[b], rng.uniforms(STREAM_FADE_SRC, 2**33 - 3 + b, 40))


def test_keyed_uniforms_match_uniforms_at_per_frame():
    rng = CounterRng(31)
    frames = np.array([100, 104, 104, 102, 2**40 + 1])  # any order, repeats allowed
    idx = np.array([7, 0, 2**40, 3, 7])
    got = keyed_uniforms(rng.frame_bases(STREAM_PLACE, frames), idx)
    want = [rng.uniforms_at(STREAM_PLACE, int(f), np.array([i]))[0]
            for f, i in zip(frames, idx)]
    assert np.array_equal(got, want)


def test_draws_leave_their_inputs_unchanged():
    # the hash works in place on its own temporaries; placement retries reuse
    # the frame bases, so a mutated input would corrupt later draws
    rng = CounterRng(31)
    frames = np.array([5, 9, 2**40], dtype=np.uint64)
    bases = rng.frame_bases(STREAM_PLACE, frames)
    idx = np.arange(6, dtype=np.uint64).reshape(2, 3)
    saved = frames.copy(), bases.copy(), idx.copy()
    first = keyed_uniforms(bases, idx)
    assert np.array_equal(keyed_uniforms(bases, idx), first)
    assert np.array_equal(rng.frame_bases(STREAM_PLACE, frames), bases)
    for got, want in zip((frames, bases, idx), saved):
        assert np.array_equal(got, want)
    # uniforms() adds the frame base to a cached lane array
    block = rng.block_uniforms(STREAM_WALK, 3, 4, 6)
    assert np.array_equal(rng.uniforms(STREAM_WALK, 4, 6), rng.uniforms(STREAM_WALK, 4, 6))
    assert np.array_equal(rng.block_uniforms(STREAM_WALK, 3, 4, 6), block)
    assert np.array_equal(block[1], rng.uniforms(STREAM_WALK, 4, 6))
