"""Counter-based random streams for reproducible frame simulation.

Every draw is a pure function of (seed, stream, frame, index), so a value is
the same whether it is drawn lazily or eagerly and regardless of what else was
drawn that frame. Streams separate the independent randomness sources of a run
(fading per link side, mobility, placement, arrivals, protocol tie-breaks).

The generator is a SplitMix64-style avalanche hash over a 64-bit counter.
Scalar mixing stays in Python ints (numpy scalar uint64 ops emit overflow
warnings); vector mixing uses uint64 arrays, which wrap silently. The frame
base is itself a mix, so block_uniforms() and keyed_uniforms() vectorize it
across frames: a block of B frames × n lanes is one call, equal pointwise to
B calls of uniforms().
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "CounterRng",
    "counter_threshold",
    "keyed_uniforms",
    "STREAM_FADE_SRC",
    "STREAM_FADE_DST",
    "STREAM_FADE_DIRECT",
    "STREAM_WALK",
    "STREAM_PLACE",
    "STREAM_INIT",
    "STREAM_ARRIVAL",
    "STREAM_PROTO",
    "STREAM_WAYPOINT",
]

# Stream identifiers. Values are arbitrary but must stay distinct and stable.
STREAM_FADE_SRC = 1
STREAM_FADE_DST = 2
STREAM_FADE_DIRECT = 3
STREAM_WALK = 4
STREAM_PLACE = 5
STREAM_INIT = 6
STREAM_ARRIVAL = 7
STREAM_PROTO = 8
STREAM_WAYPOINT = 9

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_GOLD_U = np.uint64(_GOLD)
_MIX1_U = np.uint64(_MIX1)
_MIX2_U = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE_U = np.uint64(1)
_TWO53_INV = 2.0**-53


def _mix(x: int) -> int:
    """SplitMix64 finalizer on a Python int, mod 2**64."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def _mix_vec(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place: x must be a temporary
    of the caller's own, never an array passed in from outside. t, if given,
    is scratch of x's shape."""
    t = np.right_shift(x, _S30, out=t)
    x ^= t
    x *= _MIX1_U
    np.right_shift(x, _S27, out=t)
    x ^= t
    x *= _MIX2_U
    np.right_shift(x, _S31, out=t)
    x ^= t
    return x


def _unit(z: np.ndarray) -> np.ndarray:
    """Top 53 bits of mixed counters as uniforms in (0, 1]; consumes z."""
    z >>= _S11
    z += _ONE_U
    u = z.astype(np.float64)
    u *= _TWO53_INV
    return u


_scratch = threading.local()


def scratch(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A contiguous `shape` view of the calling thread's reusable buffer `name`.

    The buffer grows to the largest request and is kept across runs, so hot
    paths that fill it each block neither allocate nor fault pages in again.
    Its contents are the caller's until the next request of the same name.
    """
    size = math.prod(shape)
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = np.empty(size, dtype=dtype)
        setattr(_scratch, name, buf)
    return buf[:size].reshape(shape)


def counter_threshold(p: float) -> np.uint64:
    """The least mixed counter z whose uniform ((z >> 11) + 1) * 2**-53 is >= p.

    That uniform is >= p exactly when the integer (z >> 11) + 1 is at least
    ceil(p * 2**53), so [u >= p] is [z >= counter_threshold(p)], with no
    conversion to float.
    """
    return np.uint64(max(math.ceil(p * 2.0**53) - 1, 0) << 11)


def keyed_uniforms(bases: np.ndarray, indices) -> np.ndarray:
    """Uniforms at counter positions `indices` of the frames whose bases are given.

    `bases` comes from CounterRng.frame_bases; the two arrays broadcast, so
    each (frame, index) pair can differ. Matches uniforms_at() pointwise.
    """
    return _unit(_mix_vec(np.asarray(bases + np.asarray(indices, dtype=np.uint64) * _GOLD_U)))


class CounterRng:
    """Stateless keyed uniform source; all methods are pure in their arguments."""

    __slots__ = ("seed", "_stream_keys", "_idx_cache")

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK:
            raise ValueError(f"seed must be a u64, got {seed}")
        self.seed = seed
        root = _mix(seed ^ 0x6A09E667F3BCC908)
        self._stream_keys = {s: _mix(root + _GOLD * s) for s in range(1, 16)}
        self._idx_cache: dict[int, np.ndarray] = {}

    def _base(self, stream: int, frame: int) -> int:
        return _mix(self._stream_keys[stream] + _GOLD * frame)

    def uniform(self, stream: int, frame: int, index: int = 0) -> float:
        """One uniform in (0, 1]."""
        z = _mix((self._base(stream, frame) + _GOLD * index) & _MASK)
        return ((z >> 11) + 1) * _TWO53_INV

    def uniforms(self, stream: int, frame: int, n: int, start: int = 0) -> np.ndarray:
        """n uniforms in (0, 1] at counter positions start..start+n-1."""
        idx = self._idx_cache.get(n)
        if idx is None:
            idx = np.arange(n, dtype=np.uint64) * _GOLD_U
            self._idx_cache[n] = idx
        base = np.uint64((self._base(stream, frame) + _GOLD * start) & _MASK)
        return _unit(_mix_vec(idx + base))

    def uniforms_at(self, stream: int, frame: int, indices: np.ndarray) -> np.ndarray:
        """Uniforms at arbitrary counter positions; matches uniforms() pointwise."""
        return keyed_uniforms(np.uint64(self._base(stream, frame)), indices)

    def frame_bases(self, stream: int, frames) -> np.ndarray:
        """Stream bases of an array of frames, for keyed_uniforms()."""
        frames = np.asarray(frames, dtype=np.uint64)
        return _mix_vec(np.asarray(np.uint64(self._stream_keys[stream]) + frames * _GOLD_U))

    def block_uniforms(self, stream: int, frame0: int, n_frames: int, n: int) -> np.ndarray:
        """(n_frames, n) uniforms: row b equals uniforms(stream, frame0 + b, n)."""
        return _unit(self.block_counters(stream, frame0, n_frames, n))

    def block_counters(self, stream: int, frame0: int, n_frames: int, n: int,
                       out: np.ndarray | None = None,
                       scratch: np.ndarray | None = None) -> np.ndarray:
        """(n_frames, n) mixed counters z, whose uniforms ((z >> 11) + 1) * 2**-53
        are block_uniforms(); out and scratch, if given, are (n_frames, n) uint64."""
        frames = np.arange(frame0, frame0 + n_frames, dtype=np.uint64)
        lanes = np.arange(n, dtype=np.uint64) * _GOLD_U
        z = np.add(self.frame_bases(stream, frames)[:, None], lanes, out=out)
        return _mix_vec(z, scratch)


class FrameStream:
    """random.Random-like view bound to one (stream, frame); draws are ordered by slot.

    Slot 0 is served from one block_uniforms() call per `block` frames, drawn
    from the first frame that asks for it; later slots are drawn one by one.
    """

    __slots__ = ("_rng", "_stream", "_frame", "_slot", "_block", "_f0", "_first")

    def __init__(self, rng: CounterRng, stream: int, frame: int = 0, block: int = 1):
        self._rng = rng
        self._stream = stream
        self._frame = frame
        self._slot = 0
        self._block = block
        self._f0, self._first = 0, []  # slot 0 of frames _f0, _f0 + 1, ...

    def rebind(self, frame: int) -> "FrameStream":
        self._frame = frame
        self._slot = 0
        return self

    def random(self) -> float:
        slot, frame = self._slot, self._frame
        self._slot = slot + 1
        if slot:
            return self._rng.uniform(self._stream, frame, slot)
        i = frame - self._f0
        if not 0 <= i < len(self._first):
            self._first = self._rng.block_uniforms(self._stream, frame, self._block, 1)[:, 0].tolist()
            self._f0, i = frame, 0
        return self._first[i]
