"""Per-frame forwarding disciplines.

Each protocol advances one frame at a time against a FrameLinks view (that
frame's row of the channel block the engine precomputed), the source queue,
and the relay bank, and reports what happened as a FrameOutcome. At most one
packet is delivered per frame, and a frame has exactly one role: a source
broadcast, a relay forward, or idle.

Steps make no numpy call per frame: relay sets are ints with relay j at bit
j (connectivity rows packed once per block, the bank's holder and nonempty
masks), and what depends only on the channel (af/afsc pair decisions, the
dfsc combined SNR) is computed for a whole block at once. The relay bank is
the one record of which relays hold a packet: a broadcast stores its copies
with one enqueue, and ddf and dfsc read their in-flight packet's holders back
from it.

Protocols:
  * Obdwf: relays with buffered packets contend whenever destination-connected
    and forwarding preempts the source; the source broadcasts otherwise, and
    a delivery flushes every copy of that packet id from the relay network.
  * Ddf: one packet at a time; the source rebroadcasts until some relay
    decodes (or the destination does), then the decoders forward until one of
    them is connected. The source is blocked for the whole service.
  * Af / AfSc: fixed two-frame listen/forward cycle with analog relaying; the
    best relay (or the best n_active, summed at the combiner) must clear the
    rate threshold. Relays never buffer.
  * DfSc: the source rebroadcasts until n_decode distinct relays have decoded,
    then all of them forward each frame and the destination sum-combines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PhyParams, af_effective_snr
from .traffic import RelayBank

__all__ = [
    "ROLE_BROADCAST",
    "ROLE_FORWARD",
    "ROLE_IDLE",
    "FrameLinks",
    "FrameOutcome",
    "contention_select",
    "Obdwf",
    "Ddf",
    "Af",
    "AfSc",
    "DfSc",
    "make_protocol",
    "PROTOCOL_NAMES",
]

ROLE_BROADCAST = "broadcast"
ROLE_FORWARD = "relay-forward"
ROLE_IDLE = "idle"


class FrameLinks:
    """The channel of one frame: row `row` of a block of precomputed frames.

    The engine fills a block of B frames at once with fill(): fading gains
    toward the source and the destination (B, K), the direct gain (B,), and
    the relays' d^alpha rows (B, K), and the connectivity of the whole block
    is thresholded there, so boundary cases are decided by one expression.
    Before each protocol step the engine sets `row`; the per-frame methods
    return that frame's values. Views built once per block on first read
    serve the block: *_bits() a frame's connected relays as an int (relay j
    at bit j), and *_qualities() the (B, K) h / d^alpha, whose identity
    protocols use as the key of what they derive from a block.
    """

    __slots__ = (
        "phy", "direct_dpow", "row", "_coef",
        "_h_src", "_h_dst", "_h_direct", "_src_dpow", "_dst_dpow",
        "_conn_src", "_conn_dst", "_conn_direct",
        "_src_bits", "_dst_bits", "_q_src", "_q_dst",
    )

    def __init__(self, phy: PhyParams, direct_dpow: float):
        self.phy = phy
        self.direct_dpow = direct_dpow
        self._coef = (phy.beta - 1.0) / (phy.power * phy.xi)
        self.row = 0
        self.clear()

    @classmethod
    def from_values(cls, phy, h_src, h_dst, h_direct, dist_src, dist_dst, dist_direct):
        """One-frame view of fixed values for tests: distances, not premultiplied powers."""
        a = phy.alpha
        links = cls(phy, float(dist_direct) ** a)
        links.fill(
            np.asarray(h_src, dtype=np.float64)[None],
            np.asarray(h_dst, dtype=np.float64)[None],
            np.array([float(h_direct)]),
            (np.asarray(dist_src, dtype=np.float64) ** a)[None],
            (np.asarray(dist_dst, dtype=np.float64) ** a)[None],
        )
        return links

    def fill(self, h_src, h_dst, h_direct, src_dpow, dst_dpow) -> None:
        """Load a block: gains and d^alpha rows (B, K), direct gains (B,)."""
        self.clear()
        coef = self._coef
        self._h_src = h_src
        self._h_dst = h_dst
        self._src_dpow = src_dpow
        self._dst_dpow = dst_dpow
        self._conn_src = h_src >= coef * src_dpow
        self._conn_dst = h_dst >= coef * dst_dpow
        self._h_direct = h_direct.tolist()
        self._conn_direct = (h_direct >= coef * self.direct_dpow).tolist()

    def clear(self) -> None:
        """Drop the loaded block, so that its arrays can be freed."""
        self._h_src = self._h_dst = self._h_direct = None
        self._src_dpow = self._dst_dpow = None
        self._conn_src = self._conn_dst = self._conn_direct = None
        self._src_bits = self._dst_bits = self._q_src = self._q_dst = None

    def src_gains(self) -> np.ndarray:
        return self._h_src[self.row]

    def dst_gains(self) -> np.ndarray:
        return self._h_dst[self.row]

    def direct_gain(self) -> float:
        return self._h_direct[self.row]

    def src_connected(self) -> np.ndarray:
        return self._conn_src[self.row]

    def dst_connected(self) -> np.ndarray:
        return self._conn_dst[self.row]

    def direct_connected(self) -> bool:
        return self._conn_direct[self.row]

    def src_bits(self) -> int:
        """The source-connected relays of this frame, relay j at bit j."""
        if self._src_bits is None:
            self._src_bits = _pack_rows(self._conn_src)
        return self._src_bits[self.row]

    def dst_bits(self) -> int:
        if self._dst_bits is None:
            self._dst_bits = _pack_rows(self._conn_dst)
        return self._dst_bits[self.row]

    def src_qualities(self) -> np.ndarray:
        """Gain over d^alpha toward the source (for analog relaying), (B, K)."""
        if self._q_src is None:
            self._q_src = self._h_src / self._src_dpow
        return self._q_src

    def dst_qualities(self) -> np.ndarray:
        if self._q_dst is None:
            self._q_dst = self._h_dst / self._dst_dpow
        return self._q_dst

    def src_quality(self) -> np.ndarray:
        return self.src_qualities()[self.row]

    def dst_quality(self) -> np.ndarray:
        return self.dst_qualities()[self.row]


def _pack_rows(conn: np.ndarray) -> list[int]:
    """Each row of a (B, K) bool array as an int, column j at bit j."""
    packed = np.packbits(conn, axis=1, bitorder="little")
    w = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[i:i + w], "little") for i in range(0, len(buf), w)]


@dataclass(slots=True)
class FrameOutcome:
    """What one frame did, for metrics and trace checks. Treat it as read-only:
    outcomes with nothing to report are shared."""

    role: str
    delivered: tuple[int, ...] = ()
    source_dequeued: bool = False
    decodes: int = 0  # mask of the relays that stored the broadcast packet
    removed: int = 0  # mask of the relays whose copy of the delivered packet left
    service: tuple[int, int] | None = None  # (broadcast-phase, forward-phase) frames


_IDLE = FrameOutcome(ROLE_IDLE)
_BROADCAST = FrameOutcome(ROLE_BROADCAST)
_FORWARD = FrameOutcome(ROLE_FORWARD)


def contention_select(contenders: int, rng) -> int:
    """Uniform pick among the relays of a contender mask (relay j at bit j).

    With u = rng.random() and n contenders, the k-th lowest set bit wins,
    k = min(int(u * n), n - 1): the guard keeps u = 1.0 on the last contender.
    """
    n = contenders.bit_count()
    if n == 0:
        raise ValueError("no contenders")
    for _ in range(min(int(rng.random() * n), n - 1)):
        contenders &= contenders - 1
    return (contenders & -contenders).bit_length() - 1


class Obdwf:
    """Opportunistic buffered decode-and-forward with forwarding priority."""

    def reset(self):
        pass

    def step(self, links: FrameLinks, source, relays: RelayBank, rng) -> FrameOutcome:
        if relays.total_copies:
            contenders = links.dst_bits() & relays.nonempty
            if contenders:
                pid = relays.head(contention_select(contenders, rng))
                removed = relays.holders_of(pid)
                relays.dequeue_id(pid)
                return FrameOutcome(ROLE_FORWARD, delivered=(pid,), removed=removed)
        if len(source):
            pid = source.head().id
            kept = relays.enqueue(links.src_bits(), pid)
            if links.direct_connected():
                relays.dequeue_id(pid)
                source.pop_head()
                return FrameOutcome(
                    ROLE_BROADCAST, delivered=(pid,), source_dequeued=True,
                    decodes=kept, removed=kept,
                )
            if kept:
                source.pop_head()
                return FrameOutcome(ROLE_BROADCAST, source_dequeued=True, decodes=kept)
            return _BROADCAST
        return _IDLE


class Ddf:
    """Dynamic decode-and-forward: broadcast until first decode, then forward."""

    def __init__(self, direct_delivery: bool = True):
        self.direct_delivery = direct_delivery
        self.reset()

    def reset(self):
        self.phase = 1
        self.pid: int | None = None
        self.rho = 0  # broadcast-phase frames of the in-flight packet
        self.eta = 0  # forward-phase frames

    def step(self, links: FrameLinks, source, relays: RelayBank, rng) -> FrameOutcome:
        if self.phase == 2:
            self.eta += 1
            pid = self.pid
            removed = relays.holders_of(pid)
            if not removed & links.dst_bits():
                return _FORWARD
            relays.dequeue_id(pid)
            svc = (self.rho, self.eta)
            self.reset()
            return FrameOutcome(ROLE_FORWARD, delivered=(pid,), removed=removed, service=svc)
        if not len(source):
            return _IDLE
        pid = source.head().id
        self.pid = pid
        self.rho += 1
        if self.direct_delivery and links.direct_connected():
            source.pop_head()
            svc = (self.rho, 0)
            self.reset()
            return FrameOutcome(
                ROLE_BROADCAST, delivered=(pid,), source_dequeued=True, service=svc
            )
        kept = relays.enqueue(links.src_bits(), pid)
        if kept:
            source.pop_head()
            self.phase = 2
            return FrameOutcome(ROLE_BROADCAST, source_dequeued=True, decodes=kept)
        return _BROADCAST


def _af_decisions(q_listen, q_forward, phy: PhyParams, n_active: int):
    """Decide the (listen, forward) frame pairs of matching (P, K) quality rows.

    Each pair delivers when the best n_active effective SNRs sum past the rate
    threshold. Returns a list of P.
    """
    snr = af_effective_snr(q_listen, q_forward, phy.power)
    n = min(n_active, snr.shape[1])
    top = np.argpartition(snr, -n, axis=1)[:, -n:]
    best = np.take_along_axis(snr, top, axis=1)
    return (phy.xi * best.sum(axis=1) >= phy.beta - 1.0).tolist()


class Af:
    """Amplify-and-forward, best relay: two-frame listen/forward cycle.

    Every adjacent frame pair of a block is decided in one pass; a pair that
    straddles two blocks is decided on its own.
    """

    n_active = 1

    def __init__(self):
        self._block = (None, [])  # (block source qualities, ok per listen row)
        self.reset()

    def reset(self):
        self.listening = True
        self.pid: int | None = None
        self._listen = None  # (block source qualities, row) of the listen frame

    def step(self, links: FrameLinks, source, relays: RelayBank, rng) -> FrameOutcome:
        if self.listening:
            if not len(source):
                return _IDLE
            self.pid = source.head().id
            self._listen = (links.src_qualities(), links.row)
            self.listening = False
            return _BROADCAST
        q_src, r = self._listen
        row = links.row
        if q_src is links.src_qualities() and row == r + 1:
            if self._block[0] is not q_src:
                self._block = (q_src, _af_decisions(
                    q_src[:-1], links.dst_qualities()[1:], links.phy, self.n_active))
            ok = self._block[1]
        else:
            ok = _af_decisions(
                q_src[r:r + 1], links.dst_qualities()[row:row + 1], links.phy, self.n_active)
            r = 0
        pid = self.pid
        self.reset()
        if ok[r]:
            source.pop_head()
            return FrameOutcome(ROLE_FORWARD, delivered=(pid,), source_dequeued=True)
        return _FORWARD


class AfSc(Af):
    """Amplify-and-forward with the best n_active relays sum-combined."""

    def __init__(self, n_active: int = 5):
        if n_active < 1:
            raise ValueError("n_active must be >= 1")
        super().__init__()
        self.n_active = n_active


class DfSc:
    """Decode-and-forward, sum combining: gather n_decode decoders, then all forward."""

    def __init__(self, n_decode: int = 5, direct_delivery: bool = True):
        if n_decode < 1:
            raise ValueError("n_decode must be >= 1")
        self.n_decode = n_decode
        self.direct_delivery = direct_delivery
        self.reset()

    def reset(self):
        self.phase = 1
        self.pid: int | None = None
        # packets counted both at the source and in relay buffers (phase-1 partial decode)
        self.source_overlap = 0
        self.rho = 0
        self.eta = 0
        self._block = (None, [])  # (block destination qualities, success per row)

    def step(self, links: FrameLinks, source, relays: RelayBank, rng) -> FrameOutcome:
        if self.phase == 2:
            self.eta += 1
            q_dst = links.dst_qualities()
            if self._block[0] is not q_dst:
                m, phy = relays.holders_of(self.pid), links.phy
                idx = [j for j in range(m.bit_length()) if m >> j & 1]  # ascending
                total = q_dst[:, idx].sum(axis=1)
                self._block = (q_dst, (phy.power * phy.xi * total >= phy.beta - 1.0).tolist())
            if not self._block[1][links.row]:
                return _FORWARD
            pid = self.pid
            removed = relays.holders_of(pid)
            relays.dequeue_id(pid)
            svc = (self.rho, self.eta)
            self.reset()
            return FrameOutcome(ROLE_FORWARD, delivered=(pid,), removed=removed, service=svc)
        if not len(source):
            return _IDLE
        pid = source.head().id
        self.pid = pid
        self.rho += 1
        if self.direct_delivery and links.direct_connected():
            removed = relays.holders_of(pid)
            if removed:
                relays.dequeue_id(pid)
            source.pop_head()
            svc = (self.rho, 0)
            self.reset()
            return FrameOutcome(
                ROLE_BROADCAST, delivered=(pid,), source_dequeued=True,
                removed=removed, service=svc,
            )
        kept = relays.enqueue(links.src_bits(), pid)
        if not kept:
            return _BROADCAST
        if relays.holders_of(pid).bit_count() >= self.n_decode:
            source.pop_head()
            self.phase = 2
            self.source_overlap = 0
            return FrameOutcome(ROLE_BROADCAST, source_dequeued=True, decodes=kept)
        self.source_overlap = 1
        return FrameOutcome(ROLE_BROADCAST, decodes=kept)


PROTOCOL_NAMES = ("obdwf", "ddf", "af", "afsc", "dfsc")


def make_protocol(name: str, n_active: int = 5, n_decode: int = 5, direct_delivery: bool = True):
    """Instantiate a protocol state machine by its configuration name."""
    name = name.lower()
    if name == "obdwf":
        return Obdwf()
    if name == "ddf":
        return Ddf(direct_delivery=direct_delivery)
    if name == "af":
        return Af()
    if name == "afsc":
        return AfSc(n_active=n_active)
    if name == "dfsc":
        return DfSc(n_decode=n_decode, direct_delivery=direct_delivery)
    raise ValueError(f"unknown protocol {name!r}; expected one of {PROTOCOL_NAMES}")
