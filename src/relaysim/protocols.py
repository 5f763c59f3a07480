"""Per-frame forwarding disciplines.

Each protocol advances one frame at a time against a FrameLinks view (that
frame's row of the channel block the engine precomputed), the source queue,
and the relay bank, and reports what happened as a FrameOutcome. At most one
packet is delivered per frame, and a frame has exactly one role: a source
broadcast, a relay forward, or idle.

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
    Before each protocol step the engine sets `row`; the methods below return
    that frame's values.
    """

    __slots__ = (
        "phy", "direct_dpow", "row", "_coef",
        "_h_src", "_h_dst", "_h_direct", "_src_dpow", "_dst_dpow",
        "_conn_src", "_conn_dst", "_conn_direct",
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

    def src_quality(self) -> np.ndarray:
        """Gain over d^alpha toward the source (for analog relaying)."""
        return self._h_src[self.row] / self._src_dpow[self.row]

    def dst_quality(self) -> np.ndarray:
        return self._h_dst[self.row] / self._dst_dpow[self.row]


@dataclass(frozen=True)
class FrameOutcome:
    """What one frame did, for metrics and trace checks."""

    role: str
    delivered: tuple[int, ...] = ()
    source_dequeued: bool = False
    decodes: tuple[tuple[int, int], ...] = ()  # (relay, packet id) entering buffers
    removed: tuple[tuple[int, int], ...] = ()  # (relay, packet id) leaving buffers
    service: tuple[int, int] | None = None  # (broadcast-phase, forward-phase) frames
    forwarder: int | None = None


def contention_select(contenders, rng) -> int:
    """Uniform pick among contending relay indices; rng needs .random() in [0, 1)."""
    n = len(contenders)
    if n == 0:
        raise ValueError("no contenders")
    return contenders[min(int(rng.random() * n), n - 1)]


class Obdwf:
    """Opportunistic buffered decode-and-forward with forwarding priority."""

    def reset(self):
        pass

    def step(self, links: FrameLinks, source, relays: RelayBank, rng) -> FrameOutcome:
        if relays.total_copies:
            contenders = np.nonzero(links.dst_connected() & relays.nonempty)[0]
            if contenders.size:
                winner = contention_select(contenders.tolist(), rng)
                pid = relays.head(winner)
                removed = relays.dequeue_id(pid)
                return FrameOutcome(
                    ROLE_FORWARD, delivered=(pid,), removed=tuple(removed), forwarder=winner
                )
        if len(source):
            pid = source.head().id
            decodes = []
            for j in np.nonzero(links.src_connected())[0]:
                if relays.enqueue(int(j), pid):
                    decodes.append((int(j), pid))
            if links.direct_connected():
                removed = relays.dequeue_id(pid)
                source.pop_head()
                return FrameOutcome(
                    ROLE_BROADCAST, delivered=(pid,), source_dequeued=True,
                    decodes=tuple(decodes), removed=tuple(removed),
                )
            if decodes:
                source.pop_head()
                return FrameOutcome(ROLE_BROADCAST, source_dequeued=True, decodes=tuple(decodes))
            return FrameOutcome(ROLE_BROADCAST)
        return FrameOutcome(ROLE_IDLE)


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
            holders = relays.holders_of(self.pid)
            conn = links.dst_connected()
            forwarder = next((j for j in sorted(holders) if conn[j]), None)
            if forwarder is None:
                return FrameOutcome(ROLE_FORWARD)
            pid = self.pid
            removed = relays.dequeue_id(pid)
            svc = (self.rho, self.eta)
            self.reset()
            return FrameOutcome(
                ROLE_FORWARD, delivered=(pid,), removed=tuple(removed),
                service=svc, forwarder=forwarder,
            )
        if not len(source):
            return FrameOutcome(ROLE_IDLE)
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
        decodes = []
        for j in np.nonzero(links.src_connected())[0]:
            if relays.enqueue(int(j), pid):
                decodes.append((int(j), pid))
        if decodes:
            source.pop_head()
            self.phase = 2
            return FrameOutcome(ROLE_BROADCAST, source_dequeued=True, decodes=tuple(decodes))
        return FrameOutcome(ROLE_BROADCAST)


class Af:
    """Amplify-and-forward, best relay: two-frame listen/forward cycle."""

    n_active = 1

    def __init__(self):
        self.reset()

    def reset(self):
        self.listening = True
        self.pid: int | None = None
        self.stored_src_quality: np.ndarray | None = None

    def step(self, links: FrameLinks, source, relays: RelayBank, rng) -> FrameOutcome:
        if self.listening:
            if not len(source):
                return FrameOutcome(ROLE_IDLE)
            self.pid = source.head().id
            self.stored_src_quality = np.array(links.src_quality(), dtype=np.float64)
            self.listening = False
            return FrameOutcome(ROLE_BROADCAST)
        snr = af_effective_snr(self.stored_src_quality, links.dst_quality(), links.phy.power)
        n = min(self.n_active, snr.size)
        top = np.argpartition(snr, -n)[-n:]
        combined = links.phy.xi * float(snr[top].sum())
        pid = self.pid
        self.listening = True
        self.pid = None
        self.stored_src_quality = None
        if combined >= links.phy.beta - 1.0:
            source.pop_head()
            return FrameOutcome(
                ROLE_FORWARD, delivered=(pid,), source_dequeued=True,
                forwarder=int(top[np.argmax(snr[top])]),
            )
        return FrameOutcome(ROLE_FORWARD)


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
        self.decoded: list[int] = []
        self.rho = 0
        self.eta = 0

    @property
    def source_overlap(self) -> int:
        """Packets counted both at the source and in relay buffers (phase-1 partial decode)."""
        return 1 if (self.phase == 1 and self.decoded) else 0

    def step(self, links: FrameLinks, source, relays: RelayBank, rng) -> FrameOutcome:
        if self.phase == 2:
            self.eta += 1
            idx = np.asarray(self.decoded)
            total = float(np.sum(links.dst_quality()[idx]))
            ok = links.phy.power * links.phy.xi * total >= links.phy.beta - 1.0
            if not ok:
                return FrameOutcome(ROLE_FORWARD)
            pid = self.pid
            removed = relays.dequeue_id(pid)
            svc = (self.rho, self.eta)
            self.reset()
            return FrameOutcome(ROLE_FORWARD, delivered=(pid,), removed=tuple(removed), service=svc)
        if not len(source):
            return FrameOutcome(ROLE_IDLE)
        pid = source.head().id
        self.pid = pid
        self.rho += 1
        if self.direct_delivery and links.direct_connected():
            removed = relays.dequeue_id(pid) if self.decoded else ()
            source.pop_head()
            svc = (self.rho, 0)
            self.reset()
            return FrameOutcome(
                ROLE_BROADCAST, delivered=(pid,), source_dequeued=True,
                removed=tuple(removed), service=svc,
            )
        decodes = []
        conn = links.src_connected()
        have = set(self.decoded)
        for j in np.nonzero(conn)[0]:
            j = int(j)
            if j not in have and relays.enqueue(j, pid):
                decodes.append((j, pid))
                self.decoded.append(j)
        if len(self.decoded) >= self.n_decode:
            source.pop_head()
            self.phase = 2
            self.decoded.sort()
            return FrameOutcome(ROLE_BROADCAST, source_dequeued=True, decodes=tuple(decodes))
        return FrameOutcome(ROLE_BROADCAST, decodes=tuple(decodes))


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
