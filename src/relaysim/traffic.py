"""Packet arrivals and the source/relay queue discipline.

Arrivals are i.i.d. batches per frame from a finite pmf. Queues are FIFO;
finite buffers drop the newest packet (tail drop) and count drops. Relay
buffers store packet ids only, as one holder mask per buffered id: a broadcast
stores its copies at every decoding relay in one call, and a delivery removes
the id from every relay in one call, preserving the order of what remains.

Queue lengths follow the one-step recursion
    Q(t+1) = A(t+1) + max(Q(t) - U(t), 0)
with A the accepted arrivals and U in {0, 1} the departures of frame t.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrivalDistribution",
    "arrival_moments",
    "Packet",
    "SourceQueue",
    "InfiniteBacklog",
    "RelayBank",
]


def arrival_moments(pmf: dict[int, float]) -> tuple[float, float]:
    """(mean, second moment) of a pmf over counts: batch sizes, or service frames."""
    lam1 = sum(k * p for k, p in pmf.items())
    lam2 = sum(k * k * p for k, p in pmf.items())
    return lam1, lam2


@dataclass(frozen=True)
class ArrivalDistribution:
    """Finite batch-size pmf with cached inverse-cdf sampling."""

    sizes: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.sizes) != len(self.probs) or not self.sizes:
            raise ValueError("sizes and probs must be equal-length, non-empty")
        if any(s < 0 or s != int(s) for s in self.sizes):
            raise ValueError("batch sizes must be non-negative integers")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probs sum to {sum(self.probs)}, expected 1")
        object.__setattr__(self, "_cum", np.cumsum(np.asarray(self.probs)))
        object.__setattr__(self, "_size_arr", np.asarray(self.sizes, dtype=np.int64))

    @classmethod
    def from_pmf(cls, pmf: dict[int, float]) -> "ArrivalDistribution":
        """Build from a {batch_size: prob} dict; missing mass is assigned to size 0."""
        items = dict(pmf)
        rest = 1.0 - sum(items.values())
        if rest > 1e-12:
            items[0] = items.get(0, 0.0) + rest
        elif rest < -1e-12:
            raise ValueError(f"pmf mass exceeds 1 by {-rest}")
        sizes = tuple(sorted(items))
        return cls(sizes=sizes, probs=tuple(items[s] for s in sizes))

    def from_uniforms(self, u):
        """Batch size(s) for uniform draw(s) in (0, 1]."""
        idx = np.searchsorted(self._cum, np.asarray(u), side="left")
        idx = np.minimum(idx, len(self.sizes) - 1)
        out = self._size_arr[idx]
        return out if out.ndim else int(out)


@dataclass
class Packet:
    id: int
    arrival_frame: int


class SourceQueue:
    """FIFO source buffer. capacity None means unbounded."""

    __slots__ = ("capacity", "drops", "_q")

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be None or >= 0")
        self.capacity = capacity
        self.drops = 0
        self._q: deque[Packet] = deque()

    def __len__(self) -> int:
        return len(self._q)

    def offer(self, packet: Packet) -> bool:
        """Admit a packet, or drop it (newest loses) when the buffer is full."""
        if self.capacity is not None and len(self._q) >= self.capacity:
            self.drops += 1
            return False
        self._q.append(packet)
        return True

    def head(self) -> Packet:
        return self._q[0]

    def pop_head(self) -> Packet:
        return self._q.popleft()


class InfiniteBacklog:
    """Source that always has a packet: ids are minted on first peek of each head."""

    __slots__ = ("minted", "_head", "_next_id")

    def __init__(self, start_id: int = 0):
        self.minted = 0
        self._head: Packet | None = None
        self._next_id = start_id

    def __len__(self) -> int:
        return 1 if self._head is not None else 2**30

    def head(self) -> Packet:
        if self._head is None:
            self._head = Packet(self._next_id, -1)
            self._next_id += 1
            self.minted += 1
        return self._head

    def pop_head(self) -> Packet:
        p = self.head()
        self._head = None
        return p

    @property
    def pending(self) -> int:
        return 1 if self._head is not None else 0


class RelayBank:
    """Relay buffers as one insertion-ordered {packet id: holder mask}, relay j
    at bit j, and the int mask `nonempty` of the relays holding an id. Ids
    enter in increasing order, so relay j's FIFO queue is the ids with bit j."""

    __slots__ = ("K", "capacity", "drops", "masks", "nonempty", "total_copies")

    def __init__(self, K: int, capacity: int | None = None):
        if K < 1:
            raise ValueError("K must be >= 1")
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be None or >= 0")
        self.K = K
        self.capacity = capacity
        self.drops = 0
        self.masks: dict[int, int] = {}
        self.nonempty = 0
        self.total_copies = 0

    def __len__(self) -> int:
        return len(self.masks)  # distinct packet ids in the relay network

    def enqueue(self, mask: int, packet_id: int) -> int:
        """Store a copy of an id at each relay of mask that does not hold it yet;
        returns the mask of the relays that kept one. Relays at capacity drop it."""
        held = self.masks.get(packet_id, 0)
        mask &= ~held
        if self.capacity is not None:
            for j in range(mask.bit_length()):
                if mask >> j & 1 and self.queue_len(j) >= self.capacity:
                    mask ^= 1 << j
                    self.drops += 1
        if mask:
            self.masks[packet_id] = held | mask
            self.nonempty |= mask
            self.total_copies += mask.bit_count()
        return mask

    def head(self, relay: int) -> int:
        for pid, m in self.masks.items():
            if m >> relay & 1:
                return pid
        raise IndexError(f"relay {relay} holds no packet")

    def queue_len(self, relay: int) -> int:
        return sum(m >> relay & 1 for m in self.masks.values())

    def holders_of(self, packet_id: int) -> int:
        """The mask of the relays holding an id."""
        return self.masks.get(packet_id, 0)

    def dequeue_id(self, packet_id: int) -> tuple[int, ...]:
        """Remove every copy of an id; returns the relays it removed one from,
        lowest first."""
        mask = self.masks.pop(packet_id, 0)
        self.total_copies -= mask.bit_count()
        emptied = mask
        for m in self.masks.values():
            emptied &= ~m
            if not emptied:
                break
        self.nonempty &= ~emptied
        relays = []
        while mask:
            low = mask & -mask
            relays.append(low.bit_length() - 1)
            mask ^= low
        return tuple(relays)
