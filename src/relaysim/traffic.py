"""Packet arrivals and the source/relay queue discipline.

Arrivals are i.i.d. batches per frame from a finite pmf. Queues are FIFO;
finite buffers drop the newest packet (tail drop) and count drops. Relay
buffers store packet ids only; a delivery removes the id from every relay
queue in one frame, preserving the order of what remains.

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
    bits: float


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

    __slots__ = ("minted", "frame", "bits", "_head", "_next_id")

    def __init__(self, start_id: int = 0, bits: float = 0.0):
        self.minted = 0
        self.frame = 0  # engine updates this each frame
        self.bits = bits
        self._head: Packet | None = None
        self._next_id = start_id

    def __len__(self) -> int:
        return 1 if self._head is not None else 2**30

    def head(self) -> Packet:
        if self._head is None:
            self._head = Packet(self._next_id, -1, self.bits)
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
    """K relay id-queues, a holder index for O(copies) removal by id, and the
    int mask `nonempty` with bit j set while relay j's queue holds an id."""

    __slots__ = ("K", "capacity", "drops", "queues", "holders", "nonempty", "total_copies")

    def __init__(self, K: int, capacity: int | None = None):
        if K < 1:
            raise ValueError("K must be >= 1")
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be None or >= 0")
        self.K = K
        self.capacity = capacity
        self.drops = 0
        self.queues: list[deque[int]] = [deque() for _ in range(K)]
        self.holders: dict[int, list[int]] = {}
        self.nonempty = 0
        self.total_copies = 0

    def __len__(self) -> int:
        return len(self.holders)  # distinct packet ids in the relay network

    def enqueue(self, relay: int, packet_id: int) -> bool:
        """Append an id to one relay queue; False when the buffer is full (drop)."""
        q = self.queues[relay]
        if self.capacity is not None and len(q) >= self.capacity:
            self.drops += 1
            return False
        q.append(packet_id)
        self.holders.setdefault(packet_id, []).append(relay)
        self.nonempty |= 1 << relay
        self.total_copies += 1
        return True

    def head(self, relay: int) -> int:
        return self.queues[relay][0]

    def queue_len(self, relay: int) -> int:
        return len(self.queues[relay])

    def holders_of(self, packet_id: int) -> list[int]:
        return self.holders.get(packet_id, [])

    def dequeue_id(self, packet_id: int) -> list[tuple[int, int]]:
        """Remove every copy of an id across the bank; returns (relay, id) pairs removed."""
        removed = []
        for relay in self.holders.pop(packet_id, []):
            q = self.queues[relay]
            q.remove(packet_id)
            if not q:
                self.nonempty &= ~(1 << relay)
            self.total_copies -= 1
            removed.append((relay, packet_id))
        return removed
