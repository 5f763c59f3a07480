"""Arrival distributions and queue semantics."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim.traffic import (
    ArrivalDistribution,
    InfiniteBacklog,
    Packet,
    RelayBank,
    SourceQueue,
    arrival_moments,
)


def test_arrival_moments():
    lam1, lam2 = arrival_moments({15: 0.001, 0: 0.999})
    assert lam1 == 0.015
    assert lam2 == 0.225


def test_from_pmf_fills_missing_mass():
    d = ArrivalDistribution.from_pmf({15: 0.001})
    assert d.sizes == (0, 15)
    assert abs(d.probs[0] - 0.999) < 1e-12
    lam1, lam2 = arrival_moments(dict(zip(d.sizes, d.probs)))
    assert abs(lam1 - 0.015) < 1e-15
    assert abs(lam2 - 0.225) < 1e-12
    with pytest.raises(ValueError):
        ArrivalDistribution.from_pmf({1: 0.7, 2: 0.5})


def test_arrival_distribution_validation():
    with pytest.raises(ValueError):
        ArrivalDistribution(sizes=(1, 2), probs=(1.0,))
    with pytest.raises(ValueError):
        ArrivalDistribution(sizes=(-1,), probs=(1.0,))
    with pytest.raises(ValueError):
        ArrivalDistribution(sizes=(1,), probs=(0.5,))


def test_arrival_inverse_cdf_boundaries():
    d = ArrivalDistribution(sizes=(0, 15), probs=(0.999, 0.001))
    # u in (0, 1]; u <= 0.999 is the common case, above it the burst
    assert d.from_uniforms(0.5) == 0
    assert d.from_uniforms(0.999) == 0
    assert d.from_uniforms(0.9995) == 15
    assert d.from_uniforms(1.0) == 15
    out = d.from_uniforms(np.array([0.1, 1.0]))
    assert np.array_equal(out, [0, 15])


def test_source_queue_fifo_and_drops():
    q = SourceQueue(capacity=2)
    p = [Packet(i, 0) for i in range(3)]
    assert q.offer(p[0]) and q.offer(p[1])
    assert not q.offer(p[2])  # newest packet loses
    assert q.drops == 1 and len(q) == 2
    assert q.head().id == 0
    assert q.pop_head().id == 0
    assert q.pop_head().id == 1
    assert len(q) == 0
    unbounded = SourceQueue()
    for i in range(100):
        assert unbounded.offer(Packet(i, 0))
    assert unbounded.drops == 0
    with pytest.raises(ValueError):
        SourceQueue(capacity=-1)


def test_infinite_backlog_mints_on_peek():
    src = InfiniteBacklog()
    assert len(src) >= 1
    a = src.head()
    assert a.id == 0
    assert src.head() is a  # peeking again does not mint
    assert src.minted == 1
    assert src.pending == 1
    popped = src.pop_head()
    assert popped is a
    assert src.pending == 0
    b = src.head()
    assert b.id == 1
    assert src.minted == 2


def test_relay_bank_enqueue_dequeue():
    bank = RelayBank(3)
    assert bank.enqueue(0b101, 10) == 0b101
    assert bank.enqueue(0b001, 11) == 0b001
    assert bank.total_copies == 3
    assert len(bank) == 2  # distinct ids
    assert bank.head(0) == 10 and bank.head(2) == 10
    assert bank.holders_of(10) == 0b101
    assert bank.nonempty == 0b101
    assert bank.enqueue(0b111, 10) == 0b010  # relays holding 10 already are skipped
    assert bank.holders_of(10) == 0b111 and bank.total_copies == 4
    assert bank.dequeue_id(10) == (0, 1, 2)
    assert bank.total_copies == 1
    assert bank.head(0) == 11  # order of the survivors is preserved
    assert bank.nonempty == 0b001
    assert bank.holders_of(10) == 0
    assert bank.dequeue_id(999) == ()
    with pytest.raises(IndexError):
        bank.head(2)


def test_relay_bank_capacity():
    bank = RelayBank(2, capacity=1)
    assert bank.enqueue(0b01, 1) == 0b01
    assert bank.enqueue(0b11, 2) == 0b10  # relay 0 is full: its copy drops
    assert bank.drops == 1
    assert bank.queue_len(0) == 1 and bank.queue_len(1) == 1
    assert bank.enqueue(0b11, 3) == 0
    assert bank.drops == 3 and len(bank) == 2
    with pytest.raises(ValueError):
        RelayBank(0)
    with pytest.raises(ValueError):
        RelayBank(1, capacity=-2)


def test_relay_bank_order_within_queue():
    bank = RelayBank(1)
    for pid in (5, 6, 7):
        bank.enqueue(1, pid)
    bank.dequeue_id(6)
    assert bank.head(0) == 5
    bank.dequeue_id(5)
    assert bank.head(0) == 7


class DequeBank:
    """Reference relay bank: one FIFO deque of packet ids per relay."""

    def __init__(self, K, capacity):
        self.capacity = capacity
        self.queues = [deque() for _ in range(K)]
        self.drops = 0

    def enqueue(self, mask, pid):
        kept = 0
        for j, q in enumerate(self.queues):
            if mask >> j & 1 and pid not in q:
                if self.capacity is not None and len(q) >= self.capacity:
                    self.drops += 1
                else:
                    q.append(pid)
                    kept |= 1 << j
        return kept

    def dequeue_id(self, pid):
        removed = []
        for j, q in enumerate(self.queues):
            if pid in q:
                q.remove(pid)
                removed.append(j)
        return tuple(removed)


K_MODEL = 2

# One operation: ("enqueue", mask) stores the next new id, or the newest id
# again when `again` is set; ("dequeue", k) removes the k-th stored id, or an
# absent id when there are k or fewer; ("head", j) reads relay j's head.
bank_ops = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), st.integers(0, 2**K_MODEL - 1), st.booleans()),
    st.tuples(st.just("dequeue"), st.integers(0, 3), st.just(False)),
    st.tuples(st.just("head"), st.integers(0, K_MODEL - 1), st.just(False)),
), max_size=40)


@settings(max_examples=500)
@given(st.sampled_from((None, 0, 1, 2)), bank_ops)
def test_relay_bank_matches_per_relay_deques(capacity, ops):
    bank, ref = RelayBank(K_MODEL, capacity), DequeBank(K_MODEL, capacity)
    next_id, stored = 0, []
    for op, x, again in ops:
        if op == "enqueue":
            # ids enter in increasing order; a stored id may gain holders again
            pid = stored[-1] if again and stored else next_id
            assert bank.enqueue(x, pid) == ref.enqueue(x, pid)
            if pid == next_id:
                next_id += 1
                stored.append(pid)
        elif op == "dequeue":
            pid = stored.pop(x) if x < len(stored) else next_id + 1
            assert bank.dequeue_id(pid) == ref.dequeue_id(pid)
        else:
            q = ref.queues[x]
            if q:
                assert bank.head(x) == q[0]
            else:
                with pytest.raises(IndexError):
                    bank.head(x)
        assert bank.drops == ref.drops
        assert bank.nonempty == sum(1 << j for j, q in enumerate(ref.queues) if q)
        assert bank.total_copies == sum(len(q) for q in ref.queues)
        for j, q in enumerate(ref.queues):
            assert bank.queue_len(j) == len(q)
            if q:
                assert bank.head(j) == q[0]
